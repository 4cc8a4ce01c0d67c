#include "realexec/controller.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/result.hpp"
#include "realexec/worker.hpp"

namespace canary::realexec {

namespace {
/// Allowance for the non-beating phases (spawn->Hello, input synthesis,
/// restore): these run real compute whose duration is the thing being
/// measured, so they get a generous fixed deadline.
constexpr Duration kLaunchGrace = Duration::sec(10.0);
/// Workers one controller spawns over its lifetime; each is also a KV
/// cache node.
constexpr std::size_t kMaxWorkers = 64;

/// Best-effort pipe widening so multi-hundred-KB checkpoints don't
/// serialize the event loop behind a 64 KiB kernel buffer. Failure
/// (unprivileged caller, small pipe-max-size) is fine — the pending
/// write queue handles any capacity.
void widen_pipe(int fd) {
#ifdef F_SETPIPE_SZ
  (void)::fcntl(fd, F_SETPIPE_SZ, 1 << 20);
#endif
}
}  // namespace

std::string_view to_string_view(WorkerState state) {
  switch (state) {
    case WorkerState::kSpawned: return "spawned";
    case WorkerState::kReady: return "ready";
    case WorkerState::kInitializing: return "initializing";
    case WorkerState::kRestoring: return "restoring";
    case WorkerState::kExecuting: return "executing";
    case WorkerState::kDead: return "dead";
  }
  return "unknown";
}

Controller::Controller(ControllerConfig config) : config_(std::move(config)) {
  signal(SIGPIPE, SIG_IGN);
  std::vector<NodeId> cache_nodes;
  cache_nodes.reserve(kMaxWorkers);
  for (std::size_t i = 0; i < kMaxWorkers; ++i) {
    cache_nodes.push_back(NodeId{i + 1});
  }
  kv_ = std::make_unique<kv::KvStore>(config_.kv, std::move(cache_nodes));
}

Controller::~Controller() {
  for (auto& worker : workers_) {
    if (worker.pid > 0 && !worker.reaped) {
      ::kill(worker.pid, SIGCONT);  // a stopped worker cannot die of SIGKILL
      ::kill(worker.pid, SIGKILL);
      reap(worker, true);
    }
    close_quiet(worker.ctrl_fd);
    close_quiet(worker.data_up_fd);
    close_quiet(worker.data_down_fd);
  }
}

std::string Controller::checkpoint_key(std::uint32_t invocation,
                                       std::uint32_t step) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt/%u/%06u", invocation, step);
  return buf;
}

WorkerId Controller::spawn() {
  CANARY_CHECK(workers_.size() < kMaxWorkers, "worker capacity exhausted");
  int ctrl[2];
  CANARY_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, ctrl) == 0,
               "socketpair failed");
  int up[2];
  int down[2];
  CANARY_CHECK(::pipe(up) == 0 && ::pipe(down) == 0, "pipe failed");
  widen_pipe(up[1]);
  widen_pipe(down[1]);

  const pid_t pid = ::fork();
  CANARY_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    // Child: drop every controller-side descriptor (other workers'
    // pipes included — a dead sibling's pipe must hit EOF), then serve.
    for (const auto& other : workers_) {
      close_quiet(other.ctrl_fd);
      close_quiet(other.data_up_fd);
      close_quiet(other.data_down_fd);
    }
    close_quiet(ctrl[0]);
    close_quiet(up[0]);
    close_quiet(down[1]);
    worker_main(ctrl[1], up[1], down[0]);  // never returns
  }

  close_quiet(ctrl[1]);
  close_quiet(up[1]);
  close_quiet(down[0]);
  set_nonblocking(ctrl[0], true);
  set_nonblocking(up[0], true);
  set_nonblocking(down[1], true);

  Worker worker;
  worker.pid = pid;
  worker.ctrl_fd = ctrl[0];
  worker.data_up_fd = up[0];
  worker.data_down_fd = down[1];
  worker.ctrl_reader = std::make_unique<FrameReader>(ctrl[0]);
  worker.data_reader = std::make_unique<FrameReader>(up[0]);
  worker.node = NodeId{workers_.size() + 1};
  worker.last_beat = now();
  workers_.push_back(std::move(worker));
  ++stats_.workers_spawned;
  return static_cast<WorkerId>(workers_.size() - 1);
}

std::uint32_t Controller::dispatch(WorkerId id, const TaskSpec& spec) {
  Worker& worker = workers_.at(id);
  CANARY_CHECK(worker.state == WorkerState::kReady,
               "dispatch needs a ready worker");
  auto& inv = invocations_[spec.invocation];
  ++inv.epoch;  // fresh lineage: prior lineages' commits become stale
  worker.invocation = spec.invocation;
  worker.epoch = inv.epoch;

  DispatchPayload payload;
  payload.invocation = spec.invocation;
  payload.epoch = inv.epoch;
  payload.kernel = spec.kernel;
  payload.steps_total = spec.steps_total;
  payload.start_step = spec.start_step;
  payload.seed = spec.seed;
  payload.size_param = spec.size_param;
  payload.heartbeat_interval_usec = config_.heartbeat_interval.count_usec();
  payload.restore_bytes = spec.restore_bytes.size();
  payload.hold_before_commit_step = spec.hold_before_commit_step;
  payload.hold_usec = spec.hold.count_usec();
  payload.torn_commit_step = spec.torn_commit_step;

  worker.restore_pending = !spec.restore_bytes.empty();
  worker.state = WorkerState::kInitializing;
  worker.last_beat = now();
  (void)write_frame_poll(worker.ctrl_fd, FrameType::kDispatch,
                         pod_bytes(payload));
  worker.pending_down = spec.restore_bytes;
  flush_pending_down(worker);
  return inv.epoch;
}

void Controller::sigkill(WorkerId id) {
  Worker& worker = workers_.at(id);
  if (worker.pid > 0 && !worker.reaped) {
    ::kill(worker.pid, SIGKILL);
    ++stats_.sigkills_sent;
  }
}

void Controller::sigstop(WorkerId id) {
  Worker& worker = workers_.at(id);
  if (worker.pid > 0 && !worker.reaped) ::kill(worker.pid, SIGSTOP);
}

void Controller::sigcont(WorkerId id) {
  Worker& worker = workers_.at(id);
  if (worker.pid > 0 && !worker.reaped) ::kill(worker.pid, SIGCONT);
}

void Controller::fence(WorkerId id) {
  Worker& worker = workers_.at(id);
  worker.fenced = true;
  kv_->fence_node(worker.node);
}

void Controller::shutdown(WorkerId id) {
  Worker& worker = workers_.at(id);
  if (worker.state == WorkerState::kDead) return;
  (void)write_frame_poll(worker.ctrl_fd, FrameType::kShutdown, {});
}

void Controller::set_drain_paused(WorkerId id, bool paused) {
  workers_.at(id).drain_paused = paused;
}

WorkerState Controller::state_of(WorkerId id) const {
  return workers_.at(id).state;
}

pid_t Controller::pid_of(WorkerId id) const { return workers_.at(id).pid; }

NodeId Controller::node_of(WorkerId id) const { return workers_.at(id).node; }

std::size_t Controller::live_workers() const {
  std::size_t live = 0;
  for (const auto& worker : workers_) {
    if (worker.state != WorkerState::kDead) ++live;
  }
  return live;
}

std::uint32_t Controller::current_epoch(std::uint32_t invocation) const {
  auto it = invocations_.find(invocation);
  return it == invocations_.end() ? 0 : it->second.epoch;
}

std::int64_t Controller::last_committed_step(std::uint32_t invocation) const {
  auto it = invocations_.find(invocation);
  return it == invocations_.end() ? -1 : it->second.last_step;
}

std::optional<Controller::CheckpointRef> Controller::latest_checkpoint(
    std::uint32_t invocation) const {
  auto it = invocations_.find(invocation);
  if (it == invocations_.end() || it->second.last_step < 0) return std::nullopt;
  const auto step = static_cast<std::uint32_t>(it->second.last_step);
  const std::string key = checkpoint_key(invocation, step);
  // No-corrupt-restore oracle: never hand out bytes whose stored
  // checksum no longer matches.
  if (!kv_->intact(key)) return std::nullopt;
  auto entry = kv_->get(key);
  if (!entry.ok()) return std::nullopt;
  return CheckpointRef{step, entry.value().payload};
}

Duration Controller::death_deadline(const Worker& worker) const {
  switch (worker.state) {
    case WorkerState::kSpawned:
    case WorkerState::kInitializing:
    case WorkerState::kRestoring:
      return kLaunchGrace;
    case WorkerState::kExecuting:
      return config_.heartbeat_interval * config_.timeout_multiplier;
    case WorkerState::kReady:
    case WorkerState::kDead:
      return Duration::max();
  }
  return Duration::max();
}

void Controller::reap(Worker& worker, bool blocking) {
  if (worker.pid <= 0 || worker.reaped) return;
  int status = 0;
  const pid_t r = ::waitpid(worker.pid, &status, blocking ? 0 : WNOHANG);
  if (r == worker.pid || (r < 0 && errno == ECHILD)) worker.reaped = true;
}

void Controller::flush_pending_down(Worker& worker) {
  while (!worker.pending_down.empty()) {
    const ssize_t n = ::write(worker.data_down_fd, worker.pending_down.data(),
                              worker.pending_down.size());
    if (n > 0) {
      worker.pending_down.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    worker.pending_down.clear();  // EPIPE: worker died; heartbeat loss
    return;                       // will surface the failure
  }
}

void Controller::declare_dead(WorkerId id, std::vector<ControllerEvent>* out) {
  Worker& worker = workers_[id];
  if (worker.state == WorkerState::kDead) return;
  worker.state = WorkerState::kDead;
  worker.fenced = true;
  ++stats_.heartbeat_deaths;

  // Fence FIRST: from this instant the lineage's writes are stale, so
  // commit frames still buffered in the pipe — or written later by a
  // live zombie — cannot win a race against the replacement.
  kv_->fence_node(worker.node);

  out->push_back({ControllerEvent::Kind::kWorkerDead, id, worker.invocation,
                  worker.epoch, 0, 0, now()});

  if (config_.kill_on_fence && worker.pid > 0 && !worker.reaped) {
    ::kill(worker.pid, SIGCONT);
    ::kill(worker.pid, SIGKILL);
    reap(worker, true);
  }

  // Drain AFTER the fence; anything buffered bounces off it.
  worker.data_reader->pump();
  process_data_frames(id, out);
  worker.ctrl_reader->pump();
  process_ctrl_frames(id, out);
}

void Controller::process_ctrl_frames(WorkerId id,
                                     std::vector<ControllerEvent>* out) {
  Worker& worker = workers_[id];
  while (auto frame = worker.ctrl_reader->next()) {
    if (worker.state == WorkerState::kDead) continue;  // no resurrection
    worker.last_beat = now();
    switch (frame->type) {
      case FrameType::kHello:
        worker.state = WorkerState::kReady;
        out->push_back({ControllerEvent::Kind::kHello, id, 0, 0, 0, 0, now()});
        break;
      case FrameType::kHeartbeat:
        break;  // last_beat update above is the whole point
      case FrameType::kTaskReady:
        worker.state = worker.restore_pending ? WorkerState::kRestoring
                                              : WorkerState::kExecuting;
        out->push_back({ControllerEvent::Kind::kTaskReady, id,
                        worker.invocation, worker.epoch, 0, 0, now()});
        break;
      case FrameType::kRestoreDone:
        worker.restore_pending = false;
        worker.state = WorkerState::kExecuting;
        out->push_back({ControllerEvent::Kind::kRestoreDone, id,
                        worker.invocation, worker.epoch, 0, 0, now()});
        break;
      case FrameType::kComplete: {
        CompletePayload done;
        if (!pod_parse(frame->payload, &done)) break;
        worker.state = WorkerState::kReady;
        out->push_back({ControllerEvent::Kind::kComplete, id, done.invocation,
                        done.epoch, 0, done.checksum, now()});
        break;
      }
      default:
        break;
    }
  }
}

void Controller::process_data_frames(WorkerId id,
                                     std::vector<ControllerEvent>* out) {
  Worker& worker = workers_[id];
  while (auto frame = worker.data_reader->next()) {
    if (frame->type == FrameType::kCommit) {
      handle_commit(id, frame->payload, out);
    }
  }
  if (worker.data_reader->eof() && worker.data_reader->torn() &&
      !worker.torn_flagged) {
    // The stream ended mid-frame: a SIGKILL landed inside a commit
    // write. The fragment is discarded — never half-applied.
    worker.torn_flagged = true;
    ++stats_.commits_torn;
    out->push_back({ControllerEvent::Kind::kCommitTorn, id, worker.invocation,
                    worker.epoch, 0, 0, now()});
  }
}

void Controller::handle_commit(WorkerId id, const std::string& payload,
                               std::vector<ControllerEvent>* out) {
  CommitPayload commit;
  if (!pod_parse(payload, &commit)) return;
  std::string bytes = payload.substr(sizeof(CommitPayload));
  CANARY_CHECK(bytes.size() == commit.nbytes, "commit length mismatch");

  Worker& worker = workers_[id];
  if (worker.state != WorkerState::kDead) worker.last_beat = now();
  auto& inv = invocations_[commit.invocation];

  // The write is attributed to the worker's cache node; a fenced node's
  // put comes back kUnavailable and counts as a stale_epoch_reject in
  // the store — the same mechanism the simulator's partition runs use.
  const Status status =
      kv_->put(checkpoint_key(commit.invocation, commit.step), bytes,
               std::nullopt, worker.node);
  if (!status.ok()) {
    ++stats_.commits_stale;
    out->push_back({ControllerEvent::Kind::kCommitStale, id, commit.invocation,
                    commit.epoch, commit.step, commit.checksum, now()});
    return;
  }
  if (commit.epoch != inv.epoch) {
    // A stale lineage's write got past the fence: exactly-once is
    // broken. Counted loudly; the validation bench fails on it.
    ++stats_.commits_stale;
    ++stats_.unfenced_stale_commits;
    out->push_back({ControllerEvent::Kind::kCommitStale, id, commit.invocation,
                    commit.epoch, commit.step, commit.checksum, now()});
    return;
  }
  if (inv.last_step_epoch == commit.epoch &&
      static_cast<std::int64_t>(commit.step) <= inv.last_step) {
    ++stats_.duplicate_commits;
    out->push_back({ControllerEvent::Kind::kCommitStale, id, commit.invocation,
                    commit.epoch, commit.step, commit.checksum, now()});
    return;
  }
  inv.last_step = commit.step;
  inv.last_step_epoch = commit.epoch;
  ++stats_.commits_accepted;
  out->push_back({ControllerEvent::Kind::kCommitAccepted, id,
                  commit.invocation, commit.epoch, commit.step, commit.checksum,
                  now()});
}

std::size_t Controller::poll_events(Duration max_wait,
                                    std::vector<ControllerEvent>* out) {
  const std::size_t base = out->size();
  const TimePoint start = now();
  for (;;) {
    // Heartbeat sweep: declare (and fence) every overdue worker.
    for (WorkerId id = 0; id < workers_.size(); ++id) {
      Worker& worker = workers_[id];
      if (worker.state == WorkerState::kDead) continue;
      const Duration deadline = death_deadline(worker);
      if (deadline == Duration::max()) continue;
      if (now() - worker.last_beat > deadline) declare_dead(id, out);
    }
    if (out->size() > base) return out->size() - base;

    const Duration elapsed = now() - start;
    if (elapsed >= max_wait) return 0;
    Duration wait = max_wait - elapsed;

    // Bound the poll by the nearest heartbeat deadline.
    for (const auto& worker : workers_) {
      if (worker.state == WorkerState::kDead) continue;
      const Duration deadline = death_deadline(worker);
      if (deadline == Duration::max()) continue;
      const TimePoint expires = worker.last_beat + deadline;
      const Duration until =
          expires > now() ? expires - now() : Duration::usec(1);
      wait = std::min(wait, until);
    }

    std::vector<pollfd> fds;
    std::vector<std::pair<WorkerId, int>> what;  // worker, 0=ctrl 1=data 2=down
    for (WorkerId id = 0; id < workers_.size(); ++id) {
      Worker& worker = workers_[id];
      if (!worker.ctrl_reader->eof()) {
        fds.push_back({worker.ctrl_fd, POLLIN, 0});
        what.emplace_back(id, 0);
      }
      if (!worker.data_reader->eof() && !worker.drain_paused) {
        fds.push_back({worker.data_up_fd, POLLIN, 0});
        what.emplace_back(id, 1);
      }
      if (!worker.pending_down.empty()) {
        fds.push_back({worker.data_down_fd, POLLOUT, 0});
        what.emplace_back(id, 2);
      }
    }

    const int timeout_ms = static_cast<int>(
        std::min<std::int64_t>((wait.count_usec() + 999) / 1000, 100));
    if (fds.empty()) {
      timespec req{0, std::max<long>(timeout_ms, 1) * 1'000'000L};
      nanosleep(&req, nullptr);
    } else {
      const int rc = ::poll(fds.data(), fds.size(), std::max(timeout_ms, 1));
      if (rc > 0) {
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (fds[i].revents == 0) continue;
          const auto [id, kind] = what[i];
          Worker& worker = workers_[id];
          if (kind == 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
            worker.ctrl_reader->pump();
            process_ctrl_frames(id, out);
          } else if (kind == 1 &&
                     (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
            worker.data_reader->pump();
            process_data_frames(id, out);
          } else if (kind == 2) {
            flush_pending_down(worker);
          }
        }
      }
    }
    if (out->size() > base) return out->size() - base;
  }
}

}  // namespace canary::realexec

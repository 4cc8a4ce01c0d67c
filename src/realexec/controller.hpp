// Real-execution control plane: forked worker processes behind a
// poll()-driven event loop.
//
// The controller owns, per worker, a Unix-domain control socketpair
// (hello / dispatch / heartbeat / lifecycle acks) and two data pipes
// (commits up, restore bytes down). Failure detection is genuinely
// asynchronous: a worker is dead only when its heartbeats stop for
// `heartbeat_interval x timeout_multiplier` — SIGKILL, SIGSTOP, or a
// wedged process all surface the same way, exactly like the simulator's
// heartbeat detector. On death the controller *fences before draining*:
// the worker's NodeId is epoch-fenced in the shared KV store first, so
// commit frames still buffered in its pipe — or written later by a
// live zombie — are rejected as stale-epoch writes, which is the
// split-brain exactly-once guarantee the sim asserts, now enforced
// against a real asynchronous process.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/wallclock.hpp"
#include "realexec/ipc.hpp"
#include "realexec/protocol.hpp"

namespace canary::realexec {

using WorkerId = std::uint32_t;

enum class WorkerState {
  kSpawned,       // forked, Hello not yet seen
  kReady,         // idle, dispatchable
  kInitializing,  // dispatched, synthesizing input
  kRestoring,     // input ready, deserializing a checkpoint
  kExecuting,     // running kernel steps
  kDead,          // heartbeat-declared dead (and fenced)
};

std::string_view to_string_view(WorkerState state);

/// One task dispatch. The controller assigns the lineage epoch.
struct TaskSpec {
  KernelKind kernel = KernelKind::kGraphBfs;
  std::uint64_t seed = 1;
  std::uint64_t size_param = 1 << 20;
  std::uint32_t steps_total = 8;
  std::uint32_t invocation = 0;
  std::uint32_t start_step = 0;
  /// Checkpoint to resume from (streamed over the data-down pipe).
  std::string restore_bytes;
  // ---- fault hooks (tests; kNoStep = off) ----
  std::uint32_t hold_before_commit_step = kNoStep;
  Duration hold = Duration::zero();
  std::uint32_t torn_commit_step = kNoStep;
};

struct ControllerEvent {
  enum class Kind {
    kHello,           // worker process is up
    kTaskReady,       // input synthesized
    kRestoreDone,     // checkpoint loaded
    kCommitAccepted,  // state commit persisted in the KV store
    kCommitStale,     // commit rejected (fenced writer / stale lineage)
    kCommitTorn,      // half-written commit frame discarded at EOF
    kComplete,        // task finished; checksum carried
    kWorkerDead,      // heartbeat timeout fired; worker fenced
  };
  Kind kind;
  WorkerId worker = 0;
  std::uint32_t invocation = 0;
  std::uint32_t epoch = 0;
  std::uint32_t step = 0;
  std::uint64_t checksum = 0;
  TimePoint at;  // wall clock, microseconds since controller start
};

struct ControllerConfig {
  Duration heartbeat_interval = Duration::msec(50);
  /// Missed intervals before a worker is declared dead.
  double timeout_multiplier = 4.0;
  /// Physically SIGKILL a worker when it is declared dead. Off lets a
  /// live zombie keep running so tests can watch its late commit bounce
  /// off the epoch fence.
  bool kill_on_fence = true;
  kv::KvConfig kv;
};

struct ControllerStats {
  std::uint64_t workers_spawned = 0;
  std::uint64_t sigkills_sent = 0;
  std::uint64_t heartbeat_deaths = 0;
  std::uint64_t commits_accepted = 0;
  std::uint64_t commits_stale = 0;     // rejected by fence/lineage check
  std::uint64_t commits_torn = 0;      // half-frames discarded
  std::uint64_t duplicate_commits = 0; // same lineage re-committing a step
  /// Stale-lineage commits that the KV fence FAILED to reject — any
  /// non-zero value is an exactly-once violation.
  std::uint64_t unfenced_stale_commits = 0;
};

class Controller {
 public:
  explicit Controller(ControllerConfig config);
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Fork a worker. Hello arrives asynchronously as an event.
  WorkerId spawn();

  /// Send a task; returns the fresh lineage epoch assigned to it.
  std::uint32_t dispatch(WorkerId worker, const TaskSpec& spec);

  /// Fault injection: the injector's node-kill, for real.
  void sigkill(WorkerId worker);
  void sigstop(WorkerId worker);
  void sigcont(WorkerId worker);
  /// Logical fence only (split-brain emulation): epoch-fence the
  /// worker's node in the KV store without touching the process.
  void fence(WorkerId worker);
  /// Graceful shutdown request.
  void shutdown(WorkerId worker);
  /// Test hook: stop draining this worker's data pipe (delays its
  /// commits inside the kernel buffer, like a slow network path).
  void set_drain_paused(WorkerId worker, bool paused);

  /// Pump the event loop: poll fds, flush pending downstream bytes,
  /// fire heartbeat deadlines. Returns once >= 1 event was produced or
  /// `max_wait` elapsed; events are appended to `out`.
  std::size_t poll_events(Duration max_wait, std::vector<ControllerEvent>* out);

  TimePoint now() const { return clock_.now(); }
  kv::KvStore& store() { return *kv_; }
  const kv::KvStore& store() const { return *kv_; }
  ControllerStats stats() const { return stats_; }

  WorkerState state_of(WorkerId worker) const;
  pid_t pid_of(WorkerId worker) const;
  NodeId node_of(WorkerId worker) const;
  std::size_t live_workers() const;

  std::uint32_t current_epoch(std::uint32_t invocation) const;
  std::int64_t last_committed_step(std::uint32_t invocation) const;
  /// Latest accepted checkpoint for `invocation`, integrity-checked
  /// against the KV store (no-corrupt-restore oracle). nullopt when no
  /// commit was accepted or the stored entry fails its checksum.
  struct CheckpointRef {
    std::uint32_t step;
    std::string bytes;
  };
  std::optional<CheckpointRef> latest_checkpoint(
      std::uint32_t invocation) const;

  static std::string checkpoint_key(std::uint32_t invocation,
                                    std::uint32_t step);

 private:
  struct Worker {
    pid_t pid = -1;
    int ctrl_fd = -1;      // parent end of the control socketpair
    int data_up_fd = -1;   // read end of the commit pipe
    int data_down_fd = -1; // write end of the restore pipe
    std::unique_ptr<FrameReader> ctrl_reader;
    std::unique_ptr<FrameReader> data_reader;
    std::string pending_down;  // restore bytes not yet flushed
    WorkerState state = WorkerState::kSpawned;
    NodeId node;
    std::uint32_t invocation = 0;
    std::uint32_t epoch = 0;
    TimePoint last_beat;
    bool restore_pending = false;
    bool fenced = false;
    bool drain_paused = false;
    bool torn_flagged = false;
    bool reaped = false;
  };

  struct InvocationRec {
    std::uint32_t epoch = 0;        // current lineage
    std::int64_t last_step = -1;    // latest accepted commit step
    std::uint32_t last_step_epoch = 0;
  };

  Duration death_deadline(const Worker& worker) const;
  void declare_dead(WorkerId id, std::vector<ControllerEvent>* out);
  void flush_pending_down(Worker& worker);
  void process_ctrl_frames(WorkerId id, std::vector<ControllerEvent>* out);
  void process_data_frames(WorkerId id, std::vector<ControllerEvent>* out);
  void handle_commit(WorkerId id, const std::string& payload,
                     std::vector<ControllerEvent>* out);
  void reap(Worker& worker, bool blocking);

  ControllerConfig config_;
  obs::WallClock clock_;
  std::unique_ptr<kv::KvStore> kv_;
  std::vector<Worker> workers_;
  std::map<std::uint32_t, InvocationRec> invocations_;
  ControllerStats stats_;
};

}  // namespace canary::realexec

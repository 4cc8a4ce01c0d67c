#include "obs/critical_path.hpp"

#include <algorithm>
#include <cctype>
#include <span>
#include <utility>

namespace canary::obs {

std::string_view to_string_view(PathComponent component) {
  switch (component) {
    case PathComponent::kDetection: return "detection";
    case PathComponent::kScheduling: return "scheduling";
    case PathComponent::kLaunch: return "launch";
    case PathComponent::kInit: return "init";
    case PathComponent::kRestore: return "restore";
    case PathComponent::kExec: return "exec";
    case PathComponent::kReExec: return "re_exec";
    case PathComponent::kFinalize: return "finalize";
    case PathComponent::kQueueing: return "queueing";
    case PathComponent::kHedging: return "hedging";
  }
  return "unknown";
}

double ComponentSums::total() const {
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum;
}

void ComponentSums::merge(const ComponentSums& other) {
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    seconds[i] += other.seconds[i];
  }
}

PathComponent ComponentSums::dominant() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < seconds.size(); ++i) {
    if (seconds[i] > seconds[best]) best = i;
  }
  return static_cast<PathComponent>(best);
}

void BreakdownReport::FunctionBreakdown::merge(const FunctionBreakdown& other) {
  functions += other.functions;
  recoveries += other.recoveries;
  window_s += other.window_s;
  recovery_components.merge(other.recovery_components);
  end_to_end_components.merge(other.end_to_end_components);
}

void BreakdownReport::merge(const BreakdownReport& other) {
  recovery_count += other.recovery_count;
  recovery_window_s += other.recovery_window_s;
  recovery_components.merge(other.recovery_components);
  end_to_end_components.merge(other.end_to_end_components);
  for (const auto& [family, fb] : other.per_function) {
    per_function[family].merge(fb);
  }
  slo_targets += other.slo_targets;
  slo_violations += other.slo_violations;
  for (const auto& [component, count] : other.slo_breaches_by_component) {
    slo_breaches_by_component[component] += count;
  }
}

std::string base_function_name(std::string_view name) {
  const auto trailing_digits_start = [](std::string_view s) {
    std::size_t i = s.size();
    while (i > 0 && std::isdigit(static_cast<unsigned char>(s[i - 1]))) --i;
    return i;
  };
  std::size_t end = name.size();
  // Replica suffix "+r<k>" (request replication's expand_job).
  std::size_t d = trailing_digits_start(name.substr(0, end));
  if (d < end && d >= 2 && name[d - 1] == 'r' && name[d - 2] == '+') {
    end = d - 2;
  }
  // Instance suffix "-<i>" (workload generators).
  const std::string_view core = name.substr(0, end);
  d = trailing_digits_start(core);
  if (d < core.size() && d >= 1 && core[d - 1] == '-') end = d - 1;
  return std::string(name.substr(0, end));
}

namespace {

constexpr int kStateEnd = -1;  // kComplete: nothing after is attributed

int state_for(EventKind kind) {
  switch (kind) {
    case EventKind::kQueued:
      return static_cast<int>(PathComponent::kQueueing);
    case EventKind::kShed: return kStateEnd;
    case EventKind::kSubmit: return static_cast<int>(PathComponent::kScheduling);
    case EventKind::kLaunch: return static_cast<int>(PathComponent::kLaunch);
    case EventKind::kInit: return static_cast<int>(PathComponent::kInit);
    case EventKind::kRestore: return static_cast<int>(PathComponent::kRestore);
    case EventKind::kExec: return static_cast<int>(PathComponent::kExec);
    case EventKind::kFinalize:
      return static_cast<int>(PathComponent::kFinalize);
    case EventKind::kFailure:
      return static_cast<int>(PathComponent::kDetection);
    case EventKind::kDetect:
      return static_cast<int>(PathComponent::kScheduling);
    case EventKind::kComplete: return kStateEnd;
    default: return -2;  // no phase change
  }
}

using Transition = std::pair<TimePoint, int>;
using Window = std::pair<TimePoint, TimePoint>;

/// Grows `run` by one slot into the space after it and fills the slot.
template <typename T>
void append(std::span<T>& run, const T& value) {
  run = std::span<T>(run.data(), run.size() + 1);
  run.back() = value;
}

}  // namespace

struct CriticalPathAnalyzer::FunctionTimeline {
  std::string family;
  /// First event's time, and the first kComplete event's time and trace.
  TimePoint root = TimePoint::max();
  TimePoint completed = TimePoint::max();
  TraceId complete_trace;
  /// This function's runs of analyze()'s flat scratch arrays, appended
  /// in event order: (time, phase) transitions, where phase kStateEnd
  /// terminates; resolved recovery windows [failed, recovered]; SLA
  /// breach instants.
  std::span<Transition> transitions;
  std::span<Window> windows;
  std::span<TimePoint> breaches;
  /// Latest event time seen; closes the final open interval on runs that
  /// end mid-execution.
  TimePoint last_seen = TimePoint::origin();
  /// This copy lost a hedge race: its whole lifetime is speculation.
  bool hedge_cancelled = false;

  /// Decompose [from, to] into components. Execution time overlapping a
  /// recovery window counts as re-execution. `scratch` is reused buffer
  /// space.
  ComponentSums accumulate(TimePoint from, TimePoint to,
                           std::vector<Window>& scratch) const {
    ComponentSums sums;
    for (std::size_t i = 0; i < transitions.size(); ++i) {
      const int state = transitions[i].second;
      if (state == kStateEnd) break;
      const TimePoint start = transitions[i].first;
      const TimePoint end =
          i + 1 < transitions.size() ? transitions[i + 1].first : last_seen;
      const TimePoint a = std::max(start, from);
      const TimePoint b = std::min(end, to);
      if (b <= a) continue;
      const double span_s = (b - a).to_seconds();
      if (state == static_cast<int>(PathComponent::kExec)) {
        const double re_s = window_overlap_seconds(a, b, scratch);
        sums[PathComponent::kReExec] += re_s;
        sums[PathComponent::kExec] += span_s - re_s;
      } else {
        sums.seconds[static_cast<std::size_t>(state)] += span_s;
      }
    }
    return sums;
  }

  /// Seconds of [a, b] covered by the union of the recovery windows.
  double window_overlap_seconds(TimePoint a, TimePoint b,
                                std::vector<Window>& clipped) const {
    // Windows are few per function; clip, sort, and merge.
    clipped.clear();
    for (const auto& [failed, recovered] : windows) {
      const TimePoint lo = std::max(failed, a);
      const TimePoint hi = std::min(recovered, b);
      if (hi > lo) clipped.emplace_back(lo, hi);
    }
    std::sort(clipped.begin(), clipped.end());
    double total = 0.0;
    TimePoint cursor = a;
    for (const auto& [lo, hi] : clipped) {
      const TimePoint start = std::max(lo, cursor);
      if (hi > start) {
        total += (hi - start).to_seconds();
        cursor = hi;
      }
    }
    return total;
  }
};

CriticalPathAnalyzer::CriticalPathAnalyzer(const EventLog& log) {
  analyze(log);
}

const CriticalPathAnalyzer::PerFunction* CriticalPathAnalyzer::find(
    FunctionId fn) const {
  const auto it = std::lower_bound(
      functions_.begin(), functions_.end(), fn,
      [](const PerFunction& pf, FunctionId id) { return pf.id < id; });
  return it != functions_.end() && it->id == fn ? &*it : nullptr;
}

void CriticalPathAnalyzer::analyze(const EventLog& log) {
  // Scratch timelines indexed by function id, as derive_spans keeps its
  // open phases: function ids are dense, and walking the vector visits
  // them in id order, the order functions_ and windows_ keep. A counting
  // pass sizes every function's run of three flat arrays (transitions,
  // windows, breaches), so the whole analysis takes a fixed number of
  // blocks, not a few per function.
  struct Counts {
    std::uint32_t transitions = 0;
    std::uint32_t windows = 0;
    std::uint32_t breaches = 0;
  };
  const auto resolves_window = [&log](const Event& event) {
    return event.kind() == EventKind::kRecovered &&
           event.cause() != kNoEvent && log.find(event.cause()) != nullptr;
  };
  std::vector<Counts> counts;
  Counts total;
  for (const Event& event : log) {
    const std::uint64_t fn = event.function().value();
    if (fn >= counts.size()) counts.resize(fn + 1);
    Counts& c = counts[fn];
    if (resolves_window(event)) {
      ++c.windows;
    } else if (event.kind() == EventKind::kSlaViolation) {
      ++c.breaches;
    } else if (state_for(event.kind()) != -2) {
      ++c.transitions;
    }
  }
  for (std::size_t fn = 1; fn < counts.size(); ++fn) {
    total.transitions += counts[fn].transitions;
    total.windows += counts[fn].windows;
    total.breaches += counts[fn].breaches;
  }
  std::vector<Transition> transitions(total.transitions);
  std::vector<Window> windows(total.windows);
  std::vector<TimePoint> breaches(total.breaches);
  // Each run starts empty at its offset and grows into the space the
  // counting pass left for it.
  std::vector<FunctionTimeline> timelines(counts.size());
  Counts offset;
  for (std::size_t fn = 1; fn < timelines.size(); ++fn) {
    FunctionTimeline& tl = timelines[fn];
    const Counts& c = counts[fn];
    tl.transitions = {transitions.data() + offset.transitions, 0};
    tl.windows = {windows.data() + offset.windows, 0};
    tl.breaches = {breaches.data() + offset.breaches, 0};
    offset.transitions += c.transitions;
    offset.windows += c.windows;
    offset.breaches += c.breaches;
  }

  for (const Event& event : log) {
    const FunctionId fn = event.function();
    if (!fn.valid()) continue;
    FunctionTimeline& tl = timelines[fn.value()];
    const TimePoint at = event.at();
    const EventKind kind = event.kind();
    if (tl.root == TimePoint::max()) tl.root = at;
    if (at > tl.last_seen) tl.last_seen = at;
    if (kind == EventKind::kComplete && tl.completed == TimePoint::max()) {
      tl.completed = at;
      tl.complete_trace = event.trace();
    }
    if ((kind == EventKind::kSubmit || kind == EventKind::kShed ||
         kind == EventKind::kQueued) &&
        tl.family.empty()) {
      tl.family = base_function_name(log.text(event.name()).view());
    }
    if (resolves_window(event)) {
      append(tl.windows, Window{log.find(event.cause())->at(), at});
      continue;
    }
    if (kind == EventKind::kSlaViolation) {
      append(tl.breaches, at);
      continue;
    }
    if (kind == EventKind::kHedgeCancelled) {
      tl.hedge_cancelled = true;
      continue;
    }
    const int state = state_for(kind);
    if (state == -2) continue;
    append(tl.transitions, Transition{at, state});
  }

  functions_.reserve(timelines.size());
  windows_.reserve(total.windows);
  breaches_.reserve(total.breaches);
  std::vector<Window> scratch;
  for (std::size_t id = 1; id < timelines.size(); ++id) {
    FunctionTimeline& tl = timelines[id];
    if (tl.transitions.empty()) continue;
    if (tl.family.empty()) tl.family = "unknown";
    const FunctionId fn{id};
    const TimePoint first = tl.transitions.front().first;

    PerFunction& pf = functions_.emplace_back();
    pf.id = fn;
    pf.family = tl.family;
    pf.root = tl.root;
    pf.completed = tl.completed;
    pf.trace = tl.complete_trace;
    pf.end_to_end = tl.accumulate(first, tl.last_seen, scratch);
    if (tl.hedge_cancelled) {
      // Every second a losing copy spent — launch, init, exec — was
      // speculation, not useful work. Collapsing the loser's whole
      // decomposition into the hedging component keeps family sums a
      // partition of wall time while making the hedge overhead visible.
      ComponentSums speculation;
      speculation[PathComponent::kHedging] = pf.end_to_end.total();
      pf.end_to_end = speculation;
    }

    for (const auto& [failed, recovered] : tl.windows) {
      RecoveryWindow window;
      window.function = fn;
      window.family = tl.family;
      window.failed = failed;
      window.recovered = recovered;
      window.components = tl.accumulate(failed, recovered, scratch);
      pf.recoveries += 1;
      pf.window_s += window.window().to_seconds();
      pf.recovery.merge(window.components);
      windows_.push_back(std::move(window));
    }

    for (const TimePoint breach : tl.breaches) {
      const ComponentSums to_breach = tl.accumulate(first, breach, scratch);
      breaches_.emplace_back(tl.family, to_breach.dominant());
    }
  }
}

BreakdownReport CriticalPathAnalyzer::report(std::uint64_t slo_targets) const {
  BreakdownReport out;
  out.slo_targets = slo_targets;
  for (const RecoveryWindow& window : windows_) {
    out.recovery_count += 1;
    out.recovery_window_s += window.window().to_seconds();
    out.recovery_components.merge(window.components);
  }
  for (const PerFunction& pf : functions_) {
    out.end_to_end_components.merge(pf.end_to_end);
    BreakdownReport::FunctionBreakdown& fb = out.per_function[pf.family];
    fb.functions += 1;
    fb.recoveries += pf.recoveries;
    fb.window_s += pf.window_s;
    fb.recovery_components.merge(pf.recovery);
    fb.end_to_end_components.merge(pf.end_to_end);
  }
  for (const auto& breach : breaches_) {
    out.slo_violations += 1;
    out.slo_breaches_by_component[std::string(to_string_view(breach.second))] +=
        1;
  }
  return out;
}

}  // namespace canary::obs

#include "obs/time_series.hpp"

#include <algorithm>
#include <set>

namespace canary::obs {

TimeSeries::Window& TimeSeries::window_at(TimePoint at) {
  const std::int64_t width = kTimeSeriesWindow.count_usec();
  std::int64_t start_us = (at.count_usec() / width) * width;
  if (at.count_usec() < 0) start_us = 0;  // defensive; sim time is >= 0

  if (windows_.empty()) {
    windows_.push_back(Window{TimePoint::from_usec(start_us), {}, {}, {}});
    return windows_.back();
  }

  // A timestamp before the oldest retained window folds into it rather
  // than resurrecting evicted history.
  if (start_us <= windows_.front().start.count_usec()) {
    return windows_.front();
  }

  // Append empty windows up to the target so the series has no gaps —
  // a window with zero completions is data, not absence of data.
  while (windows_.back().start.count_usec() < start_us) {
    const TimePoint next =
        TimePoint::from_usec(windows_.back().start.count_usec() + width);
    windows_.push_back(Window{next, {}, {}, {}});
    while (windows_.size() > kTimeSeriesMaxWindows) {
      windows_.pop_front();
      ++evicted_;
    }
  }
  return windows_.back();
}

TimeSeries derive_time_series(const EventLog& log,
                              const CriticalPathAnalyzer& paths,
                              std::size_t nodes) {
  TimeSeries series;
  std::set<FunctionId> hedged;  // functions that fired a hedge
  std::size_t down = 0;         // nodes failed or fenced so far
  for (const Event& event : log) {
    const TimePoint at = event.at();
    const auto count = [&](const char* stream) {
      series.window_at(at).counters[stream] += 1.0;
    };
    const auto sample = [&](const char* stream, TimePoint from) {
      series.window_at(at).samples[stream].record((at - from).to_seconds());
    };
    const auto node_lost = [&] {
      series.window_at(at).levels["nodes_up"] =
          static_cast<double>(nodes - ++down);
    };
    switch (event.kind()) {
      case EventKind::kShed: count("shed"); break;
      case EventKind::kLaunch: count("cold_starts"); break;
      case EventKind::kComplete:
        count("completions");
        if (const auto* pf = paths.find(event.function())) {
          sample("latency", pf->root);
        }
        break;
      case EventKind::kFailure: count("failures"); break;
      case EventKind::kDetect: count("detections"); break;
      case EventKind::kRecovered:
        count("recoveries");
        if (const Event* failure = log.find(event.cause())) {
          sample("recovery_time", failure->at());
        }
        break;
      case EventKind::kNodeFailure:
        count("node_failures");
        node_lost();
        break;
      case EventKind::kAnnotation:
        if (event.name() == Name::kNodeFenced) node_lost();
        break;
      case EventKind::kHedged:
        count("hedges_fired");
        hedged.insert(event.function());
        break;
      case EventKind::kHedgeCancelled:
        count(hedged.count(event.function()) > 0 ? "hedge_wins"
                                                 : "hedge_cancelled");
        break;
      default: break;
    }
  }
  return series;
}

void TimeSeries::merge(const TimeSeries& other) {
  evicted_ += other.evicted_;
  for (const Window& theirs : other.windows_) {
    auto it = std::find_if(windows_.begin(), windows_.end(),
                           [&](const Window& w) {
                             return w.start == theirs.start;
                           });
    if (it == windows_.end()) {
      // Keep windows_ sorted by start so serialisation stays ordered.
      auto pos = std::find_if(windows_.begin(), windows_.end(),
                              [&](const Window& w) {
                                return w.start > theirs.start;
                              });
      windows_.insert(pos, theirs);
      continue;
    }
    for (const auto& [name, value] : theirs.counters) {
      it->counters[name] += value;
    }
    for (const auto& [name, hist] : theirs.samples) {
      it->samples[name].merge(hist);
    }
    for (const auto& [name, value] : theirs.levels) {
      auto [lit, inserted] = it->levels.emplace(name, value);
      if (!inserted) lit->second = std::max(lit->second, value);
    }
  }
  while (windows_.size() > kTimeSeriesMaxWindows) {
    windows_.pop_front();
    ++evicted_;
  }
}

}  // namespace canary::obs

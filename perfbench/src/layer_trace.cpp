#include "layer_trace.hpp"

#include <utility>

#include "alloc_count.hpp"

namespace perfbench {

int SpanLog::begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), Clock::now(), {}, parent});
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  open_.pop_back();  // spans close innermost first
}

double SpanLog::duration_s(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return std::chrono::duration<double>(span.end - span.start).count();
}

double SpanLog::self_s(int id) const {
  double self = duration_s(id);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) self -= duration_s(static_cast<int>(i));
  }
  return self;
}

SeamClock::Scope::Scope(SeamClock& clock, SeamStats& stats) : clock_(clock) {
  clock_.stack_.push_back({&stats, Clock::now(), allocations_now()});
}

SeamClock::Scope::~Scope() {
  const Clock::time_point now = Clock::now();
  const std::uint64_t allocs = allocations_now();
  const Frame frame = clock_.stack_.back();
  clock_.stack_.pop_back();
  const std::int64_t total_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - frame.start)
          .count();
  const std::uint64_t total_allocs = allocs - frame.allocs_start;
  frame.stats->calls += 1;
  frame.stats->self_ns += total_ns - frame.child_ns;
  frame.stats->allocs += total_allocs - frame.child_allocs;
  if (clock_.stack_.empty()) {
    clock_.top_level_ns_ += total_ns;
  } else {
    clock_.stack_.back().child_ns += total_ns;
    clock_.stack_.back().child_allocs += total_allocs;
  }
}

}  // namespace perfbench

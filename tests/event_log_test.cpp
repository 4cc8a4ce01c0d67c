// EventLog storage: compact records in chunks, names, the capacity cap,
// and what recording and exporting cost in allocations.
//
// This binary replaces the global operator new with a counting one (as
// bench/scale_stress.cpp does), so the allocation tests count every heap
// block the log and the trace exporter take, exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "obs/span.hpp"
#include "obs/time_series.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  if (void* p = std::aligned_alloc(al, rounded != 0 ? rounded : al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace canary {
namespace {

using obs::Event;
using obs::EventId;
using obs::EventKind;
using obs::EventLog;
using obs::Name;

static_assert(sizeof(Event) <= 48);
static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(obs::Span) <= 48);
static_assert(std::is_trivially_copyable_v<obs::Span>);

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

TimePoint at_us(std::int64_t usec) { return TimePoint::from_usec(usec); }

obs::SpanLabels labels_of(std::uint64_t function, int attempt = 1) {
  return obs::SpanLabels{JobId{1}, FunctionId{function},
                         ContainerId{function + 100}, NodeId{3}, attempt};
}

std::string text_of(const EventLog& log, Name name) {
  return std::string(log.text(name).view());
}

TEST(EventLogStorageTest, FindRebindAndIterationAcrossAChunkBoundary) {
  constexpr std::size_t kEvents = EventLog::kChunkEvents + 8;
  EventLog log;
  obs::TraceContext ctx{log.new_trace()};
  for (std::size_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(log.extend(ctx, EventKind::kStateCommit, Name::state(i),
                         at_us(static_cast<std::int64_t>(i)), labels_of(i + 1)),
              i);
  }
  ASSERT_EQ(log.size(), kEvents);

  // The last id of the first chunk and the first of the second.
  const EventId last_of_first = EventLog::kChunkEvents - 1;
  const EventId first_of_second = EventLog::kChunkEvents;
  for (const EventId id : {EventId{0}, last_of_first, first_of_second,
                           static_cast<EventId>(kEvents - 1)}) {
    const Event* event = log.find(id);
    ASSERT_NE(event, nullptr) << id;
    EXPECT_EQ(event->id(), id);
    EXPECT_EQ(event->at(), at_us(id));
    EXPECT_EQ(event->function(), FunctionId{id + 1});
    EXPECT_EQ(event->labels().container, ContainerId{id + 101});
    EXPECT_EQ(event->parent(), id == 0 ? obs::kNoEvent : id - 1);
    EXPECT_EQ(text_of(log, event->name()), "state_" + std::to_string(id));
  }
  EXPECT_EQ(log.find(static_cast<EventId>(kEvents)), nullptr);
  EXPECT_EQ(log.find(obs::kNoEvent), nullptr);

  // A record keeps its address as later chunks arrive.
  const Event* pinned = log.find(last_of_first);
  log.extend(ctx, EventKind::kComplete, Name::kComplete, at_us(1 << 20));
  EXPECT_EQ(log.find(last_of_first), pinned);

  // Rebinding either side of the boundary touches that record only.
  const obs::TraceId other = log.new_trace();
  log.rebind(last_of_first, other, 7);
  log.rebind(first_of_second, other, 8);
  EXPECT_EQ(log.find(last_of_first)->trace(), other);
  EXPECT_EQ(log.find(last_of_first)->parent(), 7u);
  EXPECT_EQ(log.find(first_of_second)->trace(), other);
  EXPECT_EQ(log.find(first_of_second)->parent(), 8u);
  EXPECT_EQ(log.find(last_of_first - 1)->trace(), ctx.trace);
  EXPECT_EQ(log.find(first_of_second + 1)->trace(), ctx.trace);
  log.rebind(static_cast<EventId>(log.size()), other, 9);  // no such event

  // Iteration visits every id once, in order, across the boundary.
  EventId expected = 0;
  for (const Event& event : log) {
    ASSERT_EQ(event.id(), expected);
    ++expected;
  }
  EXPECT_EQ(expected, log.size());
}

TEST(EventLogStorageTest, CheckpointWindowSharesTheCauseSlot) {
  EventLog log;
  obs::TraceContext ctx{log.new_trace()};
  const EventId commit = log.extend(ctx, EventKind::kStateCommit,
                                    Name::state(4), at_us(900), labels_of(1));
  const EventId checkpoint = log.append_checkpoint(
      ctx, 4, at_us(900), labels_of(1), Duration::usec(250));
  const EventId recovered = log.extend(ctx, EventKind::kRecovered,
                                       Name::kRecovered, at_us(950),
                                       labels_of(1), commit);
  const Event& cp = *log.find(checkpoint);
  EXPECT_EQ(cp.kind(), EventKind::kCheckpoint);
  EXPECT_EQ(cp.window(), Duration::usec(250));
  EXPECT_EQ(cp.cause(), obs::kNoEvent);
  EXPECT_EQ(cp.parent(), commit);
  EXPECT_EQ(text_of(log, cp.name()), "checkpoint_4");
  // A leaf: the chain continues from the commit.
  EXPECT_EQ(log.find(recovered)->parent(), commit);
  EXPECT_EQ(log.find(recovered)->cause(), commit);
  EXPECT_EQ(log.find(recovered)->window(), Duration::zero());
}

TEST(EventLogCapTest, DropsAreCountedPerKindAndWarnedOncePerKind) {
  const LogLevel threshold = log_threshold();
  set_log_threshold(LogLevel::kWarn);
  std::vector<std::string> warnings;
  {
    ScopedLogMirror mirror([&](LogLevel, const std::string& msg) {
      warnings.push_back(msg);
    });
    EventLog log(3);
    obs::TraceContext ctx{log.new_trace()};
    for (int i = 0; i < 3; ++i) {
      EXPECT_NE(log.extend(ctx, EventKind::kExec, Name::kExec, at_us(i)),
                obs::kNoEvent);
    }
    EXPECT_TRUE(warnings.empty());
    EXPECT_FALSE(log.truncated());
    const EventId last = ctx.last;

    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(log.extend(ctx, EventKind::kStateCommit, Name::state(0),
                           at_us(10 + i)),
                obs::kNoEvent);
    }
    EXPECT_EQ(log.append_checkpoint(ctx, 0, at_us(20), {}, Duration::usec(5)),
              obs::kNoEvent);
    EXPECT_EQ(log.append_raw(log.new_trace(), obs::kNoEvent,
                             EventKind::kAnnotation, log.intern("late note"),
                             at_us(30)),
              obs::kNoEvent);
    EXPECT_EQ(ctx.last, last);  // extend leaves the context where it was
    EXPECT_EQ(log.size(), 3u);
    EXPECT_TRUE(log.truncated());
    EXPECT_EQ(log.dropped(), 6u);
    EXPECT_EQ(log.dropped_of(EventKind::kStateCommit), 4u);
    EXPECT_EQ(log.dropped_of(EventKind::kCheckpoint), 1u);
    EXPECT_EQ(log.dropped_of(EventKind::kAnnotation), 1u);
    EXPECT_EQ(log.dropped_of(EventKind::kExec), 0u);
    // A full log copies no more text: interning yields the empty name.
    EXPECT_EQ(log.intern("never stored"), Name{});
  }
  set_log_threshold(threshold);
  // One warning per dropped kind, each naming its kind.
  ASSERT_EQ(warnings.size(), 3u);
  EXPECT_NE(warnings[0].find("'state_commit'"), std::string::npos);
  EXPECT_NE(warnings[1].find("'checkpoint'"), std::string::npos);
  EXPECT_NE(warnings[2].find("'annotation'"), std::string::npos);
}

TEST(EventLogNameTest, EveryKindsNameRoundTrips) {
  // One event per kind, named as its producers name it: literals, the
  // indexed state and checkpoint names, function names and freeform text.
  EventLog log;
  obs::TraceContext ctx{log.new_trace()};
  const std::string function_name = "web-service-1234";  // past SSO
  const std::string note = "warn: node 7 heartbeat \"late\" by 1.5 s";
  struct Case {
    EventKind kind;
    Name name;
    std::string text;
  };
  const Case cases[] = {
      {EventKind::kSubmit, log.intern(function_name), function_name},
      {EventKind::kLaunch, Name::kLaunch, "launch"},
      {EventKind::kInit, Name::kInit, "init"},
      {EventKind::kRestore, Name::kWarmDispatch, "warm_dispatch"},
      {EventKind::kExec, Name::kExec, "exec"},
      {EventKind::kStateCommit, Name::state(41), "state_41"},
      {EventKind::kCheckpoint, Name::checkpoint(41), "checkpoint_41"},
      {EventKind::kFinalize, Name::kFinalize, "finalize"},
      {EventKind::kComplete, Name::kComplete, "complete"},
      {EventKind::kFailure, Name::kContainerKill, "container_kill"},
      {EventKind::kNodeFailure, Name::kNodeFailure, "node_failure"},
      {EventKind::kDetect, Name::kDetect, "detect"},
      {EventKind::kRecoveryAction, Name::kReplicaRecovery, "replica_recovery"},
      {EventKind::kRecovered, Name::kRecovered, "recovered"},
      {EventKind::kReplica, Name::kReplicaProvision, "replica_provision"},
      {EventKind::kSlaViolation, Name::kSlaViolation, "sla_violation"},
      {EventKind::kAnnotation, log.intern(note), note},
      {EventKind::kQueued, log.intern(function_name), function_name},
      {EventKind::kShed, log.intern("web-service-7"), "web-service-7"},
      {EventKind::kHedged, Name::kHedged, "hedged"},
      {EventKind::kHedgeCancelled, Name::kHedgeCancelled, "hedge_cancelled"},
  };
  ASSERT_EQ(std::size(cases), obs::kEventKindCount);
  for (std::size_t k = 0; k < std::size(cases); ++k) {
    ASSERT_EQ(static_cast<std::size_t>(cases[k].kind), k);
    const EventId id =
        cases[k].kind == EventKind::kCheckpoint
            ? log.append_checkpoint(ctx, 41, at_us(10), labels_of(1),
                                    Duration::usec(3))
            : log.extend(ctx, cases[k].kind, cases[k].name, at_us(10),
                         labels_of(1));
    const Event& event = *log.find(id);
    EXPECT_EQ(event.kind(), cases[k].kind);
    EXPECT_EQ(event.name(), cases[k].name) << cases[k].text;
    EXPECT_EQ(text_of(log, event.name()), cases[k].text);
  }

  // The exporter writes the same text, escaped.
  std::ostringstream trace;
  obs::write_chrome_trace(trace, nullptr, &log);
  EXPECT_NE(trace.str().find("\"name\":\"web-service-1234\""),
            std::string::npos);
  EXPECT_NE(trace.str().find("\"name\":\"checkpoint_41\""), std::string::npos);
  EXPECT_NE(
      trace.str().find(R"("name":"warn: node 7 heartbeat \"late\" by 1.5 s")"),
      std::string::npos);

  // Interning a literal's text yields the literal itself; every literal
  // renders to text that interns back to it.
  EXPECT_EQ(log.intern("node_fenced"), Name{Name::kNodeFenced});
  for (std::uint32_t l = 0; l < Name::kLiteralCount; ++l) {
    const Name literal{static_cast<Name::Literal>(l)};
    const std::string text = text_of(log, literal);
    EXPECT_EQ(Name::literal(text), literal) << text;
    EXPECT_EQ(obs::render(literal, nullptr).view(), text);
  }
  EXPECT_EQ(text_of(log, Name{}), "");
  EXPECT_EQ(text_of(log, Name::state(0)), "state_0");
  EXPECT_EQ(text_of(log, Name::checkpoint(1073741823)),
            "checkpoint_1073741823");
}

TEST(EventLogNameTest, ArenaTextLongerThanAChunkGetsItsOwn) {
  EventLog log;
  const std::string small = "fn-1";
  const std::string huge(200'000, 'x');
  const Name a = log.intern(small);
  const Name b = log.intern(huge);
  const Name c = log.intern(small + "2");
  EXPECT_EQ(text_of(log, a), small);
  EXPECT_EQ(text_of(log, b), huge);
  EXPECT_EQ(text_of(log, c), small + "2");
}

TEST(EventLogAllocationTest, OneBlockPerChunkPlusTheNameArena) {
  // A million events shaped like a Canary run: per invocation a submit
  // named after its function, launch/init/exec, ten state commits, each
  // with its checkpoint, then finalize and complete (26 events).
  constexpr std::size_t kEvents = std::size_t{1} << 20;
  EventLog log;  // the chunk directory is reserved here, at construction
  std::string name;
  name.reserve(64);  // the caller's buffer: reused, never reallocated
  std::uint64_t arena_bytes = 0;

  const std::uint64_t before = allocations_now();
  std::uint64_t functions = 0;
  while (log.size() + 26 <= kEvents) {
    ++functions;
    name.assign("web-service-");
    name += std::to_string(functions);  // short enough for the SSO buffer
    obs::TraceContext ctx{log.new_trace()};
    const obs::SpanLabels labels = labels_of(functions);
    log.extend(ctx, EventKind::kSubmit, log.intern(name), at_us(0), labels);
    arena_bytes += sizeof(std::uint32_t) + name.size();
    log.extend(ctx, EventKind::kLaunch, Name::kLaunch, at_us(1), labels);
    log.extend(ctx, EventKind::kInit, Name::kInit, at_us(2), labels);
    log.extend(ctx, EventKind::kExec, Name::kExec, at_us(3), labels);
    for (std::size_t s = 0; s < 10; ++s) {
      log.extend(ctx, EventKind::kStateCommit, Name::state(s), at_us(4),
                 labels);
      log.append_checkpoint(ctx, s, at_us(4), labels, Duration::usec(1));
    }
    log.extend(ctx, EventKind::kFinalize, Name::kFinalize, at_us(5), labels);
    log.extend(ctx, EventKind::kComplete, Name::kComplete, at_us(6), labels);
  }
  const std::uint64_t recorded = allocations_now() - before;
  EXPECT_EQ(log.dropped(), 0u);

  const std::uint64_t chunks =
      (log.size() + EventLog::kChunkEvents - 1) / EventLog::kChunkEvents;
  // Arena chunks: 64 KiB each, at most one name's bytes wasted per chunk;
  // their directory grows geometrically.
  const std::uint64_t arena_chunks = arena_bytes / (65536 - 32) + 1;
  std::uint64_t directory_growth = 1;
  while ((std::uint64_t{1} << directory_growth) < arena_chunks) {
    ++directory_growth;
  }
  EXPECT_LE(recorded, chunks + arena_chunks + directory_growth + 1)
      << recorded << " allocations for " << log.size() << " events in "
      << chunks << " chunks, " << arena_bytes << " arena bytes";
  EXPECT_GE(recorded, chunks);  // each chunk is one block

  // Steady state: inside a chunk, recording allocates nothing.
  EventLog steady;
  obs::TraceContext ctx{steady.new_trace()};
  steady.extend(ctx, EventKind::kExec, Name::kExec, at_us(0));  // chunk 0
  const std::uint64_t start = allocations_now();
  for (std::size_t i = 1; i < EventLog::kChunkEvents; ++i) {
    steady.extend(ctx, EventKind::kStateCommit, Name::state(i), at_us(1));
  }
  EXPECT_EQ(allocations_now() - start, 0u);
}

/// Counts the bytes written to it and keeps none.
class CountingNullBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }

 private:
  std::uint64_t bytes_ = 0;
};

/// The series of a log with `windows` one-second windows, each holding a
/// node failure, a failure recovered 200 ms later and a lost hedge race:
/// the streams whose counter-track names ("ts.node_failures",
/// "ts.hedge_cancelled", "ts.recovery_time.p99") are too long for a
/// string's inline buffer.
obs::TimeSeries series_with_windows(EventLog& log, std::size_t windows) {
  for (std::size_t w = 0; w < windows; ++w) {
    const std::int64_t start = static_cast<std::int64_t>(w) * 1'000'000;
    const obs::SpanLabels labels = labels_of(w + 1);
    obs::TraceContext ctx{log.new_trace()};
    log.extend(ctx, EventKind::kSubmit, Name::kUnnamed, at_us(start), labels);
    const EventId failure = log.extend(ctx, EventKind::kFailure,
                                       Name::kContainerKill,
                                       at_us(start + 100'000), labels);
    log.extend(ctx, EventKind::kRecovered, Name::kRecovered,
               at_us(start + 300'000), labels, failure);
    log.extend(ctx, EventKind::kHedgeCancelled, Name::kHedgeCancelled,
               at_us(start + 400'000), labels);
    log.append_raw(obs::TraceId::invalid(), obs::kNoEvent,
                   EventKind::kNodeFailure, Name::kNodeFailure,
                   at_us(start + 500'000), labels);
  }
  return obs::derive_time_series(log, obs::CriticalPathAnalyzer(log),
                                 /*nodes=*/2 * windows);
}

TEST(ChromeTraceAllocationTest, CounterTracksAllocateNothingPerSample) {
  EventLog one_log;
  EventLog full_log;
  const obs::TimeSeries one = series_with_windows(one_log, 1);
  const obs::TimeSeries full =
      series_with_windows(full_log, obs::kTimeSeriesMaxWindows);
  ASSERT_EQ(one.windows().size(), 1u);
  ASSERT_EQ(full.windows().size(), obs::kTimeSeriesMaxWindows);
  for (const char* stream : {"node_failures", "hedge_cancelled"}) {
    ASSERT_EQ(full.windows().back().counters.count(stream), 1u) << stream;
  }
  ASSERT_EQ(full.windows().back().samples.count("recovery_time"), 1u);

  CountingNullBuf sink;
  std::ostream out(&sink);
  const auto blocks = [&](const obs::TimeSeries& series) {
    const std::uint64_t before = allocations_now();
    obs::write_chrome_trace(out, nullptr, nullptr, &series);
    return allocations_now() - before;
  };
  const std::uint64_t one_blocks = blocks(one);
  const std::uint64_t one_bytes = sink.bytes();
  const std::uint64_t full_blocks = blocks(full);
  const std::uint64_t full_bytes = sink.bytes() - one_bytes;
  // 512 windows of samples cost no block more than one window's.
  EXPECT_GT(full_bytes, 100 * one_bytes);
  EXPECT_EQ(full_blocks, one_blocks);
}

}  // namespace
}  // namespace canary

// Leveled logging to stderr. Disabled below the compile/runtime threshold;
// experiments run with kWarn so hot paths stay quiet.
//
// Two thread-local hooks tie the log into a running simulation (a run
// lives on one thread and restores the previous hooks when it ends, so
// hooks never leak across runs):
//   * ScopedLogClock prefixes every record with the simulated time
//     ("[t=12.345678s]") while a run is active;
//   * ScopedLogMirror copies kWarn+ records to a sink — the scenario
//     runner mirrors them into the run's causal EventLog as annotation
//     events, so warnings appear on the trace timeline.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace canary {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide log threshold. Tests flip this to kTrace to assert on
/// messages; the harness leaves it at kWarn.
LogLevel log_threshold();
void set_log_threshold(LogLevel level);

/// RAII: while alive, log records emitted from this thread carry a
/// "[t=<seconds>s]" prefix computed from `now_usec`.
class ScopedLogClock {
 public:
  using Provider = std::function<std::int64_t()>;
  explicit ScopedLogClock(Provider now_usec);
  ~ScopedLogClock();
  ScopedLogClock(const ScopedLogClock&) = delete;
  ScopedLogClock& operator=(const ScopedLogClock&) = delete;

 private:
  Provider previous_;
};

/// RAII: while alive, kWarn+ records emitted from this thread are also
/// passed to `sink` (after stderr emission; same thread, same order).
class ScopedLogMirror {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;
  explicit ScopedLogMirror(Sink sink);
  ~ScopedLogMirror();
  ScopedLogMirror(const ScopedLogMirror&) = delete;
  ScopedLogMirror& operator=(const ScopedLogMirror&) = delete;

 private:
  Sink previous_;
};

namespace detail {
void log_emit(LogLevel level, const char* file, int line, const std::string& msg);
/// "[t=1.500000s] " when a ScopedLogClock is active on this thread,
/// "" otherwise. Exposed for tests.
std::string log_time_prefix();
}  // namespace detail

#define CANARY_LOG(level, expr)                                         \
  do {                                                                  \
    if (level >= ::canary::log_threshold()) {                           \
      std::ostringstream canary_log_oss;                                \
      canary_log_oss << expr;                                           \
      ::canary::detail::log_emit(level, __FILE__, __LINE__,             \
                                 canary_log_oss.str());                 \
    }                                                                   \
  } while (0)

#define CANARY_LOG_DEBUG(expr) CANARY_LOG(::canary::LogLevel::kDebug, expr)
#define CANARY_LOG_INFO(expr) CANARY_LOG(::canary::LogLevel::kInfo, expr)
#define CANARY_LOG_WARN(expr) CANARY_LOG(::canary::LogLevel::kWarn, expr)
#define CANARY_LOG_ERROR(expr) CANARY_LOG(::canary::LogLevel::kError, expr)

}  // namespace canary

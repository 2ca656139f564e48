// Lightweight leveled logging.
//
// The simulator's services (detection, mitigation, monitoring) log against
// simulated time rather than wall-clock time, so the Logger takes an
// optional SimTime with every record. Output goes to a configurable sink
// (stderr by default); tests install a capturing sink.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

#include "util/time.hpp"

namespace artemis {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

std::string_view to_string(LogLevel level);

/// Process-wide logging configuration. Not thread-safe by design: it is
/// set once at startup, and the simulator that logs through it runs on
/// one thread.
class Logging {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static LogLevel threshold();
  static void set_threshold(LogLevel level);

  /// Replaces the sink; returns the previous one so tests can restore it.
  static Sink set_sink(Sink sink);

  static void emit(LogLevel level, SimTime when, std::string_view component,
                   const std::string& message);

 private:
  static Sink& sink_ref();
  static LogLevel& threshold_ref();
};

/// Builder used by the LOG_AT macro; accumulates a message via operator<<.
class LogRecord {
 public:
  LogRecord(LogLevel level, SimTime when, std::string_view component)
      : level_(level), when_(when), component_(component) {}
  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;
  ~LogRecord() { Logging::emit(level_, when_, component_, stream_.str()); }

  template <typename T>
  LogRecord& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  SimTime when_;
  std::string_view component_;
  std::ostringstream stream_;
};

}  // namespace artemis

/// Logs `expr...` at simulated time `when` for `component` if `level` passes
/// the threshold. Example:
///   ARTEMIS_LOG(kInfo, now, "detection") << "hijack of " << prefix;
#define ARTEMIS_LOG(level, when, component)                            \
  if (::artemis::LogLevel::level < ::artemis::Logging::threshold()) { \
  } else                                                               \
    ::artemis::LogRecord(::artemis::LogLevel::level, (when), (component))

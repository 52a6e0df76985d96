// Minimal logging and invariant-checking facilities.
//
// SCREP_CHECK aborts the process on violated invariants (programming
// errors); operational failures are reported through Status instead.

#ifndef SCREP_COMMON_LOGGING_H_
#define SCREP_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace screp {

/// Severity of a log line.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

namespace internal {

/// True when `level` is at or above the global threshold.
bool LogEnabled(LogLevel level);

/// Emits one formatted log line to stderr if `level` is at or above the
/// global threshold.
void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message);

/// Aborts the process after printing the failed condition.
[[noreturn]] void CheckFailed(const char* file, int line,
                              const char* condition,
                              const std::string& message);

/// Stream-style collector used by the logging macros.
class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// Turns a whole `LogStream << ...` chain into a void expression, so
/// SCREP_LOG can sit in the false arm of a conditional (`&` binds looser
/// than `<<`).
struct LogVoidify {
  void operator&(const LogStream&) {}
};

}  // namespace internal

/// Sets the minimum severity that is actually emitted (default kWarn, so
/// library code is quiet unless something is wrong).
void SetLogLevel(LogLevel level);

/// Returns the current minimum emitted severity.
LogLevel GetLogLevel();

}  // namespace screp

// A suppressed level costs one threshold check: the stream is never built
// and the operands after `<<` are never evaluated.
#define SCREP_LOG(level)                                                    \
  !::screp::internal::LogEnabled(::screp::LogLevel::level)                 \
      ? (void)0                                                             \
      : ::screp::internal::LogVoidify() &                                   \
            ::screp::internal::LogStream(::screp::LogLevel::level,          \
                                         __FILE__, __LINE__)

#define SCREP_CHECK(condition)                                              \
  do {                                                                      \
    if (!(condition)) {                                                     \
      ::screp::internal::CheckFailed(__FILE__, __LINE__, #condition, "");   \
    }                                                                       \
  } while (0)

#define SCREP_CHECK_MSG(condition, msg)                                     \
  do {                                                                      \
    if (!(condition)) {                                                     \
      std::ostringstream _oss;                                              \
      _oss << msg;                                                          \
      ::screp::internal::CheckFailed(__FILE__, __LINE__, #condition,        \
                                     _oss.str());                           \
    }                                                                       \
  } while (0)

#endif  // SCREP_COMMON_LOGGING_H_

#pragma once
// Minimal thread-safe leveled logger.
//
// The simulated MPI runtime runs hundreds of ranks on several worker
// threads; interleaved unsynchronized writes to stderr are unreadable, so
// all diagnostics funnel through here.  Logging is off by default (level Warn) — benches and tests
// raise it via FTR_LOG=debug or Logger::set_level().

#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace ftr {

enum class LogLevel : int { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

class Logger {
 public:
  /// Global logger used by the whole library.
  static Logger& instance();

  void set_level(LogLevel lvl) noexcept { level_ = lvl; }
  [[nodiscard]] LogLevel level() const noexcept { return level_; }
  [[nodiscard]] bool enabled(LogLevel lvl) const noexcept {
    return static_cast<int>(lvl) >= static_cast<int>(level_);
  }

  /// Write one line (a newline is appended).  Thread safe.
  void log(LogLevel lvl, std::string_view msg);

 private:
  Logger();
  std::mutex mu_;
  LogLevel level_ = LogLevel::Warn;
};

/// Parse "trace|debug|info|warn|error|off" (case-insensitive); defaults to Warn.
LogLevel parse_log_level(std::string_view s) noexcept;

namespace detail {
std::string format_log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
}  // namespace detail

}  // namespace ftr

// printf-style logging macros; the format work is skipped when disabled.
#define FTR_LOG_AT(lvl, ...)                                            \
  do {                                                                  \
    if (::ftr::Logger::instance().enabled(lvl)) {                       \
      ::ftr::Logger::instance().log(lvl, ::ftr::detail::format_log(__VA_ARGS__)); \
    }                                                                   \
  } while (0)

#define FTR_TRACE(...) FTR_LOG_AT(::ftr::LogLevel::Trace, __VA_ARGS__)
#define FTR_DEBUG(...) FTR_LOG_AT(::ftr::LogLevel::Debug, __VA_ARGS__)
#define FTR_INFO(...) FTR_LOG_AT(::ftr::LogLevel::Info, __VA_ARGS__)
#define FTR_WARN(...) FTR_LOG_AT(::ftr::LogLevel::Warn, __VA_ARGS__)
#define FTR_ERROR(...) FTR_LOG_AT(::ftr::LogLevel::Error, __VA_ARGS__)

#include "simkern/log.hpp"

#include <cstdio>

#include "simkern/scheduler.hpp"

namespace optsync::sim {

void Logger::log(LogLevel lvl, std::string_view msg) {
  if (!enabled(lvl)) return;
  static constexpr const char* kNames[] = {"TRACE", "DEBUG", "INFO",
                                           "WARN", "ERROR", "OFF"};
  std::string line;
  if (clock_ != nullptr) {
    line += '[';
    line += format_time(clock_->now());
    line += "] ";
  }
  line += kNames[static_cast<int>(lvl)];
  line += " ";
  line += msg;
  if (sink_) {
    sink_(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

Logger& Logger::global() {
  static Logger instance;
  return instance;
}

}  // namespace optsync::sim

#include "src/common/logging.hpp"

#include <atomic>
#include <cstdio>
#include <string>

#include "src/common/config.hpp"
#include "src/common/thread_annotations.hpp"

namespace ftpim {
namespace {

// Log threshold. Lock-free: relaxed is sufficient because the level is a
// standalone filter — no other data is published through it.
std::atomic<int> g_level{-1};  // -1 = not yet initialized from env

// Serializes sink invocation (line-granularity interleaving guarantee) and
// guards the sink registration below.
Mutex g_mutex;
LogSink g_sink FTPIM_GUARDED_BY(g_mutex) = nullptr;
void* g_sink_user FTPIM_GUARDED_BY(g_mutex) = nullptr;

LogLevel level_from_env() {
  const std::string env = env_string("FTPIM_LOG", "info");
  if (env == "debug") return LogLevel::kDebug;
  if (env == "warn") return LogLevel::kWarn;
  if (env == "error") return LogLevel::kError;
  if (env == "off") return LogLevel::kOff;
  return LogLevel::kInfo;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}

}  // namespace

LogLevel log_level() noexcept {
  int lv = g_level.load(std::memory_order_relaxed);
  if (lv < 0) {
    lv = static_cast<int>(level_from_env());
    g_level.store(lv, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(lv);
}

void set_log_level(LogLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void set_log_sink(LogSink sink, void* user) noexcept {
  const MutexLock lock(g_mutex);
  g_sink = sink;
  g_sink_user = user;
}

namespace detail {
void log_line(LogLevel level, const std::string& msg) {
  const MutexLock lock(g_mutex);
  if (g_sink != nullptr) {
    g_sink(level, msg, g_sink_user);
    return;
  }
  std::fprintf(stderr, "[ftpim %s] %s\n", level_tag(level), msg.c_str());
}
}  // namespace detail

}  // namespace ftpim

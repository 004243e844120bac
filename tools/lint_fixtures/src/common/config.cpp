// Lint fixture: the one file allowed to read the environment. Must stay
// clean under raw-getenv (allowlist canary). NOT COMPILED.
#include <cstdlib>
#include <string>

namespace ftpim_fixture {

std::string env_string(const char* name, const std::string& fallback) {
  const char* env = std::getenv(name);
  return env == nullptr || *env == '\0' ? fallback : std::string(env);
}

}  // namespace ftpim_fixture

// Lint fixture: library code reading the environment directly, with its own
// lenient fallback. Must trigger raw-getenv. NOT COMPILED.
#include <cstdlib>
#include <string>

namespace ftpim_fixture {

int worker_count() {
  const char* env = std::getenv("FTPIM_THREADS");
  return env != nullptr ? std::atoi(env) : 1;
}

}  // namespace ftpim_fixture

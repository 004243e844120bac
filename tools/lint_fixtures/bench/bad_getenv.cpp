// Lint fixture: a bench main reading a knob with unqualified getenv. Must
// trigger raw-getenv. NOT COMPILED.
#include <stdlib.h>

int main() {
  const char* reqs = getenv("FTPIM_REQS");
  return reqs != nullptr ? 0 : 1;
}

// Lint fixture: a fixed name joined onto gtest's shared TempDir() — two
// concurrent ctest cases would write and delete the same file. Must trigger
// fixed-temp-path. NOT COMPILED.
#include <gtest/gtest.h>

#include <string>

namespace ftpim_fixture {

std::string checkpoint_path() {
  return ::testing::TempDir() + "/ftpim_integration_ckpt.bin";
}

std::string wrapped_path() {
  return testing::TempDir() +
         std::string("ftpim_wrapped.bin");
}

}  // namespace ftpim_fixture

// Lint fixture: the same fixed temp-dir name, wrapped by a formatter across
// two lines. Must trigger fixed-temp-path. NOT COMPILED.
#include <filesystem>

namespace ftpim_fixture {

std::filesystem::path checkpoint_dir() {
  return std::filesystem::temp_directory_path() /
         "ftpim_ckpt_test";
}

}  // namespace ftpim_fixture

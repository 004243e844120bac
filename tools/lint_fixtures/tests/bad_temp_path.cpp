// Lint fixture: fixed names under the temp dir in a test — two concurrent
// ctest cases would share these paths and delete each other's files.
// Must trigger fixed-temp-path. NOT COMPILED.
#include <filesystem>
#include <string>

namespace ftpim_fixture {

std::string fixture_dir() {
  return (std::filesystem::temp_directory_path() / "ftpim_cifar_fixture").string();
}

std::string fixture_file() {
  return std::filesystem::temp_directory_path().string() + "/ftpim_roundtrip.bin";
}

}  // namespace ftpim_fixture

// Lint fixture: a per-case scratch directory built from a computed name —
// the linter must stay silent here. A comment may say
// temp_directory_path() / "fixed" freely. NOT COMPILED.
#include <filesystem>
#include <string>

namespace ftpim_fixture {

std::filesystem::path scratch(const std::string& unique_name) {
  return std::filesystem::temp_directory_path() / unique_name;
}

}  // namespace ftpim_fixture

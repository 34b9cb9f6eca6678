// Byte-exact golden-file tests for the rendered paper figures: Figure 2
// (LEBench attribution), Figure 3 (Octane attribution), §4.4 (VM workloads)
// and §4.5 (PARSEC). Each test runs the real `spectrebench` binary and
// compares its stdout against one file under tests/golden/.
//
// The rendered tables are pinned rather than the `%.17g` sweep JSON: the
// tables round every number to a fixed precision, while the full-precision
// JSON carries the last bits of libm `log`/`exp` and would differ between
// hosts. Regenerate after an intentional model or format change with
//   SPECBENCH_REGEN_GOLDEN=1 ./figures_golden_test
// and review the diff — a changed byte means a changed overhead, never noise.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace specbench {
namespace {

std::string GoldenPath(const std::string& name) {
  return (std::filesystem::path(SPECBENCH_TEST_SOURCE_DIR) / "golden" / name).string();
}

std::string CheckAgainstGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("SPECBENCH_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    return actual;
  }
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path
                         << " (regenerate with SPECBENCH_REGEN_GOLDEN=1)";
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Runs `spectrebench <args>` and returns its stdout; the exit code must be 0.
std::string RunCli(const std::string& args) {
  const std::string command = std::string(SPECBENCH_CLI_PATH) + " " + args + " 2>/dev/null";
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) {
    return output;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << command;
  return output;
}

TEST(FiguresGolden, Figure2FastMatchesGoldenFile) {
  const std::string actual = RunCli("fig2 --fast --cpus='Broadwell,Zen 3'");
  EXPECT_EQ(actual, CheckAgainstGolden(actual, "fig2_fast.txt"));
}

TEST(FiguresGolden, Figure3MatchesGoldenFile) {
  const std::string actual = RunCli("fig3");
  EXPECT_EQ(actual, CheckAgainstGolden(actual, "fig3.txt"));
}

TEST(FiguresGolden, Section45MatchesGoldenFile) {
  const std::string actual = RunCli("sec45");
  EXPECT_EQ(actual, CheckAgainstGolden(actual, "sec45.txt"));
}

TEST(FiguresGolden, Section44MatchesGoldenFile) {
  const std::string actual = RunCli("sec44 --cpus='Broadwell,Zen 3'");
  EXPECT_EQ(actual, CheckAgainstGolden(actual, "sec44.txt"));
}

}  // namespace
}  // namespace specbench

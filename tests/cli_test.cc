// Golden tests for the CLI's argument validation: strict --seeds=A:B and
// numeric-flag parsing, per-subcommand flag allowlists, and the
// unknown-command path — plus smoke tests that every table/figure command
// runs. Each case runs the real spectrebench binary (SPECBENCH_CLI_PATH,
// injected by CMake) as a subprocess and asserts on the exit code and the
// exact diagnostic text — the error strings are part of the user interface,
// so changes to them must be deliberate.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace specbench {
namespace {

struct RunOutput {
  int exit_code = -1;
  std::string output;  // stderr + stdout, interleaved
};

RunOutput RunCli(const std::string& args) {
  const std::string command = std::string(SPECBENCH_CLI_PATH) + " " + args + " 2>&1";
  RunOutput result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// --- Strict --seeds=A:B validation ----------------------------------------

TEST(CliSeeds, RejectsReversedRange) {
  const RunOutput r = RunCli("difftest --seeds=5:2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=5:2: empty range (B must be greater than A)\n");
}

TEST(CliSeeds, RejectsEmptyRange) {
  const RunOutput r = RunCli("difftest --seeds=2:2");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=2:2: empty range (B must be greater than A)\n");
}

TEST(CliSeeds, RejectsNonNumericBegin) {
  const RunOutput r = RunCli("difftest --seeds=abc:5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=abc:5: \"abc\" is not a decimal seed\n");
}

TEST(CliSeeds, RejectsTrailingGarbage) {
  const RunOutput r = RunCli("difftest --seeds=1:5x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=1:5x: \"5x\" is not a decimal seed\n");
}

TEST(CliSeeds, RejectsMissingColon) {
  const RunOutput r = RunCli("difftest --seeds=5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=5: want A:B (B exclusive)\n");
}

TEST(CliSeeds, RejectsEmptyEndpoints) {
  const RunOutput r = RunCli("harden --seeds=:");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=:: \"\" is not a decimal seed\n");
}

TEST(CliSeeds, HardenRejectsReversedRange) {
  const RunOutput r = RunCli("harden --seeds=9:3");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seeds=9:3: empty range (B must be greater than A)\n");
}

// --- Strict numeric flags -------------------------------------------------

TEST(CliNumbers, RejectsNonNumericSeed) {
  const RunOutput r = RunCli("sweep --grids=difftest --seeds=0:2 --seed=abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--seed=abc: \"abc\" is not a decimal seed\n");
}

TEST(CliNumbers, RejectsNonNumericJobs) {
  const RunOutput r = RunCli("difftest --seeds=0:1 --jobs=banana");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--jobs=banana: want a worker count >= 0 (0 = all cores)\n");
}

TEST(CliNumbers, RejectsNegativeJobs) {
  const RunOutput r = RunCli("sweep --grids=difftest --seeds=0:2 --jobs=-7");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--jobs=-7: want a worker count >= 0 (0 = all cores)\n");
}

TEST(CliNumbers, RejectsJobsBeyondInt) {
  const RunOutput r = RunCli("difftest --jobs=99999999999");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--jobs=99999999999: want a worker count >= 0 (0 = all cores)\n");
}

TEST(CliNumbers, RejectsZeroTrials) {
  const RunOutput r = RunCli("pareto --trials=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--trials=0: want a positive repeat count\n");
}

TEST(CliNumbers, RejectsTrailingGarbageTrials) {
  const RunOutput r = RunCli("pareto --trials=3x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--trials=3x: want a positive repeat count\n");
}

TEST(CliNumbers, RejectsNonNumericAluFault) {
  const RunOutput r = RunCli("difftest --seeds=4:5 --inject-alu-fault=zz");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--inject-alu-fault=zz: want a positive ALU-op index\n");
}

TEST(CliNumbers, RejectsZeroAluFault) {
  // 0 injects nothing, so the oracle self-check would pass vacuously.
  const RunOutput r = RunCli("difftest --seeds=4:5 --inject-alu-fault=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--inject-alu-fault=0: want a positive ALU-op index\n");
}

TEST(CliNumbers, InjectedAluFaultIsDetected) {
  const RunOutput r =
      RunCli("difftest --seeds=4:5 --cpus=\"Skylake Client\" --configs=off --inject-alu-fault=1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

// --- Per-subcommand flag allowlists ---------------------------------------

TEST(CliFlags, AttacksRejectsSeeds) {
  const RunOutput r = RunCli("attacks --seeds=0:5");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output,
            "spectrebench attacks: unrecognized option '--seeds' (valid options: --cpus)\n");
}

TEST(CliFlags, TableRejectsJson) {
  const RunOutput r = RunCli("table1 --json");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output,
            "spectrebench table1: unrecognized option '--json' (valid options: none)\n");
}

TEST(CliFlags, DifftestRejectsUnknownFlag) {
  const RunOutput r = RunCli("difftest --bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("spectrebench difftest: unrecognized option '--bogus'"),
            std::string::npos)
      << r.output;
}

TEST(CliFlags, UnknownCpuIsOneLineListingValidNames) {
  const RunOutput r = RunCli("fig2 --cpus=Bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output,
            "--cpus=Bogus: unknown CPU model \"Bogus\" (valid names: Broadwell, Skylake Client, "
            "Cascade Lake, Ice Lake Client, Ice Lake Server, Zen, Zen 2, Zen 3)\n");
}

TEST(CliFlags, CrossValidateRequiresFast) {
  const RunOutput r = RunCli("difftest --seeds=0:1 --cross-validate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output, "--cross-validate requires --fast\n");
}

TEST(CliFlags, UnknownCommandReportedBeforeFlags) {
  const RunOutput r = RunCli("bogus --bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output.rfind("unknown command: bogus\n", 0), 0u) << r.output;
}

// --- Valid invocations stay valid -----------------------------------------

TEST(CliFlags, DifftestAcceptsItsFlags) {
  const RunOutput r = RunCli("difftest --seeds=0:2 --jobs=2 --fast --cross-validate");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 divergences"), std::string::npos) << r.output;
}

TEST(CliFlags, Table1AcceptsNoFlags) {
  const RunOutput r = RunCli("table1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- Every table/figure command runs --------------------------------------
//
// The CLI is the only entry point for these experiments, so each one is run
// once: exit 0 and the title line first.

void ExpectRunsWithTitle(const std::string& args, const std::string& title) {
  const RunOutput r = RunCli(args);
  EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
  EXPECT_EQ(r.output.rfind(title, 0), 0u) << args << "\n" << r.output;
}

TEST(CliSmoke, Table1) {
  ExpectRunsWithTitle("table1", "Table 1. Default mitigations used by the simulated kernel");
}
TEST(CliSmoke, Table2) { ExpectRunsWithTitle("table2", "Table 2. The CPUs the simulator models."); }
TEST(CliSmoke, Table3) { ExpectRunsWithTitle("table3", "Table 3. Cycles for syscall / sysret"); }
TEST(CliSmoke, Table4) { ExpectRunsWithTitle("table4", "Table 4. Cycles to clear"); }
TEST(CliSmoke, Table5) { ExpectRunsWithTitle("table5", "Table 5. Cycles for an indirect branch"); }
TEST(CliSmoke, Table6) {
  ExpectRunsWithTitle("table6", "Table 6. Cycles for an indirect branch prediction barrier.");
}
TEST(CliSmoke, Table7) { ExpectRunsWithTitle("table7", "Table 7. Cycles to stuff the RSB."); }
TEST(CliSmoke, Table8) {
  ExpectRunsWithTitle("table8", "Table 8. Cycles for a single lfence in a loop.");
}
TEST(CliSmoke, Tables9And10) {
  ExpectRunsWithTitle("tables9-10", "Table 9. Whether a BTB entry trained in mode X");
}
TEST(CliSmoke, Sec622) {
  ExpectRunsWithTitle("sec622", "Section 6.2.2. Kernel-entry latency distribution with eIBRS");
}
TEST(CliSmoke, Fig5) {
  ExpectRunsWithTitle("fig5 --cpus=\"Zen 3\"",
                      "Figure 5. Slowdown from force-enabling Speculative Store Bypass Disable");
}
TEST(CliSmoke, Ablations) {
  const RunOutput r = RunCli("ablations");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // All five, in order.
  size_t at = 0;
  for (const char* title : {"LEBench overhead of each Spectre V2 strategy",
                            "LEBench overhead of PTI, with and without PCID",
                            "Octane 2 total slowdown under browser mitigation futures.",
                            "MDS across SMT siblings:",
                            "Octane 2 total slowdown, full browser mitigation stack:"}) {
    const size_t found = r.output.find(title, at);
    ASSERT_NE(found, std::string::npos) << title << "\n" << r.output;
    EXPECT_TRUE(at == 0 ? found == 0 : found > at) << title;
    at = found + 1;
  }
}

}  // namespace
}  // namespace specbench

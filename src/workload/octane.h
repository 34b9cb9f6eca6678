// Octane-2-style JavaScript benchmark suite (paper §4.3, Figure 3).
//
// Eight kernels with the access-pattern mix of their Octane namesakes —
// array-bound-check-heavy numeric sweeps, shape-guarded object graphs,
// poisoned-pointer chases — all emitted through the JIT model so the
// Spectre V1 mitigations (index masking / object guards / pointer
// poisoning) are paid inside the generated code, exactly where SpiderMonkey
// pays them. The suite runs as a seccomp-sandboxed process, so the
// kernel-side SSBD policy applies to it the way it applied to Firefox on
// the kernels the paper measured.
#ifndef SPECTREBENCH_SRC_WORKLOAD_OCTANE_H_
#define SPECTREBENCH_SRC_WORKLOAD_OCTANE_H_

#include <map>
#include <string>
#include <vector>

#include "src/jit/jit.h"
#include "src/os/mitigation_config.h"
#include "src/uarch/cycle_attribution.h"

namespace specbench {

class Octane {
 public:
  static const std::vector<std::string>& KernelNames();

  // Runs one kernel; returns an Octane-style score (higher is better,
  // inversely proportional to cycles per iteration), with seeded noise.
  // Simulated once per (name, CPU, configs), like LeBench::RunKernel. If
  // `attribution` is non-null the call always simulates: the sink is reset,
  // attached for the run, and left holding the lfence+rdtsc measurement
  // window (see LeBench::RunKernel).
  static double RunKernel(const std::string& name, const CpuModel& cpu,
                          const JitConfig& jit_config, const MitigationConfig& os_config,
                          uint64_t seed, CycleAttribution* attribution = nullptr);

  // Runs the whole suite; returns kernel -> score.
  static std::map<std::string, double> RunSuite(const CpuModel& cpu,
                                                const JitConfig& jit_config,
                                                const MitigationConfig& os_config,
                                                uint64_t seed);

  // Octane's aggregate: geometric mean of kernel scores.
  static double SuiteScore(const std::map<std::string, double>& results);
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_WORKLOAD_OCTANE_H_

// Experiment drivers: one entry point per table/figure of the paper.
//
// Each Run* function produces structured results; each Render* function
// turns them into the terminal tables / ASCII bar charts that the matching
// `spectrebench` subcommand prints. See DESIGN.md's experiment index for the
// mapping.
#ifndef SPECTREBENCH_SRC_CORE_EXPERIMENTS_H_
#define SPECTREBENCH_SRC_CORE_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "src/core/attribution.h"
#include "src/core/microbench.h"
#include "src/hv/hypervisor.h"
#include "src/runner/sweep.h"
#include "src/stats/sampler.h"

namespace specbench {

// --- Tables 1 and 2: configuration ------------------------------------------
std::string RenderTable1MitigationMatrix();
std::string RenderTable2CpuInfo();

// --- Figure 2: LEBench overhead attribution ---------------------------------
// Cells (one per CPU) execute on the deterministic parallel runner; see
// src/core/sweep_grids.h for the grid registration. Results are identical
// for any `runner.jobs`.
std::vector<AttributionReport> RunFigure2LeBench(const SamplerOptions& options,
                                                 const std::vector<Uarch>& cpus = AllUarches(),
                                                 const RunnerOptions& runner = RunnerOptions());
// The stacked bars, then per-CPU totals with their 95% CIs and the paper's
// expectation (likewise RenderFigure3).
std::string RenderFigure2(const std::vector<AttributionReport>& reports);

// --- Figure 3: Octane 2 overhead attribution --------------------------------
std::vector<AttributionReport> RunFigure3Octane(const SamplerOptions& options,
                                                const std::vector<Uarch>& cpus = AllUarches(),
                                                const RunnerOptions& runner = RunnerOptions());
std::string RenderFigure3(const std::vector<AttributionReport>& reports);

// --- Section 4.4: virtual machine workloads ---------------------------------
struct VmWorkloadResult {
  std::string cpu;
  std::string workload;           // "lebench-in-vm", "lfs-smallfile", ...
  Estimate overhead_pct;          // host mitigations on vs off
  uint64_t vm_exits_protected = 0;
};
std::vector<VmWorkloadResult> RunSection44Vm(const SamplerOptions& options,
                                             const std::vector<Uarch>& cpus = AllUarches());
std::string RenderSection44(const std::vector<VmWorkloadResult>& results);

// --- Section 4.5: PARSEC under default mitigations --------------------------
struct ParsecDefaultResult {
  std::string cpu;
  std::string kernel;
  Estimate overhead_pct;
};
std::vector<ParsecDefaultResult> RunSection45Parsec(
    const SamplerOptions& options, const std::vector<Uarch>& cpus = AllUarches(),
    const RunnerOptions& runner = RunnerOptions());
std::string RenderSection45(const std::vector<ParsecDefaultResult>& results);

// --- Tables 3-8: per-mitigation microbenchmarks -----------------------------
// Each renderer runs the measurement across all CPUs and prints measured vs
// paper values.
std::string RenderTable3EntryExit();
std::string RenderTable4Verw();
std::string RenderTable5IndirectBranch();
std::string RenderTable6Ibpb();
std::string RenderTable7RsbStuff();
std::string RenderTable8Lfence();

// --- Figure 5: SSBD on PARSEC ------------------------------------------------
struct Fig5Row {
  std::string cpu;
  double swaptions_pct = 0;
  double facesim_pct = 0;
  double bodytrack_pct = 0;
};
std::vector<Fig5Row> RunFigure5Ssbd(const std::vector<Uarch>& cpus = AllUarches());
std::string RenderFigure5(const std::vector<Fig5Row>& rows);

// --- Tables 9 and 10: the speculation probe ---------------------------------
std::string RenderTables9And10();

// --- Section 6.2.2: eIBRS bimodal kernel-entry latency (extension) ----------
std::string RenderEibrsBimodal();

// --- Ablations: design choices the paper discusses (§3.3, §5.1, §5.3, §7) ---
// Each renderer runs its experiment and returns the table plus the expected
// shape; `spectrebench ablations` prints all five in this order.
std::string RenderAblationSpectreV2();       // §5.3/§6.2.1: V2 strategy costs
std::string RenderAblationPcid();            // §5.1: PTI with vs without PCID
std::string RenderAblationBrowserFuture();   // §7: post-5.16 SSBD, SLH
std::string RenderAblationSmtMds();          // §3.3: MDS across SMT siblings
std::string RenderAblationFutureHardware();  // §7/§9: cmov fusion + SSB_NO

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_EXPERIMENTS_H_

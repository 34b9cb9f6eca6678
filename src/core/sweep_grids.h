// Sweep-grid registration for the paper's figure/table drivers.
//
// Each Build*Grid function registers one cell per independent
// (CPU × config × workload) point of an experiment with the deterministic
// parallel runner (src/runner/sweep.h). A future figure or table driver is
// one registration call: build a grid, Run() it, convert the SweepResult
// back to the driver's report type for rendering.
#ifndef SPECTREBENCH_SRC_CORE_SWEEP_GRIDS_H_
#define SPECTREBENCH_SRC_CORE_SWEEP_GRIDS_H_

#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/runner/sweep.h"

namespace specbench {

struct GridOptions {
  SamplerOptions sampler;
  std::vector<Uarch> cpus = AllUarches();
};

// Figure 2: one attribution cell per CPU over the LEBench suite geomean.
Sweep BuildFigure2Grid(const GridOptions& options);
// Figure 3: one browser-attribution cell per CPU over the Octane 2 score.
Sweep BuildFigure3Grid(const GridOptions& options);
// Section 4.5: one default-vs-off cell per (CPU, PARSEC kernel).
Sweep BuildSection45Grid(const GridOptions& options);

// Differential-execution oracle as a sweep: one cell per (CPU × difftest
// config), each running every seed in [seed_begin, seed_end) against the
// reference interpreter and reporting divergence / retired-instruction
// counts. With fast=true the cell uses the pooled-machine sampled-timing
// engine (docs/perf.md) — the cell *output* must be byte-identical either
// way, which is what the CI determinism check pins.
struct DifftestGridOptions {
  std::vector<Uarch> cpus = AllUarches();
  uint64_t seed_begin = 0;
  uint64_t seed_end = 100;  // exclusive
  bool fast = false;
  uint64_t max_instructions = 1'000'000;
};
Sweep BuildDifftestGrid(const DifftestGridOptions& options);

// Software-mitigation pass overhead matrix (the paper's §6.4 lfence story,
// generalized to the whole pass registry, src/analysis/passes.h): one cell
// per (CPU, workload, pass), in that order, keyed {cpu, pass name, workload}.
// Each cell hardens a small hand-built program with the pass and reports the
// unmitigated ("base") and "hardened" cycle counts, the overhead in percent
// ("total") and the instructions the pass "added". Cycle-exact and
// seed-free. The headline comparisons are targeted-lfence vs blanket-lfence
// (fence only flagged gadgets vs every branch edge) and v1-index-mask vs
// targeted-lfence (a data dependency instead of a pipeline drain).
Sweep BuildPassesGrid(const std::vector<Uarch>& cpus);

// Shared grid-name dispatcher for `spectrebench sweep` and the sweep
// service: builds and merges the named grids ("fig2", "fig3", "sec45",
// "difftest", "passes") in list order. `seed_begin`/`seed_end`/`fast` only
// affect the difftest grid; `sampler` only the figure/section grids. Returns
// false with a one-line reason for an unknown grid name.
struct NamedGridOptions {
  std::vector<std::string> grids;
  std::vector<Uarch> cpus = AllUarches();
  SamplerOptions sampler;
  uint64_t seed_begin = 0;
  uint64_t seed_end = 100;  // exclusive
  bool fast = false;
};
bool BuildNamedGrids(const NamedGridOptions& options, Sweep* out, std::string* error);

// Flattens an attribution report into cell metrics (segments + "total").
CellOutput CellOutputFromAttribution(const AttributionReport& report);

// Inverse conversions, for the existing renderers: pick the cells the grid
// above produced out of a sweep result.
std::vector<AttributionReport> AttributionReportsFromSweep(const SweepResult& result);
std::vector<ParsecDefaultResult> ParsecResultsFromSweep(const SweepResult& result);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_SWEEP_GRIDS_H_

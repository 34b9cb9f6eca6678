#include "src/core/sweep_grids.h"

#include <utility>

#include "src/analysis/passes.h"
#include "src/difftest/difftest.h"
#include "src/difftest/generator.h"
#include "src/difftest/reference.h"
#include "src/jit/jit.h"
#include "src/uarch/machine.h"
#include "src/workload/lebench.h"
#include "src/workload/octane.h"
#include "src/workload/parsec.h"

namespace specbench {

CellOutput CellOutputFromAttribution(const AttributionReport& report) {
  CellOutput out;
  for (const AttributionSegment& segment : report.segments) {
    out.metrics.push_back(CellMetric{segment.id, segment.label, segment.overhead_pct});
  }
  out.metrics.push_back(CellMetric{"total", "Total", report.total_overhead_pct});
  out.samples = report.total_samples;
  out.converged = report.converged;
  out.saw_non_finite = report.saw_non_finite;
  return out;
}

Sweep BuildFigure2Grid(const GridOptions& options) {
  Sweep sweep;
  for (Uarch u : options.cpus) {
    sweep.Add(SweepCellKey{UarchName(u), "attribution", "lebench"},
              [u, sampler = options.sampler](uint64_t seed) {
                const CpuModel& cpu = GetCpuModel(u);
                return CellOutputFromAttribution(AttributeOsMitigations(
                    cpu, "lebench",
                    [&cpu](const MitigationConfig& config, uint64_t sample_seed) {
                      return LeBench::SuiteGeomean(LeBench::RunSuite(cpu, config, sample_seed));
                    },
                    /*lower_is_better=*/true, sampler, seed));
              });
  }
  return sweep;
}

Sweep BuildFigure3Grid(const GridOptions& options) {
  Sweep sweep;
  for (Uarch u : options.cpus) {
    sweep.Add(SweepCellKey{UarchName(u), "attribution", "octane2"},
              [u, sampler = options.sampler](uint64_t seed) {
                const CpuModel& cpu = GetCpuModel(u);
                return CellOutputFromAttribution(AttributeBrowserMitigations(
                    cpu,
                    [&cpu](const JitConfig& jit, const MitigationConfig& os,
                           uint64_t sample_seed) {
                      return Octane::SuiteScore(Octane::RunSuite(cpu, jit, os, sample_seed));
                    },
                    sampler, seed));
              });
  }
  return sweep;
}

Sweep BuildSection45Grid(const GridOptions& options) {
  Sweep sweep;
  for (Uarch u : options.cpus) {
    for (const std::string& name : Parsec::KernelNames()) {
      sweep.Add(SweepCellKey{UarchName(u), "default-vs-off", name},
                [u, name, sampler = options.sampler](uint64_t seed) {
                  // A one-link chain: defaults, then mitigations=off.
                  const CpuModel& cpu = GetCpuModel(u);
                  const MitigationConfig configs[] = {MitigationConfig::Defaults(cpu),
                                                      MitigationConfig::AllOff()};
                  const AttributionReport report = AttributeChain(
                      cpu, name, {ChainLink{"defaults", "Default mitigations"}},
                      [&](size_t index, uint64_t sample_seed) {
                        return Parsec::RunKernel(name, cpu, configs[index], sample_seed);
                      },
                      /*lower_is_better=*/true, sampler, seed);
                  CellOutput out = CellOutputFromAttribution(report);
                  out.metrics = {CellMetric{"total", "Default-mitigation overhead",
                                            report.total_overhead_pct}};
                  return out;
                });
    }
  }
  return sweep;
}

std::vector<AttributionReport> AttributionReportsFromSweep(const SweepResult& result) {
  std::vector<AttributionReport> reports;
  for (const SweepCellResult& cell : result.cells) {
    if (cell.key.config != "attribution") {
      continue;
    }
    AttributionReport report;
    report.cpu = cell.key.cpu;
    report.workload = cell.key.workload;
    for (const CellMetric& metric : cell.output.metrics) {
      if (metric.id == "total") {
        report.total_overhead_pct = metric.estimate;
      } else {
        report.segments.push_back(AttributionSegment{metric.id, metric.label, metric.estimate});
      }
    }
    report.total_samples = cell.output.samples;
    report.converged = cell.output.converged;
    report.saw_non_finite = cell.output.saw_non_finite;
    reports.push_back(std::move(report));
  }
  return reports;
}

std::vector<ParsecDefaultResult> ParsecResultsFromSweep(const SweepResult& result) {
  std::vector<ParsecDefaultResult> results;
  for (const SweepCellResult& cell : result.cells) {
    if (cell.key.config != "default-vs-off") {
      continue;
    }
    ParsecDefaultResult r;
    r.cpu = cell.key.cpu;
    r.kernel = cell.key.workload;
    for (const CellMetric& metric : cell.output.metrics) {
      if (metric.id == "total") {
        r.overhead_pct = metric.estimate;
      }
    }
    results.push_back(std::move(r));
  }
  return results;
}

Sweep BuildDifftestGrid(const DifftestGridOptions& options) {
  Sweep sweep;
  for (Uarch u : options.cpus) {
    for (const DiffConfig& config : DefaultDiffConfigs()) {
      sweep.Add(
          SweepCellKey{UarchName(u), config.name, "difftest"},
          [u, config, begin = options.seed_begin, end = options.seed_end, fast = options.fast,
           max_instructions = options.max_instructions](uint64_t) {
            // The oracle seeds are the cell's content, not sampling noise:
            // the cell ignores the runner-derived seed so its output bytes
            // depend only on (cpus, configs, seed window, max_instructions)
            // — identical for any --jobs value and for fast vs detailed.
            const CpuModel& cpu = GetCpuModel(u);
            uint64_t divergences = 0;
            uint64_t retired = 0;
            for (uint64_t seed = begin; seed < end; seed++) {
              const Program program = GenerateProgram(seed, GeneratorOptions{});
              const ReferenceResult ref = RunReference(program, max_instructions);
              if (!ref.ok) {
                divergences++;
                continue;
              }
              const ArchState got = fast
                                        ? RunMachineArchFast(program, cpu, config,
                                                             max_instructions)
                                        : RunMachineArch(program, cpu, config, max_instructions);
              retired += got.retired;
              if (!(got == ref.state)) {
                divergences++;
              }
            }
            CellOutput out;
            out.metrics.push_back(
                CellMetric{"divergences", "Oracle divergences",
                           Estimate{static_cast<double>(divergences), 0.0}});
            out.metrics.push_back(CellMetric{
                "retired", "Instructions retired", Estimate{static_cast<double>(retired), 0.0}});
            out.samples = static_cast<size_t>(end - begin);
            return out;
          });
    }
  }
  return sweep;
}

namespace {

constexpr uint64_t kArrayBase = 0x42000000;
constexpr uint64_t kLenAddr = 0x41000000;
constexpr uint64_t kFpTable = 0x46000000;
constexpr uint64_t kPassStackTop = 0x48000000;
constexpr uint64_t kJsHeapBase = 0x60000000;
constexpr int64_t kIterations = 512;
constexpr uint64_t kArrayLen = 64;

// Hot bounds-checked loop, in-bounds by construction: the blanket pass
// fences both edges of the loop's checks; the analyzer proves the indices
// clean and inserts nothing.
Program BuildBoundsCheckedSum() {
  ProgramBuilder b;
  Label loop = b.NewLabel();
  Label body = b.NewLabel();
  Label skip = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kArrayBase));
  b.MovImm(2, 0);                       // i
  b.MovImm(3, kIterations);
  b.MovImm(5, 0);                       // sum
  b.MovImm(10, static_cast<int64_t>(kLenAddr));
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 6, 2, kArrayLen - 1);  // idx = i % len
  b.Load(7, MemRef{.base = 10});               // len (the bounds check)
  b.Alu(AluOp::kCmpLt, 8, 6, 7);
  b.BranchNz(8, body);
  b.Jmp(skip);
  b.Bind(body);
  b.Load(4, MemRef{.base = 1, .index = 6, .scale = 8});
  b.Alu(AluOp::kAdd, 5, 5, 4);
  b.Bind(skip);
  b.AluImm(AluOp::kAdd, 2, 2, 1);
  b.Alu(AluOp::kCmpLt, 9, 2, 3);
  b.BranchNz(9, loop);
  b.Halt();
  return b.Build();
}

// The same hot loop preceded by one real V1 gadget on the function argument
// (r0): the analyzer flags exactly that load, so targeted hardening pays for
// one fence while blanket hardening still fences every loop iteration — and
// index masking pays a cmov dependency instead of the fence's drain.
Program BuildGadgetPlusLoop() {
  ProgramBuilder b;
  Label in_bounds = b.NewLabel();
  Label loop = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(10, static_cast<int64_t>(kLenAddr));
  b.Load(11, MemRef{.base = 10});
  b.Alu(AluOp::kCmpLt, 12, 0, 11);  // r0: caller-controlled index
  b.BranchNz(12, in_bounds);
  b.Bind(in_bounds);
  b.MovImm(1, static_cast<int64_t>(kArrayBase));
  b.Load(13, MemRef{.base = 1, .index = 0, .scale = 8});
  b.AluImm(AluOp::kAnd, 13, 13, kArrayLen - 1);  // arch-safe, still tainted
  b.Load(14, MemRef{.base = 1, .index = 13, .scale = 8});  // dependent load
  b.Alu(AluOp::kAdd, 5, 5, 14);
  // Hot loop (clean indices).
  b.MovImm(2, 0);
  b.MovImm(3, kIterations);
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 6, 2, kArrayLen - 1);
  b.Load(4, MemRef{.base = 1, .index = 6, .scale = 8});
  b.Alu(AluOp::kAdd, 5, 5, 4);
  b.AluImm(AluOp::kAdd, 2, 2, 1);
  b.Alu(AluOp::kCmpLt, 9, 2, 3);
  b.BranchNz(9, loop);
  b.Halt();
  return b.Build();
}

// Branch-heavy data-dependent code with no memory gadget at all: the worst
// case for blanket fencing.
Program BuildBranchHeavy() {
  ProgramBuilder b;
  Label loop = b.NewLabel();
  Label even = b.NewLabel();
  Label join = b.NewLabel();
  Label small = b.NewLabel();
  Label join2 = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(2, 0);
  b.MovImm(3, kIterations);
  b.MovImm(5, 1);
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 6, 2, 1);
  b.BranchZ(6, even);
  b.AluImm(AluOp::kAdd, 5, 5, 3);
  b.Jmp(join);
  b.Bind(even);
  b.AluImm(AluOp::kXor, 5, 5, 7);
  b.Bind(join);
  b.AluImm(AluOp::kAnd, 7, 5, 255);
  b.AluImm(AluOp::kCmpLt, 8, 7, 128);
  b.BranchNz(8, small);
  b.AluImm(AluOp::kAdd, 5, 5, 3);
  b.Bind(small);
  b.Jmp(join2);
  b.Bind(join2);
  b.AluImm(AluOp::kAdd, 2, 2, 1);
  b.Alu(AluOp::kCmpLt, 9, 2, 3);
  b.BranchNz(9, loop);
  b.Halt();
  return b.Build();
}

// Octane-style JIT sandbox code: unmitigated JS array accesses (the engine's
// index-masking pass turned off), where the first access uses the untrusted
// caller argument and feeds a second element access — the in-process leak
// the paper's JIT mitigations target. The hot loop's indices are clean.
Program BuildJsGetElemLoop() {
  ProgramBuilder b;
  JsEmitter js(b, JitConfig::AllOff());
  Label loop = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kJsHeapBase));           // arr1
  b.MovImm(2, static_cast<int64_t>(kJsHeapBase + 8 * 17));  // arr2
  js.GetElem(4, 1, 0);  // v = arr1[r0], r0 caller-controlled
  js.GetElem(5, 2, 4);  // arr2[v]: the dependent access
  b.MovImm(6, 0);
  b.MovImm(7, kIterations);
  b.MovImm(10, 0);
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 8, 6, 15);
  js.GetElem(9, 1, 8);
  b.Alu(AluOp::kAdd, 10, 10, 9);
  b.AluImm(AluOp::kAdd, 6, 6, 1);
  b.Alu(AluOp::kCmpLt, 9, 6, 7);
  b.BranchNz(9, loop);
  b.Halt();
  return b.Build();
}

// Function-pointer dispatch loop: each iteration loads a handler address
// from an in-memory table and calls through it — the indirect-branch-bound
// shape the switchpoline pass rewrites into a compare chain. The table is
// planted by setup() from the program's exported symbols, so the hardened
// (relocated) program dispatches to its own moved handlers.
Program BuildIndirectDispatchLoop() {
  ProgramBuilder b;
  Label loop = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kFpTable));
  b.MovImm(2, 0);  // i
  b.MovImm(3, kIterations);
  b.MovImm(5, 0);  // acc
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 6, 2, 3);  // handler index: i % 4
  b.Load(7, MemRef{.base = 1, .index = 6, .scale = 8});
  b.IndirectCall(7);
  b.AluImm(AluOp::kAdd, 2, 2, 1);
  b.Alu(AluOp::kCmpLt, 9, 2, 3);
  b.BranchNz(9, loop);
  b.Halt();
  for (int j = 0; j < 4; j++) {
    b.BindSymbol("fn" + std::to_string(j));
    b.AluImm(AluOp::kAdd, 5, 5, j + 1);
    b.Ret();
  }
  return b.Build();
}

void SetupFlatArray(Machine& m, const Program&) {
  for (uint64_t i = 0; i < kArrayLen; i++) {
    m.PokeData(kArrayBase + 8 * i, i);
  }
  m.PokeData(kLenAddr, kArrayLen);
}

void SetupJsHeap(Machine& m, const Program&) {
  JsHeap heap(kJsHeapBase, 4096);
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 16; i++) {
    values.push_back((i * 3) % 16);
  }
  heap.AllocArray(m, values);  // arr1 at kJsHeapBase
  heap.AllocArray(m, values);  // arr2 right after
}

void SetupDispatchTable(Machine& m, const Program& p) {
  for (int j = 0; j < 4; j++) {
    m.PokeData(kFpTable + 8 * j, p.SymbolVaddr("fn" + std::to_string(j)));
  }
  m.SetReg(kRegSp, kPassStackTop);
}

struct PassWorkload {
  const char* name;
  Program (*build)();
  void (*setup)(Machine&, const Program&);
};

const PassWorkload kPassWorkloads[] = {
    {"bounds-checked-sum", BuildBoundsCheckedSum, SetupFlatArray},
    {"gadget-plus-loop", BuildGadgetPlusLoop, SetupFlatArray},
    {"branch-heavy", BuildBranchHeavy, SetupFlatArray},
    {"js-getelem-loop", BuildJsGetElemLoop, SetupJsHeap},
    {"indirect-dispatch", BuildIndirectDispatchLoop, SetupDispatchTable},
};

uint64_t RunPassWorkload(const CpuModel& cpu, const PassWorkload& w, const Program& p) {
  Machine m(cpu);
  m.LoadProgram(&p);
  w.setup(m, p);
  m.SetReg(0, 3);  // in-bounds "caller argument" for the gadget workloads
  return m.Run(p.SymbolVaddr("entry")).cycles;
}

}  // namespace

Sweep BuildPassesGrid(const std::vector<Uarch>& cpus) {
  Sweep sweep;
  for (Uarch u : cpus) {
    for (const PassWorkload& w : kPassWorkloads) {
      for (const MitigationPass* pass : MitigationPasses()) {
        // Each cell rebuilds its program and machine, so cells share no
        // mutable state.
        sweep.Add(SweepCellKey{UarchName(u), pass->name(), w.name}, [u, &w, pass](uint64_t) {
          const CpuModel& cpu = GetCpuModel(u);
          const Program program = w.build();
          const PassRunReport run = RunPassToFixpoint(*pass, program, cpu);
          const double base = static_cast<double>(RunPassWorkload(cpu, w, program));
          const double hardened = static_cast<double>(RunPassWorkload(cpu, w, run.hardened));
          CellOutput out;
          out.metrics.push_back(CellMetric{"base", "Unmitigated cycles", {base, 0.0}});
          out.metrics.push_back(CellMetric{"hardened", "Hardened cycles", {hardened, 0.0}});
          out.metrics.push_back(
              CellMetric{"total", "Overhead", {(hardened / base - 1.0) * 100.0, 0.0}});
          out.metrics.push_back(CellMetric{
              "added", "Instructions inserted", {static_cast<double>(run.inserted), 0.0}});
          return out;
        });
      }
    }
  }
  return sweep;
}

bool BuildNamedGrids(const NamedGridOptions& options, Sweep* out, std::string* error) {
  Sweep sweep;
  GridOptions grid;
  grid.sampler = options.sampler;
  grid.cpus = options.cpus;
  for (const std::string& name : options.grids) {
    if (name == "fig2") {
      sweep.Merge(BuildFigure2Grid(grid));
    } else if (name == "fig3") {
      sweep.Merge(BuildFigure3Grid(grid));
    } else if (name == "sec45") {
      sweep.Merge(BuildSection45Grid(grid));
    } else if (name == "difftest") {
      DifftestGridOptions difftest;
      difftest.cpus = options.cpus;
      difftest.seed_begin = options.seed_begin;
      difftest.seed_end = options.seed_end;
      difftest.fast = options.fast;
      sweep.Merge(BuildDifftestGrid(difftest));
    } else if (name == "passes") {
      sweep.Merge(BuildPassesGrid(options.cpus));
    } else {
      *error = "unknown grid: \"" + name + "\" (valid: fig2, fig3, sec45, difftest, passes)";
      return false;
    }
  }
  *out = std::move(sweep);
  return true;
}

// --- Runner-backed experiment drivers (declared in experiments.h) -----------

std::vector<AttributionReport> RunFigure2LeBench(const SamplerOptions& options,
                                                 const std::vector<Uarch>& cpus,
                                                 const RunnerOptions& runner) {
  return AttributionReportsFromSweep(BuildFigure2Grid(GridOptions{options, cpus}).Run(runner));
}

std::vector<AttributionReport> RunFigure3Octane(const SamplerOptions& options,
                                                const std::vector<Uarch>& cpus,
                                                const RunnerOptions& runner) {
  return AttributionReportsFromSweep(BuildFigure3Grid(GridOptions{options, cpus}).Run(runner));
}

std::vector<ParsecDefaultResult> RunSection45Parsec(const SamplerOptions& options,
                                                    const std::vector<Uarch>& cpus,
                                                    const RunnerOptions& runner) {
  return ParsecResultsFromSweep(BuildSection45Grid(GridOptions{options, cpus}).Run(runner));
}

}  // namespace specbench

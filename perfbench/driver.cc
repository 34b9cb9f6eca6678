// One iteration of one benchmark workload, in a fresh process.
//
//   perfbench_driver --workload=NAME --seed=N [--part=P] --jobs=J [--trace] [--setup-only]
//
// perfbench/run.py starts one process per iteration so that the host caches
// (TraceCache, MachinePool) start empty every time, as they do for a CLI
// user. The process prints one JSON line: which inputs it ran, when set-up
// ended (steady clock, seconds), the timed span's wall and CPU seconds, peak
// RSS, the digest of the workload's deterministic output bytes, per-cell
// failures, the counts that must repeat exactly, and, with --trace, the
// per-layer metrics.
//
// Untraced, fig2/difftest/pareto run the library's own entry points
// (BuildNamedGrids + Sweep::Run, BuildParetoReport). Traced, fig2 and
// difftest are recomposed here from the public calls those entry points
// make, with a span around each, and must reproduce the untraced digest;
// pareto runs BuildParetoReport and then re-runs its two halves (RunSuite
// and the overhead basket) as checked probes. vm-lfs has no library entry
// point of its own and runs the same composition either way.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/attack/suite.h"
#include "src/core/counters.h"
#include "src/core/experiments.h"
#include "src/core/pareto.h"
#include "src/core/sweep_grids.h"
#include "src/difftest/difftest.h"
#include "src/difftest/generator.h"
#include "src/difftest/reference.h"
#include "src/os/kernel.h"
#include "src/runner/thread_pool.h"
#include "src/uarch/decoded_trace.h"
#include "src/uarch/machine_pool.h"
#include "src/workload/lebench.h"
#include "src/workload/lfs.h"
#include "src/workload/parsec.h"

namespace perfbench {
namespace {

using specbench::AllUarches;
using specbench::CpuModel;
using specbench::GetCpuModel;
using specbench::MitigationConfig;
using specbench::Uarch;
using specbench::UarchName;

// The seed every workload maps to the library's own defaults: base seed 1
// for fig2 and pareto, difftest seeds [0, 100) (part 0), and the
// RunSection44Vm LFS sample seeds 200/7200.
constexpr uint64_t kDefaultSeed = 1;
// difftest: each seed owns kDifftestParts windows of kDifftestSeeds program
// seeds, and iteration `part` runs window part mod kDifftestParts. Peak RSS
// depends on the programs in a window (they decide when the allocator
// keeps a freed machine's pages), so a run spreads its iterations over
// several windows instead of repeating one.
constexpr uint64_t kDifftestSeeds = 100;
constexpr uint64_t kDifftestParts = 8;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  uint64_t part = 0;
  int jobs = 1;
  bool trace = false;
  bool setup_only = false;
};

// What one iteration reports back.
struct Result {
  std::string output;      // deterministic output bytes
  std::string cli_output;  // the part a CLI command prints (== output unless vm-lfs)
  size_t cells = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> counts;  // must repeat exactly at this seed
  std::map<std::string, double> layers;  // traced runs only
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

// VmHWM, not getrusage's ru_maxrss: on Linux the latter survives execve,
// so it would report the spawning process's RSS whenever that is larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    out += (out.size() > 1 ? "," : "") + JsonString(key) + ":" + JsonNumber(value);
  }
  return out + "}";
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Nearest-rank percentile of span durations, in ms.
double PercentileMs(std::vector<int64_t> durations, double q) {
  if (durations.empty()) {
    return 0.0;
  }
  std::sort(durations.begin(), durations.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(durations.size())));
  rank = std::clamp<size_t>(rank, 1, durations.size());
  return Ms(durations[rank - 1]);
}

// --- Counters the traced compositions keep beside their spans ---------------

struct Tally {
  std::mutex mu;
  std::set<std::string> simulated;  // workload-call identities seen so far
  uint64_t calls = 0;
  uint64_t repeats = 0;
  // (cpu, config) pairs a kernel-based workload built; the os probe set.
  std::map<std::string, std::pair<Uarch, MitigationConfig>> kernels;

  // Records one workload call; `identity` is everything its simulated
  // cycles depend on (kernel, CPU, configs), i.e. everything but the seed.
  void Note(const std::string& identity, const CpuModel& cpu, const MitigationConfig& config) {
    const std::string described = config.Describe();
    std::lock_guard<std::mutex> lock(mu);
    calls++;
    if (!simulated.insert(identity + "|" + described).second) {
      repeats++;
    }
    kernels.emplace(std::string(UarchName(cpu.uarch)) + "|" + described,
                    std::make_pair(cpu.uarch, config));
  }
};

Tally g_tally;
std::atomic<uint64_t> g_retired_detailed{0};
std::atomic<uint64_t> g_retired_fast{0};
std::atomic<uint64_t> g_counters_calls{0};
std::atomic<uint64_t> g_vm_exits{0};

// --- Workloads ---------------------------------------------------------------

bool CellOk(const specbench::CellOutput& out) {
  if (!out.converged || out.saw_non_finite) {
    return false;
  }
  for (const specbench::CellMetric& m : out.metrics) {
    if (!std::isfinite(m.estimate.value) || !std::isfinite(m.estimate.ci95)) {
      return false;
    }
  }
  return true;
}

// Shared by fig2 and difftest: checks every cell and collects the counts
// that must repeat exactly.
void FinishSweep(const specbench::SweepResult& sweep, Result* r) {
  double samples = 0.0;
  double converged = 0.0;
  for (const specbench::SweepCellResult& cell : sweep.cells) {
    r->cells++;
    samples += static_cast<double>(cell.output.samples);
    converged += cell.output.converged ? 1.0 : 0.0;
    bool ok = CellOk(cell.output);
    for (const specbench::CellMetric& m : cell.output.metrics) {
      if (m.id == "divergences") {
        r->counts["difftest.divergences"] += m.estimate.value;
        ok = ok && m.estimate.value == 0.0;
      }
      if (m.id == "retired") {
        r->counts["difftest.retired"] += m.estimate.value;
      }
    }
    if (!ok) {
      r->failed++;
      r->errors.push_back("cell " + cell.key.cpu + "/" + cell.key.config + " failed");
    }
  }
  r->counts["runner.cells"] = static_cast<double>(sweep.cells.size());
  r->counts["stats.samples"] = samples;
  if (TracingEnabled()) {
    r->layers["stats.samples"] = samples;
    r->layers["stats.converged_frac"] = converged / static_cast<double>(sweep.cells.size());
  }
}

specbench::SweepResult RunSweep(const specbench::Sweep& sweep, specbench::ThreadPool* pool,
                                int jobs, uint64_t seed) {
  specbench::RunnerOptions runner;
  runner.jobs = jobs;
  runner.base_seed = seed;
  runner.pool = pool;
  ScopedSpan span("runner.run");
  return sweep.Run(runner);
}

std::string EmitJson(const specbench::SweepResult& result) {
  ScopedSpan span("runner.emit");
  return result.ToJson();
}

// The grid exactly as `spectrebench sweep --grids=NAME` builds it.
specbench::Sweep NamedGrid(const std::string& name, uint64_t seed_begin, uint64_t seed_end) {
  specbench::NamedGridOptions options;
  options.grids = {name};
  options.seed_begin = seed_begin;
  options.seed_end = seed_end;
  specbench::Sweep sweep;
  std::string error;
  if (!specbench::BuildNamedGrids(options, &sweep, &error)) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.c_str());
    std::exit(1);
  }
  return sweep;
}

// fig2: the Figure 2 grid. Traced, each cell is the BuildFigure2Grid cell
// with LeBench::RunSuite unrolled into its per-kernel RunKernel calls.
specbench::Sweep Fig2Sweep() {
  if (!TracingEnabled()) {
    return NamedGrid("fig2", 0, 0);
  }
  specbench::Sweep sweep;
  int index = 0;
  for (Uarch u : AllUarches()) {
    sweep.Add(
        specbench::SweepCellKey{UarchName(u), "attribution", "lebench"},
        [u, index](uint64_t seed) {
          ScopedSpan cell("runner.cell", index);
          const CpuModel& cpu = GetCpuModel(u);
          specbench::AttributionReport report;
          {
            ScopedSpan attribute("core.attribute");
            report = specbench::AttributeOsMitigations(
                cpu, "lebench",
                [&cpu](const MitigationConfig& config, uint64_t sample_seed) {
                  std::map<std::string, double> results;
                  for (const std::string& name : specbench::LeBench::KernelNames()) {
                    g_tally.Note("lebench:" + name + "|" + UarchName(cpu.uarch), cpu, config);
                    ScopedSpan span("workload.lebench");
                    results[name] = specbench::LeBench::RunKernel(name, cpu, config, sample_seed);
                  }
                  return specbench::LeBench::SuiteGeomean(results);
                },
                /*lower_is_better=*/true, specbench::SamplerOptions(), seed);
          }
          return specbench::CellOutputFromAttribution(report);
        });
    index++;
  }
  return sweep;
}

// difftest: BuildDifftestGrid on the detailed engine. Traced, each cell's
// seed loop is recomposed with spans around generator, reference and
// machine.
specbench::Sweep DifftestSweep(uint64_t begin, uint64_t end) {
  if (!TracingEnabled()) {
    return NamedGrid("difftest", begin, end);
  }
  specbench::Sweep sweep;
  const uint64_t max_instructions = specbench::DifftestGridOptions{}.max_instructions;
  int index = 0;
  for (Uarch u : AllUarches()) {
    for (const specbench::DiffConfig& config : specbench::DefaultDiffConfigs()) {
      sweep.Add(specbench::SweepCellKey{UarchName(u), config.name, "difftest"},
                [u, config, begin, end, max_instructions, index](uint64_t) {
                  ScopedSpan cell("runner.cell", index);
                  const CpuModel& cpu = GetCpuModel(u);
                  uint64_t divergences = 0;
                  uint64_t retired = 0;
                  for (uint64_t seed = begin; seed < end; seed++) {
                    specbench::Program program;
                    {
                      ScopedSpan span("difftest.generate");
                      program = specbench::GenerateProgram(seed, specbench::GeneratorOptions{});
                    }
                    specbench::ReferenceResult ref;
                    {
                      ScopedSpan span("difftest.reference");
                      ref = specbench::RunReference(program, max_instructions);
                    }
                    if (!ref.ok) {
                      divergences++;
                      continue;
                    }
                    specbench::ArchState got;
                    {
                      ScopedSpan span("uarch.detailed");
                      got = specbench::RunMachineArch(program, cpu, config, max_instructions);
                    }
                    retired += got.retired;
                    if (!(got == ref.state)) {
                      divergences++;
                    }
                  }
                  g_retired_detailed += retired;
                  specbench::CellOutput out;
                  out.metrics.push_back(specbench::CellMetric{
                      "divergences", "Oracle divergences",
                      specbench::Estimate{static_cast<double>(divergences), 0.0}});
                  out.metrics.push_back(specbench::CellMetric{
                      "retired", "Instructions retired",
                      specbench::Estimate{static_cast<double>(retired), 0.0}});
                  out.samples = static_cast<size_t>(end - begin);
                  return out;
                });
      index++;
    }
  }
  return sweep;
}

// The functional fast path over the same programs, serially, after the
// traced sweep: its ns/instr is watched, and its end states must match the
// reference interpreter's.
void DifftestFastPass(uint64_t begin, uint64_t end, Result* r) {
  const uint64_t max_instructions = specbench::DifftestGridOptions{}.max_instructions;
  uint64_t mismatches = 0;
  for (uint64_t seed = begin; seed < end; seed++) {
    const specbench::Program program = specbench::GenerateProgram(seed, {});
    const specbench::ReferenceResult ref = specbench::RunReference(program, max_instructions);
    if (!ref.ok) {
      continue;
    }
    for (Uarch u : AllUarches()) {
      for (const specbench::DiffConfig& config : specbench::DefaultDiffConfigs()) {
        specbench::ArchState got;
        {
          ScopedSpan span("uarch.fast");
          got = specbench::RunMachineArchFast(program, GetCpuModel(u), config, max_instructions);
        }
        g_retired_fast += got.retired;
        if (!(got == ref.state)) {
          mismatches++;
        }
      }
    }
  }
  if (mismatches != 0) {
    r->errors.push_back("fast path diverged from the reference on " +
                        std::to_string(mismatches) + " runs");
  }
}

using CauseCycles = std::array<uint64_t, specbench::kNumCauseTags>;

// One cell of the pareto basket, recomposed from the public calls pareto.cc
// makes; returns the cause cycles summed over the counters workloads.
CauseCycles MeasureBasketCell(const CpuModel& cpu, const MitigationConfig& config) {
  CauseCycles cause_cycles{};
  const auto add = [&cause_cycles](const specbench::CounterBreakdown& row) {
    for (size_t i = 0; i < specbench::kNumCauseTags; i++) {
      cause_cycles[i] += row.cause_cycles[i];
    }
    g_counters_calls++;
  };
  for (const std::string& workload : specbench::ParetoWorkloads()) {
    const size_t colon = workload.find(':');
    const std::string suite = workload.substr(0, colon);
    const std::string kernel = workload.substr(colon + 1);
    if (suite == "lebench") {
      ScopedSpan span("core.counters");
      add(specbench::MeasureLeBenchCounters(cpu, config, kernel));
    } else if (suite == "octane") {
      ScopedSpan span("workload.octane");
      add(specbench::MeasureOctaneCounters(cpu, specbench::JitConfig::AllOn(), config, kernel));
    } else {
      ScopedSpan span("workload.parsec");
      specbench::Parsec::RunKernel(kernel, cpu, config, /*seed=*/1);
    }
  }
  return cause_cycles;
}

// Re-runs the two halves of BuildParetoReport and checks them against the
// report it produced.
void ParetoProbes(const specbench::ParetoOptions& options, const specbench::ParetoReport& report,
                  Result* r) {
  specbench::SuiteOptions suite_options;
  suite_options.cpus = options.cpus;
  suite_options.trials = options.trials;
  suite_options.jobs = options.jobs;
  suite_options.base_seed = options.base_seed;
  int64_t t0 = NowNs();
  specbench::SuiteResult suite;
  {
    ScopedSpan span("attack.suite");
    suite = specbench::RunSuite(suite_options);
  }
  r->layers["attack.suite_s"] = static_cast<double>(NowNs() - t0) * 1e-9;
  double trials = 0;
  bool same = suite.cells.size() == report.suite.cells.size();
  for (size_t i = 0; same && i < suite.cells.size(); i++) {
    const specbench::SuiteCell& a = suite.cells[i];
    const specbench::SuiteCell& b = report.suite.cells[i];
    same = a.cpu == b.cpu && a.config == b.config && a.attack == b.attack &&
           a.attempted == b.attempted && a.defended == b.defended && a.trials == b.trials &&
           a.leaks == b.leaks;
    trials += a.trials;
  }
  r->layers["attack.trials"] = trials;
  if (!same) {
    r->errors.push_back("RunSuite disagrees with the pareto report's verdict matrix");
  }

  struct Job {
    const CpuModel* cpu;
    MitigationConfig config;
  };
  std::vector<Job> jobs;
  for (Uarch u : options.cpus) {
    for (const specbench::NamedConfig& named : specbench::MitigationConfigMatrix(GetCpuModel(u))) {
      jobs.push_back(Job{&GetCpuModel(u), named.config});
    }
  }
  std::vector<CauseCycles> cells(jobs.size());
  t0 = NowNs();
  {
    ScopedSpan span("runner.run");
    specbench::ThreadPool pool(static_cast<size_t>(options.jobs));
    for (size_t i = 0; i < jobs.size(); i++) {
      pool.Submit([&cells, &jobs, i] {
        ScopedSpan cell("runner.cell", static_cast<int>(i));
        cells[i] = MeasureBasketCell(*jobs[i].cpu, jobs[i].config);
      });
    }
    pool.Wait();
  }
  const int64_t basket_ns = NowNs() - t0;
  r->layers["core.pareto.basket_s"] = static_cast<double>(basket_ns) * 1e-9;
  r->layers["core.counters.calls"] = static_cast<double>(g_counters_calls.load());
  size_t i = 0;
  for (const specbench::CpuPareto& row : report.cpus) {
    for (const specbench::ConfigEvaluation& eval : row.configs) {
      if (i >= cells.size() || eval.cause_cycles != cells[i]) {
        r->errors.push_back("basket cause cycles differ for " + row.cpu + "/" + eval.config);
      }
      i++;
    }
  }
  if (i != cells.size()) {
    r->errors.push_back("pareto report and basket probe have different cell counts");
  }
}

// vm-lfs: the LFS half of RunSection44Vm, from public calls. Seed 1 gives
// every cell its fixed sample seeds 200/7200. Other seeds move each cell's
// seeds by a different amount: with one shared noise stream every cell would
// need the same number of samples, and the run's work would swing with the
// seed.
std::vector<specbench::VmWorkloadResult> RunVmLfs(uint64_t seed, Result* r) {
  std::vector<specbench::VmWorkloadResult> rows;
  std::ostringstream detail;
  int index = 0;
  double samples = 0;
  double converged = 0;
  double estimates = 0;
  ScopedSpan run("runner.run");
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const specbench::HostConfig host_on = specbench::HostConfig::Defaults(cpu);
    const specbench::HostConfig host_off = specbench::HostConfig::AllOff();
    const MitigationConfig guest = MitigationConfig::Defaults(cpu);
    for (const std::string& name : specbench::Lfs::KernelNames()) {
      const int cell_index = index++;
      ScopedSpan cell("runner.cell", cell_index);
      uint64_t exits = 0;
      const auto sample = [&](const specbench::HostConfig& host, const char* host_name,
                              uint64_t next_seed, bool record_exits) {
        return specbench::SampleUntilConverged([&] {
          g_tally.Note("lfs:" + name + "|" + UarchName(cpu.uarch) + "|" + host_name, cpu, guest);
          ScopedSpan span("workload.lfs");
          const specbench::LfsResult lfs =
              specbench::Lfs::RunKernel(name, cpu, guest, host, next_seed++);
          g_vm_exits += lfs.vm_exits;
          if (record_exits) {
            exits = lfs.vm_exits;
          }
          return lfs.cycles;
        });
      };
      const uint64_t shift = (seed - kDefaultSeed) * 10000 * static_cast<uint64_t>(cell_index + 1);
      const specbench::SampleResult on = sample(host_on, "host-on", 200 + shift, true);
      const specbench::SampleResult off = sample(host_off, "host-off", 7200 + shift, false);
      specbench::VmWorkloadResult row;
      row.cpu = UarchName(u);
      row.workload = "lfs-" + name;
      row.overhead_pct = specbench::RelativeOverheadPercent(on.estimate, off.estimate);
      row.vm_exits_protected = exits;
      rows.push_back(row);

      samples += static_cast<double>(on.samples + off.samples);
      converged += (on.converged ? 1 : 0) + (off.converged ? 1 : 0);
      estimates += 2;
      r->cells++;
      const bool ok = on.converged && off.converged && !on.saw_non_finite() &&
                      !off.saw_non_finite() && std::isfinite(row.overhead_pct.value) &&
                      std::isfinite(row.overhead_pct.ci95);
      if (!ok) {
        r->failed++;
        r->errors.push_back("cell " + row.cpu + "/" + row.workload + " failed");
      }
      detail << row.cpu << "|" << row.workload << "|" << JsonNumber(on.estimate.value) << "|"
             << JsonNumber(off.estimate.value) << "|" << JsonNumber(row.overhead_pct.value) << "|"
             << JsonNumber(row.overhead_pct.ci95) << "|" << exits << "\n";
    }
  }
  r->counts["runner.cells"] = static_cast<double>(rows.size());
  r->counts["stats.samples"] = samples;
  r->counts["hv.vm_exits"] = static_cast<double>(g_vm_exits.load());
  if (TracingEnabled()) {
    r->layers["stats.samples"] = samples;
    r->layers["stats.converged_frac"] = converged / estimates;
  }
  r->output = detail.str();
  return rows;
}

// The LFS rows of RenderSection44, one per line with cells trimmed and
// joined by '|' — column widths depend on which rows are rendered.
std::string Section44LfsRows(const std::vector<specbench::VmWorkloadResult>& rows) {
  ScopedSpan span("runner.emit");
  std::istringstream table(specbench::RenderSection44(rows));
  std::string line;
  std::string out;
  while (std::getline(table, line)) {
    if (line.find("| lfs-") == std::string::npos) {
      continue;
    }
    std::istringstream cells(line);
    std::string cell;
    std::string joined;
    while (std::getline(cells, cell, '|')) {
      const size_t b = cell.find_first_not_of(' ');
      const size_t e = cell.find_last_not_of(' ');
      joined += (joined.empty() ? "" : "|") +
                (b == std::string::npos ? std::string() : cell.substr(b, e - b + 1));
    }
    out += joined + "\n";
  }
  return out;
}

// Per-call costs the trace cannot split out of RunKernel yet: building a
// kernel, constructing a machine, and re-acquiring a pooled one.
void Probes(Result* r) {
  std::vector<std::pair<Uarch, MitigationConfig>> kernels;
  for (const auto& [key, kernel] : g_tally.kernels) {
    kernels.push_back(kernel);
  }
  if (kernels.empty()) {
    for (Uarch u : AllUarches()) {
      kernels.emplace_back(u, MitigationConfig::Defaults(GetCpuModel(u)));
    }
  }
  int64_t t0 = NowNs();
  for (const auto& [u, config] : kernels) {
    specbench::Kernel kernel(GetCpuModel(u), config);
    kernel.builder().BindSymbol("user_main");
    kernel.builder().Halt();
    kernel.Finalize();
  }
  r->layers["os.kernel_build_us"] =
      static_cast<double>(NowNs() - t0) * 1e-3 / static_cast<double>(kernels.size());

  constexpr int kRepeats = 3;
  const std::vector<Uarch> cpus = AllUarches();
  t0 = NowNs();
  for (int i = 0; i < kRepeats; i++) {
    for (Uarch u : cpus) {
      specbench::Machine machine(GetCpuModel(u));
    }
  }
  r->layers["uarch.machine_ctor_us"] =
      static_cast<double>(NowNs() - t0) * 1e-3 / static_cast<double>(kRepeats * cpus.size());

  constexpr int kAcquires = 20;
  specbench::MachinePool pool;
  for (Uarch u : cpus) {
    pool.Acquire(GetCpuModel(u));  // constructs; the timed calls below reuse
  }
  t0 = NowNs();
  for (int i = 0; i < kAcquires; i++) {
    for (Uarch u : cpus) {
      pool.Acquire(GetCpuModel(u));
    }
  }
  r->layers["uarch.pool_acquire_us"] =
      static_cast<double>(NowNs() - t0) * 1e-3 / static_cast<double>(kAcquires * cpus.size());
}

// Folds the trace into the per-layer metrics.
void LayersFromTrace(int workers, Result* r, int* cells_checked, int* cells_unbalanced) {
  const TraceSummary trace = SummarizeTrace();
  *cells_checked = trace.cells_checked;
  *cells_unbalanced = trace.cells_unbalanced;
  const auto get = [&trace](const std::string& name) -> const SpanStats& {
    static const SpanStats kEmpty;
    auto it = trace.by_name.find(name);
    return it == trace.by_name.end() ? kEmpty : it->second;
  };
  const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };

  const SpanStats& cells = get("runner.cell");
  r->layers["runner.cells"] = static_cast<double>(cells.durations_ns.size());
  r->layers["runner.cell_ms_p50"] = PercentileMs(cells.durations_ns, 0.5);
  r->layers["runner.cell_ms_max"] = PercentileMs(cells.durations_ns, 1.0);
  r->layers["runner.pool_util"] =
      ratio(static_cast<double>(cells.total_ns),
            static_cast<double>(workers) * static_cast<double>(get("runner.run").total_ns));
  r->layers["runner.emit_ms"] = Ms(get("runner.emit").total_ns);
  r->layers["core.attribute.self_ms"] = Ms(get("core.attribute").self_ns);

  const SpanStats& lebench = get("workload.lebench");
  r->layers["workload.lebench.calls"] = static_cast<double>(lebench.durations_ns.size());
  r->layers["workload.lebench.ms_p50"] = PercentileMs(lebench.durations_ns, 0.5);
  r->layers["workload.lebench.ms_p99"] = PercentileMs(lebench.durations_ns, 0.99);
  r->layers["workload.lebench.busy_s"] = static_cast<double>(lebench.total_ns) * 1e-9;
  r->layers["workload.repeat_frac"] =
      ratio(static_cast<double>(g_tally.repeats), static_cast<double>(g_tally.calls));

  const SpanStats& lfs = get("workload.lfs");
  r->layers["workload.lfs.calls"] = static_cast<double>(lfs.durations_ns.size());
  r->layers["workload.lfs.ms_p50"] = PercentileMs(lfs.durations_ns, 0.5);
  r->layers["hv.vm_exits"] = static_cast<double>(g_vm_exits.load());
  r->layers["hv.us_per_exit"] =
      ratio(static_cast<double>(lfs.total_ns) * 1e-3, static_cast<double>(g_vm_exits.load()));

  r->layers["uarch.detailed.ns_per_instr"] =
      ratio(static_cast<double>(get("uarch.detailed").total_ns),
            static_cast<double>(g_retired_detailed.load()));
  r->layers["uarch.fast.ns_per_instr"] = ratio(static_cast<double>(get("uarch.fast").total_ns),
                                               static_cast<double>(g_retired_fast.load()));
  r->layers["difftest.generate_ms"] = Ms(get("difftest.generate").total_ns);
  r->layers["difftest.reference_ms"] = Ms(get("difftest.reference").total_ns);
  const auto divergences = r->counts.find("difftest.divergences");
  r->layers["difftest.divergences"] = divergences == r->counts.end() ? 0.0 : divergences->second;
  r->layers["workload.octane.busy_s"] = static_cast<double>(get("workload.octane").total_ns) * 1e-9;
  r->layers["workload.parsec.busy_s"] = static_cast<double>(get("workload.parsec").total_ns) * 1e-9;

  if (g_tally.calls != 0) {
    r->counts["workload.lebench.calls"] = r->layers["workload.lebench.calls"];
    r->counts["workload.repeat_frac"] = r->layers["workload.repeat_frac"];
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      args.workload = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      args.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--part=", 0) == 0) {
      args.part = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      args.jobs = std::atoi(arg.c_str() + 7);
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--setup-only") {
      args.setup_only = true;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (args.jobs < 1) {
    std::fprintf(stderr, "perfbench_driver: --jobs must be >= 1\n");
    return 2;
  }
  if (args.trace) {
    EnableTracing();
  }

  // Set-up: CPU catalog, the workload's inputs, and the worker pool.
  for (Uarch u : AllUarches()) {
    GetCpuModel(u);
  }
  const std::string& w = args.workload;
  int workers = args.jobs;
  specbench::Sweep sweep;
  std::unique_ptr<specbench::ThreadPool> pool;
  const uint64_t window =
      ((args.seed - kDefaultSeed) * kDifftestParts + args.part % kDifftestParts) & 0xffffffffULL;
  const uint64_t difftest_begin = window * kDifftestSeeds;
  const uint64_t difftest_end = difftest_begin + kDifftestSeeds;
  // Identifies the inputs: iterations with equal inputs must agree exactly.
  std::string input = "seed=" + std::to_string(args.seed);
  if (w == "difftest") {
    input = "seeds=" + std::to_string(difftest_begin) + ":" + std::to_string(difftest_end);
  }
  const bool default_input = w == "difftest" ? difftest_begin == 0 : args.seed == kDefaultSeed;
  specbench::ParetoOptions pareto;
  pareto.jobs = args.jobs;
  pareto.base_seed = args.seed;
  if (w == "fig2" || w == "difftest") {
    sweep = w == "fig2" ? Fig2Sweep() : DifftestSweep(difftest_begin, difftest_end);
    pool = std::make_unique<specbench::ThreadPool>(static_cast<size_t>(args.jobs));
  } else if (w == "vm-lfs") {
    workers = 1;  // serial, as RunSection44Vm runs
  } else if (w != "pareto") {
    std::fprintf(stderr, "perfbench_driver: unknown workload \"%s\"\n", w.c_str());
    return 2;
  }
  const double setup_end_s = static_cast<double>(NowNs()) * 1e-9;
  if (args.setup_only) {
    std::printf("{\"setup_end_s\":%s}\n", JsonNumber(setup_end_s).c_str());
    return 0;
  }

  // The timed span: the workload through to its rendered output.
  Result r;
  specbench::ParetoReport report;
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  if (w == "fig2" || w == "difftest") {
    const specbench::SweepResult result = RunSweep(sweep, pool.get(), args.jobs, args.seed);
    r.output = EmitJson(result);
    FinishSweep(result, &r);
  } else if (w == "pareto") {
    {
      ScopedSpan span("core.pareto.build");
      report = specbench::BuildParetoReport(pareto);
    }
    {
      ScopedSpan span("runner.emit");
      r.output = specbench::RenderParetoJson(report);
    }
  } else {
    const std::vector<specbench::VmWorkloadResult> rows = RunVmLfs(args.seed, &r);
    r.cli_output = Section44LfsRows(rows);
    r.output = r.cli_output + r.output;
  }
  const int64_t wall_ns = NowNs() - t0;
  const double cpu_s = CpuSeconds() - cpu0;
  if (r.cli_output.empty()) {
    r.cli_output = r.output;
  }

  if (w == "pareto") {
    double mismatches = 0;
    for (const specbench::SuiteCell& cell : report.suite.cells) {
      r.cells++;
      // The registry's claim must match the verdict: an attempted cell
      // leaks exactly when the claim says it is undefended.
      if (cell.attempted && cell.leaked() == cell.defended) {
        mismatches++;
        r.failed++;
        r.errors.push_back("claim mismatch " + cell.cpu + "/" + cell.config + "/" + cell.attack);
      }
    }
    for (const specbench::CpuPareto& row : report.cpus) {
      for (const specbench::ConfigEvaluation& eval : row.configs) {
        if (!std::isfinite(eval.overhead_pct)) {
          r.errors.push_back("non-finite overhead " + row.cpu + "/" + eval.config);
        }
      }
    }
    r.counts["attack.cells"] = static_cast<double>(report.suite.cells.size());
    r.counts["attack.claim_mismatch"] = mismatches;
    if (args.trace) {
      r.layers["attack.claim_mismatch"] = mismatches;
    }
  }

  int cells_checked = 0;
  int cells_unbalanced = 0;
  if (args.trace) {
    // Everything below runs after the timed span.
    const specbench::TraceCache::Stats cache = specbench::TraceCache::Global().stats();
    r.layers["uarch.trace_cache.hit_ratio"] = cache.hit_rate();
    r.layers["uarch.trace_cache.evictions"] = static_cast<double>(cache.evictions);
    r.layers["uarch.trace_cache.collisions"] = static_cast<double>(cache.collisions);
    if (w == "difftest") {
      DifftestFastPass(difftest_begin, difftest_end, &r);
    } else if (w == "pareto") {
      ParetoProbes(pareto, report, &r);
    }
    pool.reset();  // joins the workers before their span buffers are read
    LayersFromTrace(workers, &r, &cells_checked, &cells_unbalanced);
    Probes(&r);
  }

  std::string errors = "[";
  for (const std::string& e : r.errors) {
    errors += (errors.size() > 1 ? "," : "") + JsonString(e);
  }
  errors += "]";
  std::printf(
      "{\"input\":%s,\"default_input\":%s,\"setup_end_s\":%s,\"wall_s\":%s,"
      "\"cpu_s\":%s,\"peak_rss_mb\":%s,\"digest\":\"%s\",\"cli_digest\":\"%s\","
      "\"cells\":%zu,\"failed\":%zu,\"errors\":%s,\"counts\":%s,\"layers\":%s,"
      "\"cells_checked\":%d,\"cells_unbalanced\":%d,"
      "\"build\":{\"type\":%s,\"flags\":%s,\"compiler\":%s}}\n",
      JsonString(input).c_str(), default_input ? "true" : "false", JsonNumber(setup_end_s).c_str(),
      JsonNumber(static_cast<double>(wall_ns) * 1e-9).c_str(),
      JsonNumber(cpu_s).c_str(), JsonNumber(PeakRssMb()).c_str(), Hex(Fnv1a64(r.output)).c_str(),
      Hex(Fnv1a64(r.cli_output)).c_str(), r.cells, r.failed, errors.c_str(),
      JsonObject(r.counts).c_str(), JsonObject(r.layers).c_str(), cells_checked, cells_unbalanced,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str());
  return 0;
}

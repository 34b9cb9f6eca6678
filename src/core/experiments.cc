#include "src/core/experiments.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "src/attack/attacks.h"
#include "src/attack/speculation_probe.h"
#include "src/core/paper_expectations.h"
#include "src/isa/program.h"
#include "src/os/kernel.h"
#include "src/uarch/machine.h"
#include "src/util/text_table.h"
#include "src/workload/lebench.h"
#include "src/workload/lfs.h"
#include "src/workload/measurement.h"
#include "src/workload/octane.h"
#include "src/workload/parsec.h"

namespace specbench {

namespace {

std::string Check(bool value) { return value ? "yes" : ""; }

std::string OptStr(const std::optional<double>& value, int decimals = 0) {
  return value.has_value() ? FormatDouble(*value, decimals) : "N/A";
}

}  // namespace

std::string RenderTable1MitigationMatrix() {
  TextTable t;
  std::vector<std::string> header = {"Attack / Mitigation"};
  for (Uarch u : AllUarches()) {
    header.push_back(UarchName(u));
  }
  t.SetHeader(header);

  struct Row {
    std::string label;
    std::function<std::string(const CpuModel&, const MitigationConfig&)> cell;
  };
  const std::vector<Row> rows = {
      {"Meltdown: Page Table Isolation",
       [](const CpuModel&, const MitigationConfig& c) { return Check(c.pti); }},
      {"L1TF: PTE Inversion",
       [](const CpuModel&, const MitigationConfig& c) { return Check(c.l1tf_pte_inversion); }},
      {"L1TF: Flush L1 Cache",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.l1d_flush_on_vmentry);
       }},
      {"LazyFP: Always save FPU",
       [](const CpuModel&, const MitigationConfig& c) { return Check(c.eager_fpu); }},
      {"Spectre V1: Index Masking",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.kernel_index_masking);
       }},
      {"Spectre V1: lfence after swapgs",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.lfence_after_swapgs);
       }},
      {"Spectre V2: Generic Retpoline",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.retpoline == RetpolineMode::kGeneric);
       }},
      {"Spectre V2: AMD Retpoline",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.retpoline == RetpolineMode::kAmd);
       }},
      {"Spectre V2: Enhanced IBRS",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.ibrs == IbrsMode::kEibrs);
       }},
      {"Spectre V2: RSB Stuffing",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.rsb_stuff_on_context_switch);
       }},
      {"Spectre V2: IBPB",
       [](const CpuModel&, const MitigationConfig& c) {
         return Check(c.ibpb_on_context_switch);
       }},
      {"Spec. Store Bypass: SSBD",
       [](const CpuModel&, const MitigationConfig& c) {
         return c.ssbd == SsbdMode::kOff ? std::string("") : std::string("!");
       }},
      {"MDS: Flush CPU Buffers",
       [](const CpuModel&, const MitigationConfig& c) { return Check(c.mds_clear_buffers); }},
      {"MDS: Disable SMT",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         if (!cpu.vuln.mds) {
           return std::string("");
         }
         return c.smt_off ? std::string("yes") : std::string("!");
       }},
  };
  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.label};
    for (Uarch u : AllUarches()) {
      const CpuModel& cpu = GetCpuModel(u);
      cells.push_back(row.cell(cpu, MitigationConfig::Defaults(cpu)));
    }
    t.AddRow(cells);
  }
  std::ostringstream out;
  out << "Table 1. Default mitigations used by the simulated kernel on each processor.\n"
      << "('yes' = enabled by default; '!' = needed but not enabled by default;\n"
      << " blank = not required on this CPU.)\n\n"
      << t.Render();
  return out.str();
}

std::string RenderTable2CpuInfo() {
  TextTable t;
  t.SetHeader({"Vendor", "Model", "Microarchitecture", "Power (W)", "Clock (GHz)", "Cores",
               "SMT"});
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    t.AddRow({VendorName(cpu.vendor), cpu.model_name, cpu.uarch_name,
              std::to_string(cpu.power_watts), FormatDouble(cpu.clock_ghz, 2),
              std::to_string(cpu.cores), cpu.smt ? "2-way" : "no"});
  }
  return "Table 2. The CPUs the simulator models.\n\n" + t.Render();
}

// RunFigure2LeBench / RunFigure3Octane / RunSection45Parsec live in
// sweep_grids.cc: their cell grids are registered with the deterministic
// parallel runner instead of looping serially here.

namespace {

// Stacked per-mitigation bars (segments under 0.05% omitted), then the
// per-CPU totals with their CIs and the paper's expectation.
std::string RenderAttributionFigure(const std::string& title,
                                    const std::vector<AttributionReport>& reports,
                                    const std::string& expectation) {
  std::vector<Bar> bars;
  for (const AttributionReport& report : reports) {
    Bar bar;
    bar.label = report.cpu;
    bar.error = report.total_overhead_pct.ci95;
    for (const AttributionSegment& segment : report.segments) {
      if (segment.overhead_pct.value > 0.05) {
        bar.segments.push_back(BarSegment{segment.label, segment.overhead_pct.value});
      }
    }
    bars.push_back(bar);
  }
  std::string out = RenderBarChart(title, bars) + "\nPer-CPU totals (95% CI):\n";
  for (const AttributionReport& report : reports) {
    Appendf(out, "  %-16s %6.1f%% +/- %.1f%%\n", report.cpu.c_str(),
            report.total_overhead_pct.value, report.total_overhead_pct.ci95);
  }
  return out + "\nPaper expectation: " + expectation;
}

}  // namespace

std::string RenderFigure2(const std::vector<AttributionReport>& reports) {
  return RenderAttributionFigure(
      "Figure 2. Overhead of mitigations on the LEBench suite (per-mitigation stack)", reports,
      ">30% on Broadwell/Skylake, declining to <3% on the\n"
      "newest parts; nearly all of it from a small number of mitigations\n"
      "(PTI, MDS buffer clearing, Spectre V2), with Spectre V1 not measurable.");
}

std::string RenderFigure3(const std::vector<AttributionReport>& reports) {
  return RenderAttributionFigure(
      "Figure 3. Slowdown on the Octane 2 suite from JavaScript and OS mitigations", reports,
      "15-25% on every CPU, roughly half from JS-level\n"
      "Spectre V1 mitigations (~4% index masking, ~6% object mitigations) and\n"
      "a visible SSBD slice because the browser is a seccomp process.");
}

namespace {

// Guest workload for the LEBench-in-VM experiment: a syscall-heavy loop with
// an occasional device interaction (the timer/virtio activity real guests
// have), so host mitigations act only on the rare exits. Returns exact
// (unnoised) cycles.
double SimulateGuestLeBenchLike(const CpuModel& cpu, const MitigationConfig& guest_config,
                                const HostConfig& host) {
  Kernel kernel(cpu, guest_config);
  Hypervisor hv(kernel, host);
  ProgramBuilder& b = kernel.builder();
  b.BindSymbol("guest_main");
  Label outer = b.NewLabel();
  Label inner = b.NewLabel();
  b.MovImm(3, 8);  // outer chunks
  b.Bind(outer);
  b.MovImm(4, 16);  // syscalls per chunk
  b.Bind(inner);
  kernel.EmitSyscall(b, Sys::kGetpid);
  b.AluImm(AluOp::kSub, 4, 4, 1);
  b.BranchNz(4, inner);
  // One device I/O per chunk (timer tick / virtio kick).
  b.MovImm(0, static_cast<int64_t>(kUserDataVaddr));
  b.MovImm(1, 512);
  b.MovImm(2, 0);
  kernel.EmitSyscall(b, kSysDiskIo);
  b.AluImm(AluOp::kSub, 3, 3, 1);
  b.BranchNz(3, outer);
  b.Halt();
  kernel.Finalize();
  return static_cast<double>(kernel.Run("guest_main").cycles);
}

double RunGuestLeBenchLike(const CpuModel& cpu, const HostConfig& host, uint64_t seed) {
  static ExactResultMemo<std::pair<MitigationConfig, HostConfig>, double> memo;
  const MitigationConfig guest_config = MitigationConfig::Defaults(cpu);
  const double cycles = memo.Get(cpu, {guest_config, host}, [&] {
    return SimulateGuestLeBenchLike(cpu, guest_config, host);
  });
  return ApplyNoise(cycles, seed, 0.012);
}

// Samples `run` with host mitigations on, then off, each side from its own
// fixed seed stream, and returns the on-vs-off overhead.
Estimate HostOverheadPct(const std::function<double(bool host_on, uint64_t seed)>& run,
                         uint64_t seed_on, uint64_t seed_off, const SamplerOptions& options) {
  const Estimate on = SampleUntilConverged([&] { return run(true, seed_on++); }, options).estimate;
  const Estimate off =
      SampleUntilConverged([&] { return run(false, seed_off++); }, options).estimate;
  return RelativeOverheadPercent(on, off);
}

}  // namespace

std::vector<VmWorkloadResult> RunSection44Vm(const SamplerOptions& options,
                                             const std::vector<Uarch>& cpus) {
  std::vector<VmWorkloadResult> results;
  for (Uarch u : cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    const HostConfig host_on = HostConfig::Defaults(cpu);
    const HostConfig host_off = HostConfig::AllOff();

    // LEBench-like guest.
    VmWorkloadResult guest;
    guest.cpu = UarchName(u);
    guest.workload = "lebench-in-vm";
    guest.overhead_pct = HostOverheadPct(
        [&](bool on, uint64_t seed) {
          return RunGuestLeBenchLike(cpu, on ? host_on : host_off, seed);
        },
        100, 5100, options);
    results.push_back(guest);

    // LFS smallfile / largefile against the emulated disk.
    for (const std::string& name : Lfs::KernelNames()) {
      VmWorkloadResult r;
      r.cpu = UarchName(u);
      r.workload = "lfs-" + name;
      r.overhead_pct = HostOverheadPct(
          [&](bool on, uint64_t seed) {
            const LfsResult lfs = Lfs::RunKernel(name, cpu, MitigationConfig::Defaults(cpu),
                                                 on ? host_on : host_off, seed);
            if (on) {
              r.vm_exits_protected = lfs.vm_exits;
            }
            return lfs.cycles;
          },
          200, 7200, options);
      results.push_back(r);
    }
  }
  return results;
}

std::string RenderSection44(const std::vector<VmWorkloadResult>& results) {
  TextTable t;
  t.SetHeader({"CPU", "Workload", "Host-mitigation overhead", "95% CI", "VM exits"});
  for (const VmWorkloadResult& r : results) {
    t.AddRow({r.cpu, r.workload, FormatPercent(r.overhead_pct.value),
              "+/-" + FormatPercent(r.overhead_pct.ci95),
              r.vm_exits_protected != 0 ? std::to_string(r.vm_exits_protected) : ""});
  }
  return "Section 4.4. Virtual machine workloads: host mitigations on vs off.\n"
         "(Paper: LEBench-in-VM within +/-3%; LFS small/largefile ~<2% median,\n"
         " high run-to-run variability.)\n\n" +
         t.Render();
}

std::string RenderSection45(const std::vector<ParsecDefaultResult>& results) {
  TextTable t;
  t.SetHeader({"CPU", "Kernel", "Default-mitigation overhead", "95% CI"});
  for (const ParsecDefaultResult& r : results) {
    t.AddRow({r.cpu, r.kernel, FormatPercent(r.overhead_pct.value, 2),
              "+/-" + FormatPercent(r.overhead_pct.ci95, 2)});
  }
  return "Section 4.5. PARSEC kernels under default mitigations.\n"
         "(Paper: usually within +/-0.5%, never more than 2%.)\n\n" +
         t.Render();
}

std::string RenderTable3EntryExit() {
  TextTable t;
  t.SetHeader({"CPU", "syscall", "paper", "sysret", "paper", "swap cr3", "paper"});
  for (Uarch u : AllUarches()) {
    const EntryExitCosts costs = MeasureEntryExit(GetCpuModel(u));
    const PaperTable3Row paper = PaperTable3(u);
    t.AddRow({UarchName(u), FormatCycles(costs.syscall), FormatCycles(paper.syscall),
              FormatCycles(costs.sysret), FormatCycles(paper.sysret),
              GetCpuModel(u).vuln.meltdown ? FormatCycles(costs.swap_cr3) : "N/A",
              OptStr(paper.swap_cr3)});
  }
  return "Table 3. Cycles for syscall / sysret and (on vulnerable parts) the PTI\n"
         "page-table swap. 'paper' columns are the published measurements.\n\n" +
         t.Render();
}

std::string RenderTable4Verw() {
  TextTable t;
  t.SetHeader({"Vendor", "CPU", "verw cycles", "paper"});
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const double measured = MeasureVerw(cpu);
    t.AddRow({VendorName(cpu.vendor), UarchName(u),
              cpu.vuln.mds ? FormatCycles(measured) : "N/A (" + FormatCycles(measured) + ")",
              OptStr(PaperTable4(u))});
  }
  return "Table 4. Cycles to clear microarchitectural buffers with verw. On parts\n"
         "that are not MDS-vulnerable, verw retains only its cheap legacy behaviour\n"
         "(shown in parentheses).\n\n" +
         t.Render();
}

std::string RenderTable5IndirectBranch() {
  TextTable t;
  t.SetHeader({"CPU", "Baseline", "paper", "IBRS", "paper", "Generic", "paper", "AMD",
               "paper"});
  for (Uarch u : AllUarches()) {
    const IndirectBranchCosts costs = MeasureIndirectBranch(GetCpuModel(u));
    const PaperTable5Row paper = PaperTable5(u);
    auto delta = [&](double value) {
      return value < 0 ? std::string("N/A") : "+" + FormatCycles(value - costs.baseline);
    };
    auto paper_delta = [](const std::optional<double>& value) {
      return value.has_value() ? "+" + FormatCycles(*value) : std::string("N/A");
    };
    t.AddRow({UarchName(u), FormatCycles(costs.baseline), FormatCycles(paper.baseline),
              delta(costs.ibrs), paper_delta(paper.ibrs_delta), delta(costs.generic_retpoline),
              "+" + FormatCycles(paper.generic_delta), delta(costs.amd_retpoline),
              paper_delta(paper.amd_delta)});
  }
  return "Table 5. Cycles for an indirect branch: baseline, then deltas with IBRS,\n"
         "generic retpolines, and AMD (lfence) retpolines.\n\n" +
         t.Render();
}

std::string RenderTable6Ibpb() {
  TextTable t;
  t.SetHeader({"Vendor", "CPU", "IBPB cycles", "paper"});
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    t.AddRow({VendorName(cpu.vendor), UarchName(u), FormatCycles(MeasureIbpb(cpu)),
              FormatCycles(PaperTable6Ibpb(u))});
  }
  return "Table 6. Cycles for an indirect branch prediction barrier.\n\n" + t.Render();
}

std::string RenderTable7RsbStuff() {
  TextTable t;
  t.SetHeader({"Vendor", "CPU", "RSB fill cycles", "paper"});
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    t.AddRow({VendorName(cpu.vendor), UarchName(u), FormatCycles(MeasureRsbStuff(cpu)),
              FormatCycles(PaperTable7RsbStuff(u))});
  }
  return "Table 7. Cycles to stuff the RSB.\n\n" + t.Render();
}

std::string RenderTable8Lfence() {
  TextTable t;
  t.SetHeader({"Vendor", "CPU", "lfence cycles", "paper"});
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    t.AddRow({VendorName(cpu.vendor), UarchName(u), FormatCycles(MeasureLfence(cpu)),
              FormatCycles(PaperTable8Lfence(u))});
  }
  return "Table 8. Cycles for a single lfence in a loop.\n\n" + t.Render();
}

std::vector<Fig5Row> RunFigure5Ssbd(const std::vector<Uarch>& cpus) {
  std::vector<Fig5Row> rows;
  for (Uarch u : cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    MitigationConfig ssbd = MitigationConfig::AllOff();
    ssbd.ssbd = SsbdMode::kAlways;
    Fig5Row row;
    row.cpu = UarchName(u);
    auto slowdown = [&](const std::string& name) {
      const double off = Parsec::RunKernel(name, cpu, MitigationConfig::AllOff(), 41);
      const double on = Parsec::RunKernel(name, cpu, ssbd, 42);
      return (on / off - 1.0) * 100.0;
    };
    row.swaptions_pct = slowdown("swaptions");
    row.facesim_pct = slowdown("facesim");
    row.bodytrack_pct = slowdown("bodytrack");
    rows.push_back(row);
  }
  return rows;
}

std::string RenderFigure5(const std::vector<Fig5Row>& rows) {
  std::vector<Bar> bars;
  for (const Fig5Row& row : rows) {
    bars.push_back(Bar{row.cpu + " swaptions", {{"swaptions", row.swaptions_pct}}, 0});
    bars.push_back(Bar{row.cpu + " facesim", {{"facesim", row.facesim_pct}}, 0});
    bars.push_back(Bar{row.cpu + " bodytrack", {{"bodytrack", row.bodytrack_pct}}, 0});
  }
  return RenderBarChart(
      "Figure 5. Slowdown from force-enabling Speculative Store Bypass Disable\n"
      "on the PARSEC kernels (paper: up to ~34%, trending worse on newer parts)",
      bars);
}

std::string RenderTables9And10() {
  std::ostringstream out;
  for (bool ibrs : {false, true}) {
    TextTable t;
    std::vector<std::string> header = {"CPU"};
    for (const ProbeCase& c : Table9Columns(ibrs)) {
      header.push_back(ProbeCaseName(c));
    }
    t.SetHeader(header);
    for (Uarch u : AllUarches()) {
      SpeculationProbe probe(GetCpuModel(u));
      std::vector<std::string> cells = {UarchName(u)};
      for (const ProbeCase& c : Table9Columns(ibrs)) {
        const ProbeOutcome outcome = probe.Run(c);
        cells.push_back(outcome == ProbeOutcome::kSpeculated
                            ? "yes"
                            : (outcome == ProbeOutcome::kUnsupported ? "N/A" : ""));
      }
      t.AddRow(cells);
    }
    out << (ibrs ? "Table 10. Same, with IBRS *enabled*.\n"
                 : "Table 9. Whether a BTB entry trained in mode X steers speculation of a\n"
                   "victim indirect branch in mode Y, IBRS disabled ('yes' = divider PMC\n"
                   "observed transient execution at the trained target).\n")
        << "\n"
        << t.Render() << "\n";
  }
  // The Zen 3 control experiment from §6.2.
  SpeculationProbe zen3(GetCpuModel(Uarch::kZen3));
  out << "Zen 3 same-call-site control (train and probe share a caller context): "
      << ProbeOutcomeName(zen3.RunSameSiteControl()) << "\n";
  return out.str();
}

std::string RenderEibrsBimodal() {
  std::ostringstream out;
  out << "Section 6.2.2. Kernel-entry latency distribution with eIBRS: most\n"
         "entries are fast, but every Nth entry pays ~210 extra cycles while the\n"
         "kernel predictor state is scrubbed.\n\n";
  for (Uarch u : {Uarch::kCascadeLake, Uarch::kIceLakeClient, Uarch::kIceLakeServer}) {
    const CpuModel& cpu = GetCpuModel(u);
    Machine m(cpu);
    m.SetIbrs(true);
    m.SetReg(kRegSp, 0x70000000);
    ProgramBuilder b;
    Label entry = b.NewLabel();
    b.Syscall();
    b.Halt();
    b.Bind(entry);
    b.Sysret();
    Program p = b.Build();
    m.LoadProgram(&p);
    m.SetSyscallEntry(p.VaddrOf(2));
    uint64_t fast = 0;
    uint64_t slow = 0;
    double fast_sum = 0;
    double slow_sum = 0;
    for (int i = 0; i < 200; i++) {
      const uint64_t before = m.cycles();
      m.Run(p.VaddrOf(0));
      const uint64_t cost = m.cycles() - before;
      if (cost > cpu.latency.syscall + cpu.latency.sysret + 100) {
        slow++;
        slow_sum += static_cast<double>(cost);
      } else {
        fast++;
        fast_sum += static_cast<double>(cost);
      }
    }
    out << UarchName(u) << ": " << fast << " fast entries (avg "
        << FormatCycles(fast ? fast_sum / static_cast<double>(fast) : 0) << " cyc), " << slow
        << " slow entries (avg "
        << FormatCycles(slow ? slow_sum / static_cast<double>(slow) : 0)
        << " cyc); every " << (slow != 0 ? 200 / slow : 0) << "th entry is slow\n";
  }
  return out.str();
}

namespace {

double LeBenchGeomean(const CpuModel& cpu, const MitigationConfig& config, uint64_t seed) {
  return LeBench::SuiteGeomean(LeBench::RunSuite(cpu, config, seed));
}

double OctaneScore(const CpuModel& cpu, const JitConfig& jit, const MitigationConfig& os,
                   uint64_t seed) {
  return Octane::SuiteScore(Octane::RunSuite(cpu, jit, os, seed));
}

const char* Outcome(const AttackResult& result) { return result.leaked ? "LEAK" : "safe"; }

}  // namespace

// Why Linux rejected legacy IBRS ("viewed as unacceptably high"), settled on
// retpolines for old parts, and switched to eIBRS where silicon provides it.
std::string RenderAblationSpectreV2() {
  std::string out =
      "LEBench overhead of each Spectre V2 strategy (vs no V2 mitigation),\n"
      "with all other mitigations at their per-CPU defaults.\n\n";
  Appendf(out, "%-16s %12s %12s %12s %12s\n", "CPU", "generic", "amd-lfence", "legacy IBRS",
          "eIBRS");
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    MitigationConfig base = MitigationConfig::Defaults(cpu);
    base.retpoline = RetpolineMode::kNone;
    base.ibrs = IbrsMode::kOff;
    const double none = LeBenchGeomean(cpu, base, 1);
    // "n/a" where the CPU cannot run the strategy.
    auto overhead = [&](bool supported, RetpolineMode retpoline, IbrsMode ibrs) {
      if (!supported) {
        return std::string("n/a");
      }
      MitigationConfig c = base;
      c.retpoline = retpoline;
      c.ibrs = ibrs;
      return FormatDouble((LeBenchGeomean(cpu, c, 2) / none - 1.0) * 100.0, 1) + "%";
    };
    Appendf(out, "%-16s %12s %12s %12s %12s\n", UarchName(u),
            overhead(true, RetpolineMode::kGeneric, IbrsMode::kOff).c_str(),
            overhead(cpu.vendor == Vendor::kAmd, RetpolineMode::kAmd, IbrsMode::kOff).c_str(),
            overhead(cpu.predictor.ibrs_supported && !cpu.predictor.eibrs, RetpolineMode::kNone,
                     IbrsMode::kLegacyIbrs)
                .c_str(),
            overhead(cpu.predictor.eibrs, RetpolineMode::kNone, IbrsMode::kEibrs).c_str());
  }
  return out +
         "\nExpected shape: legacy IBRS costs the most on pre-Spectre parts (an MSR\n"
         "write on every entry *and* no indirect prediction anywhere); retpolines\n"
         "are the cheaper software answer; eIBRS is nearly free where it exists.\n";
}

// "Both Broadwell and Skylake Client support PCIDs ... This allows many TLB
// flushes to be avoided, and makes TLB impacts marginal compared to the
// direct cost of switching the root page table pointer."
std::string RenderAblationPcid() {
  std::string out =
      "LEBench overhead of PTI, with and without PCID-tagged TLBs\n"
      "(Meltdown-vulnerable CPUs only).\n\n";
  Appendf(out, "%-16s %16s %16s %14s\n", "CPU", "PTI w/ PCID", "PTI w/o PCID", "TLB share");
  for (Uarch u : {Uarch::kBroadwell, Uarch::kSkylakeClient}) {
    const CpuModel& cpu = GetCpuModel(u);
    MitigationConfig off = MitigationConfig::Defaults(cpu);
    off.pti = false;
    const double base = LeBenchGeomean(cpu, off, 1);
    MitigationConfig pcid = off;
    pcid.pti = true;
    const double with_pcid = (LeBenchGeomean(cpu, pcid, 2) / base - 1.0) * 100.0;
    MitigationConfig nopcid = pcid;
    nopcid.pcid = false;
    const double without_pcid = (LeBenchGeomean(cpu, nopcid, 3) / base - 1.0) * 100.0;
    Appendf(out, "%-16s %15.1f%% %15.1f%% %13.1f%%\n", UarchName(u), with_pcid, without_pcid,
            without_pcid - with_pcid);
  }
  return out +
         "\nExpected shape: the no-PCID column is visibly worse — every cr3 write\n"
         "flushes the TLB, so each syscall restarts address translation cold.\n"
         "With PCID the extra cost is almost entirely the mov-cr3 itself.\n";
}

// (1) Linux 5.16 stopped applying SSBD to seccomp processes, which the paper
// predicted would drop Firefox's overhead unless Mozilla opts back in.
// (2) Speculative Load Hardening would make the JIT output fully
// Spectre-immune "albeit at considerable overhead".
std::string RenderAblationBrowserFuture() {
  std::string out = "Octane 2 total slowdown under browser mitigation futures.\n\n";
  Appendf(out, "%-16s %14s %14s %14s\n", "CPU", "pre-5.16", "post-5.16", "SLH-only");
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const double base = OctaneScore(cpu, JitConfig::AllOff(), MitigationConfig::AllOff(), 1);
    // Pre-Linux-5.16: seccomp processes get SSBD implicitly.
    MitigationConfig pre516 = MitigationConfig::Defaults(cpu);
    pre516.ssbd = SsbdMode::kSeccomp;
    const double pre = (base / OctaneScore(cpu, JitConfig::AllOn(), pre516, 2) - 1.0) * 100.0;
    // Post-5.16: prctl only; Firefox does not opt in.
    MitigationConfig post516 = MitigationConfig::Defaults(cpu);
    post516.ssbd = SsbdMode::kPrctl;
    const double post = (base / OctaneScore(cpu, JitConfig::AllOn(), post516, 3) - 1.0) * 100.0;
    // SLH instead of the targeted JIT mitigations (OS side post-5.16).
    const double slh = (base / OctaneScore(cpu, JitConfig::SlhOnly(), post516, 4) - 1.0) * 100.0;
    Appendf(out, "%-16s %13.1f%% %13.1f%% %13.1f%%\n", UarchName(u), pre, post, slh);
  }
  return out +
         "\nExpected shape: post-5.16 drops by roughly the SSBD slice (the paper's\n"
         "§7 prediction); SLH is comprehensive but costs more than the targeted\n"
         "index-masking + object-guard combination it would replace.\n";
}

// verw protects privilege transitions, but an SMT sibling samples fill
// buffers *while* the victim runs: only disabling hyperthreading closes that
// channel, which Linux nevertheless leaves on by default.
std::string RenderAblationSmtMds() {
  std::string out =
      "MDS across SMT siblings: can the attacker recover the victim's data?\n\n";
  Appendf(out, "%-16s %-22s %-22s %-22s\n", "CPU", "SMT on + verw", "SMT off + verw",
          "SMT off, no verw");
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    Appendf(out, "%-16s %-22s %-22s %-22s\n", UarchName(u),
            Outcome(RunMdsSmtAttack(cpu, MdsSmtOptions{true, true})),
            Outcome(RunMdsSmtAttack(cpu, MdsSmtOptions{false, true})),
            Outcome(RunMdsSmtAttack(cpu, MdsSmtOptions{false, false})));
  }
  return out +
         "\nExpected shape: on MDS-vulnerable parts (Broadwell, Skylake, Cascade\n"
         "Lake) the sibling leaks even though verw runs on every transition —\n"
         "the paper's reason Table 1 lists 'Disable SMT' as required-but-not-\n"
         "default. Fixed parts are safe in every column.\n";
}

// A hypothetical Ice-Lake-Server-class part with cmov+load fusion (the
// paper's suggested hardware handling of the JIT's Spectre V1 masking
// pattern) and the reserved ARCH_CAPABILITIES SSB_NO bit set.
std::string RenderAblationFutureHardware() {
  const CpuModel& future = FutureCpuModel();
  std::string out = "Octane 2 total slowdown, full browser mitigation stack:\n\n";
  for (const CpuModel* cpu : {&GetCpuModel(Uarch::kIceLakeServer), &future}) {
    MitigationConfig os = MitigationConfig::Defaults(*cpu);
    os.ssbd = SsbdMode::kSeccomp;  // the measurement-period default
    const double base = OctaneScore(*cpu, JitConfig::AllOff(), MitigationConfig::AllOff(), 1);
    const double with = OctaneScore(*cpu, JitConfig::AllOn(), os, 2);
    Appendf(out, "  %-28s %6.1f%%\n", cpu->uarch_name.c_str(), (base / with - 1.0) * 100.0);
  }
  out += "\nSecurity check on the future part (mitigations still configured):\n";
  const AttackResult v1 = RunSpectreV1Attack(future, /*index_masking=*/true);
  const AttackResult v1_fused_only = RunSpectreV1Attack(future, /*index_masking=*/true, 5);
  const AttackResult ssb = RunSsbAttack(future, /*ssbd=*/false);
  Appendf(out, "  Spectre V1 vs fused index masking: %s / %s\n", Outcome(v1),
          Outcome(v1_fused_only));
  Appendf(out, "  Spec. Store Bypass on SSB_NO silicon (no SSBD at all): %s\n", Outcome(ssb));
  return out +
         "\nExpected shape: the future part keeps every attack closed while the\n"
         "browser overhead drops to a fraction of today's — the paper's optimistic\n"
         "outlook ('there is reason to be optimistic', sec. 8) quantified.\n";
}

}  // namespace specbench

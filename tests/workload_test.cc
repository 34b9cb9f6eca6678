// Workload suites: sanity, determinism modulo noise, and the qualitative
// overheads the paper's evaluation section builds on.
#include <gtest/gtest.h>

#include <vector>

#include "src/workload/lebench.h"
#include "src/workload/lfs.h"
#include "src/workload/measurement.h"
#include "src/workload/octane.h"
#include "src/workload/parsec.h"

namespace specbench {
namespace {

TEST(Measurement, NoiseIsSmallAndSeeded) {
  const double a = ApplyNoise(1000.0, 1);
  const double b = ApplyNoise(1000.0, 1);
  const double c = ApplyNoise(1000.0, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(a, 1000.0, 100.0);
}

TEST(LeBenchSuite, FourteenKernels) {
  EXPECT_EQ(LeBench::KernelNames().size(), 14u);
}

TEST(LeBenchSuite, AllKernelsRunEverywhere) {
  for (Uarch u : {Uarch::kBroadwell, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    const auto results = LeBench::RunSuite(cpu, MitigationConfig::Defaults(cpu), 1);
    EXPECT_EQ(results.size(), 14u);
    for (const auto& [name, cycles] : results) {
      EXPECT_GT(cycles, 0.0) << name << " on " << UarchName(u);
    }
    EXPECT_GT(LeBench::SuiteGeomean(results), 0.0);
  }
}

TEST(LeBenchSuite, MitigationOverheadLargeOnBroadwellSmallOnIceLake) {
  // The paper's headline: >30% on old Intel, <3% on the newest parts.
  auto overhead = [](Uarch u) {
    const CpuModel& cpu = GetCpuModel(u);
    const double def =
        LeBench::SuiteGeomean(LeBench::RunSuite(cpu, MitigationConfig::Defaults(cpu), 1));
    const double off =
        LeBench::SuiteGeomean(LeBench::RunSuite(cpu, MitigationConfig::AllOff(), 2));
    return (def / off - 1.0) * 100.0;
  };
  const double broadwell = overhead(Uarch::kBroadwell);
  const double icelake = overhead(Uarch::kIceLakeServer);
  EXPECT_GT(broadwell, 15.0);
  EXPECT_LT(icelake, 8.0);
  EXPECT_GT(broadwell, icelake * 3);
}

TEST(LeBenchSuite, GetpidDominatedByBoundaryCost) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const double off = LeBench::RunKernel("getpid", cpu, MitigationConfig::AllOff(), 3);
  const double def = LeBench::RunKernel("getpid", cpu, MitigationConfig::Defaults(cpu), 3);
  // PTI (2x ~191 cyc) + verw (~518) on a ~1.4k-cycle null syscall.
  EXPECT_GT(def, off * 1.4);
}

TEST(LeBenchSuite, BigReadLessSensitiveThanGetpid) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  const double read_off = LeBench::RunKernel("big-read", cpu, MitigationConfig::AllOff(), 4);
  const double read_def =
      LeBench::RunKernel("big-read", cpu, MitigationConfig::Defaults(cpu), 4);
  const double getpid_off = LeBench::RunKernel("getpid", cpu, MitigationConfig::AllOff(), 4);
  const double getpid_def =
      LeBench::RunKernel("getpid", cpu, MitigationConfig::Defaults(cpu), 4);
  const double read_ovh = read_def / read_off;
  const double getpid_ovh = getpid_def / getpid_off;
  EXPECT_LT(read_ovh, getpid_ovh);  // more work amortizes the boundary cost
}

TEST(OctaneSuite, EightKernels) {
  EXPECT_EQ(Octane::KernelNames().size(), 8u);
}

TEST(OctaneSuite, AllKernelsRun) {
  const CpuModel& cpu = GetCpuModel(Uarch::kZen2);
  const auto results =
      Octane::RunSuite(cpu, JitConfig::AllOn(), MitigationConfig::Defaults(cpu), 1);
  EXPECT_EQ(results.size(), 8u);
  for (const auto& [name, score] : results) {
    EXPECT_GT(score, 0.0) << name;
  }
}

TEST(OctaneSuite, JitMitigationsReduceScore) {
  for (Uarch u : {Uarch::kSkylakeClient, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    const MitigationConfig os = MitigationConfig::AllOff();
    const double with =
        Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOn(), os, 5));
    const double without =
        Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOff(), os, 6));
    EXPECT_LT(with, without) << UarchName(u);
    // The paper: total browser overhead stays in the 15-25% band; JS-side
    // mitigations account for roughly half. Loose sanity bounds here.
    const double slowdown = (1.0 - with / without) * 100.0;
    EXPECT_GT(slowdown, 2.0) << UarchName(u);
    EXPECT_LT(slowdown, 40.0) << UarchName(u);
  }
}

TEST(OctaneSuite, IndexMaskingAloneCostsAFewPercent) {
  const CpuModel& cpu = GetCpuModel(Uarch::kIceLakeServer);
  const MitigationConfig os = MitigationConfig::AllOff();
  JitConfig only_masking = JitConfig::AllOff();
  only_masking.index_masking = true;
  const double base = Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOff(), os, 7));
  const double masked = Octane::SuiteScore(Octane::RunSuite(cpu, only_masking, os, 8));
  const double slowdown = (1.0 - masked / base) * 100.0;
  EXPECT_GT(slowdown, 0.5);
  EXPECT_LT(slowdown, 15.0);
}

TEST(OctaneSuite, SeccompSsbdSlowsTheBrowser) {
  // Firefox is a seccomp process: under the kSeccomp policy it runs with
  // SSBD even though ordinary processes do not (paper §4.3).
  const CpuModel& cpu = GetCpuModel(Uarch::kZen3);
  MitigationConfig with_ssbd = MitigationConfig::AllOff();
  with_ssbd.ssbd = SsbdMode::kSeccomp;
  MitigationConfig no_ssbd = MitigationConfig::AllOff();
  const double slow =
      Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOff(), with_ssbd, 9));
  const double fast =
      Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOff(), no_ssbd, 10));
  EXPECT_LT(slow, fast);
}

TEST(ParsecSuite, ThreeKernels) {
  EXPECT_EQ(Parsec::KernelNames().size(), 3u);
}

TEST(ParsecSuite, DefaultMitigationsNearlyFree) {
  // §4.5: total runtime usually within +-0.5%, never more than 2%.
  for (Uarch u : {Uarch::kBroadwell, Uarch::kCascadeLake, Uarch::kZen2}) {
    const CpuModel& cpu = GetCpuModel(u);
    for (const std::string& name : Parsec::KernelNames()) {
      const double off = Parsec::RunKernel(name, cpu, MitigationConfig::AllOff(), 11);
      const double def = Parsec::RunKernel(name, cpu, MitigationConfig::Defaults(cpu), 12);
      const double delta = std::abs(def / off - 1.0) * 100.0;
      EXPECT_LT(delta, 3.0) << name << " on " << UarchName(u);
    }
  }
}

TEST(ParsecSuite, NosmtChargeIsMeasuredAndWithinTheModelledEnvelope) {
  // The nosmt charge is no longer a flat constant: it is derived from the
  // measured co-run (RunCoResident of two kernel instances) as
  // clamp(2*T_solo/T_co, 1, 2). Recover the applied factor from two runs
  // that differ only in smt_off — the noise seed is identical, so it
  // divides out — and pin the modelled envelope: at least 1 (nosmt never
  // speeds the suite up; store-heavy kernels whose siblings thrash the
  // shared store buffer legitimately clamp to exactly 1 — no SMT yield to
  // lose), at most 2 (serializing two streams can at worst double), some
  // pair with a real yield, and never the old flat 1.25 for every pair.
  int exactly_one_quarter = 0;
  int with_real_yield = 0;
  int pairs = 0;
  for (Uarch u : {Uarch::kBroadwell, Uarch::kSkylakeClient, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    ASSERT_TRUE(cpu.smt);
    MitigationConfig nosmt = MitigationConfig::AllOff();
    nosmt.smt_off = true;
    for (const std::string& name : Parsec::KernelNames()) {
      const double base = Parsec::RunKernel(name, cpu, MitigationConfig::AllOff(), 21);
      const double off = Parsec::RunKernel(name, cpu, nosmt, 21);
      const double charge = off / base;
      EXPECT_GE(charge, 1.0 - 1e-9) << name << " on " << UarchName(u);
      EXPECT_LE(charge, 2.0 + 1e-9) << name << " on " << UarchName(u);
      if (charge > 1.05) {
        with_real_yield++;
      }
      if (std::abs(charge - 1.25) < 1e-9) {
        exactly_one_quarter++;
      }
      pairs++;
    }
  }
  EXPECT_GT(with_real_yield, 0);          // overlap-friendly kernels do pay
  EXPECT_LT(exactly_one_quarter, pairs);  // a measurement, not the old constant
}

TEST(ParsecSuite, NosmtChargeIsFreeWithoutASibling) {
  // Zen1 has no SMT: smt_off must not change PARSEC at all.
  const CpuModel& cpu = GetCpuModel(Uarch::kZen1);
  ASSERT_FALSE(cpu.smt);
  MitigationConfig nosmt = MitigationConfig::AllOff();
  nosmt.smt_off = true;
  for (const std::string& name : Parsec::KernelNames()) {
    EXPECT_EQ(Parsec::RunKernel(name, cpu, MitigationConfig::AllOff(), 22),
              Parsec::RunKernel(name, cpu, nosmt, 22))
        << name;
  }
}

TEST(ParsecSuite, SsbdHurtsFacesimMost) {
  const CpuModel& cpu = GetCpuModel(Uarch::kZen3);
  MitigationConfig ssbd = MitigationConfig::AllOff();
  ssbd.ssbd = SsbdMode::kAlways;
  auto slowdown = [&](const std::string& name) {
    const double off = Parsec::RunKernel(name, cpu, MitigationConfig::AllOff(), 13);
    const double on = Parsec::RunKernel(name, cpu, ssbd, 14);
    return (on / off - 1.0) * 100.0;
  };
  const double face = slowdown("facesim");
  const double swap = slowdown("swaptions");
  EXPECT_GT(face, swap);   // store-heavy kernel suffers most
  EXPECT_GT(face, 3.0);    // a real slowdown...
  EXPECT_LT(face, 60.0);   // ...but bounded
}

TEST(ParsecSuite, SsbdTrendsWorseOnNewerCpus) {
  // Figure 5: the SSBD slowdown grows across generations.
  auto facesim_slowdown = [](Uarch u) {
    const CpuModel& cpu = GetCpuModel(u);
    MitigationConfig ssbd = MitigationConfig::AllOff();
    ssbd.ssbd = SsbdMode::kAlways;
    const double off = Parsec::RunKernel("facesim", cpu, MitigationConfig::AllOff(), 15);
    const double on = Parsec::RunKernel("facesim", cpu, ssbd, 16);
    return (on / off - 1.0) * 100.0;
  };
  EXPECT_GT(facesim_slowdown(Uarch::kIceLakeServer), facesim_slowdown(Uarch::kBroadwell));
  EXPECT_GT(facesim_slowdown(Uarch::kZen3), facesim_slowdown(Uarch::kZen1));
}

TEST(LfsSuite, SmallfileHasMoreExitsPerWork) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  const LfsResult small = Lfs::RunKernel("smallfile", cpu, MitigationConfig::AllOff(),
                                         HostConfig::AllOff(), 17);
  const LfsResult large = Lfs::RunKernel("largefile", cpu, MitigationConfig::AllOff(),
                                         HostConfig::AllOff(), 18);
  EXPECT_GT(small.vm_exits, large.vm_exits);
  const double small_exit_rate = small.vm_exits / small.cycles;
  const double large_exit_rate = large.vm_exits / large.cycles;
  EXPECT_GT(small_exit_rate, large_exit_rate);
}

TEST(LfsSuite, HostMitigationOverheadModest) {
  // §4.4: median overhead under 2% on real hardware; our simulated disk is
  // much faster than a real one, so allow more — but it must stay modest
  // because exits are rare relative to work.
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  for (const std::string& name : Lfs::KernelNames()) {
    const double off = Lfs::RunKernel(name, cpu, MitigationConfig::AllOff(),
                                      HostConfig::AllOff(), 19)
                           .cycles;
    const double on = Lfs::RunKernel(name, cpu, MitigationConfig::AllOff(),
                                     HostConfig::Defaults(cpu), 20)
                          .cycles;
    const double overhead = (on / off - 1.0) * 100.0;
    EXPECT_GE(overhead, -1.0) << name;
    EXPECT_LT(overhead, 25.0) << name;
  }
}

// --- The exact-result memo ------------------------------------------------
//
// Each workload simulates once per (kernel, CPU, configs) and re-noises the
// memoized value. A copy of a catalog CpuModel is not the catalog entry, so
// it always simulates fresh: the reference for "what a memo hit must equal".

TEST(ExactResultMemo, HitsEqualFreshSimulationOnEveryWorkload) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const CpuModel fresh_cpu = cpu;
  const MitigationConfig config = MitigationConfig::Defaults(cpu);
  const JitConfig jit = JitConfig::AllOn();
  const HostConfig host = HostConfig::Defaults(cpu);
  for (uint64_t seed : {3, 4}) {
    const double lebench = LeBench::RunKernel("getpid", fresh_cpu, config, seed);
    const double octane = Octane::RunKernel("crypto", fresh_cpu, jit, config, seed);
    const double parsec = Parsec::RunKernel("swaptions", fresh_cpu, config, seed);
    const LfsResult lfs = Lfs::RunKernel("smallfile", fresh_cpu, config, host, seed);
    for (int call = 0; call < 2; call++) {  // the second call is always a hit
      EXPECT_EQ(LeBench::RunKernel("getpid", cpu, config, seed), lebench) << call;
      EXPECT_EQ(Octane::RunKernel("crypto", cpu, jit, config, seed), octane) << call;
      EXPECT_EQ(Parsec::RunKernel("swaptions", cpu, config, seed), parsec) << call;
      const LfsResult hit = Lfs::RunKernel("smallfile", cpu, config, host, seed);
      EXPECT_EQ(hit.cycles, lfs.cycles) << call;
      EXPECT_EQ(hit.vm_exits, lfs.vm_exits) << call;
    }
  }
}

TEST(ExactResultMemo, NosmtChargeHitsEqualFreshSimulation) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  ASSERT_TRUE(cpu.smt);
  const CpuModel fresh_cpu = cpu;
  MitigationConfig nosmt = MitigationConfig::AllOff();
  nosmt.smt_off = true;
  const double fresh = Parsec::RunKernel("bodytrack", fresh_cpu, nosmt, 5);
  EXPECT_EQ(Parsec::RunKernel("bodytrack", cpu, nosmt, 5), fresh);
  EXPECT_EQ(Parsec::RunKernel("bodytrack", cpu, nosmt, 5), fresh);
}

TEST(ExactResultMemo, SimulatesOnMissesNonCatalogModelsAndPastTheCap) {
  using Memo = ExactResultMemo<int, int>;
  Memo memo;
  const CpuModel& cpu = GetCpuModel(Uarch::kZen3);
  const CpuModel copy = cpu;
  int calls = 0;
  const auto square = [&calls](int k) {
    return [&calls, k] {
      calls++;
      return k * k;
    };
  };
  constexpr int kCap = static_cast<int>(Memo::kMaxEntries);
  for (int k = 0; k < kCap; k++) {
    EXPECT_EQ(memo.Get(cpu, k, square(k)), k * k);
  }
  EXPECT_EQ(calls, kCap);
  EXPECT_EQ(memo.Get(cpu, 7, square(7)), 49);  // hit
  EXPECT_EQ(calls, kCap);
  EXPECT_EQ(memo.Get(copy, 7, square(7)), 49);  // not the catalog entry
  EXPECT_EQ(calls, kCap + 1);
  for (int repeat = 0; repeat < 2; repeat++) {  // full: computed, not stored
    EXPECT_EQ(memo.Get(cpu, kCap, square(kCap)), kCap * kCap);
  }
  EXPECT_EQ(calls, kCap + 3);
}

// FutureCpuModel() shares Ice Lake Server's uarch; keyed by uarch alone it
// would be served Ice Lake Server's memo entry.
TEST(ExactResultMemo, FutureCpuIsNeverServedTheIceLakeServerEntry) {
  const CpuModel& ice = GetCpuModel(Uarch::kIceLakeServer);
  const CpuModel& future = FutureCpuModel();
  ASSERT_EQ(future.uarch, ice.uarch);
  const CpuModel fresh_ice = ice;
  const JitConfig jit = JitConfig::AllOn();
  const MitigationConfig os = MitigationConfig::Defaults(ice);
  const double ice_fresh = Octane::RunKernel("crypto", fresh_ice, jit, os, 7);
  const double future_fresh = Octane::RunKernel("crypto", future, jit, os, 7);
  ASSERT_NE(ice_fresh, future_fresh) << "pick a kernel the two models disagree on";
  EXPECT_EQ(Octane::RunKernel("crypto", ice, jit, os, 7), ice_fresh);  // warms the memo
  EXPECT_EQ(Octane::RunKernel("crypto", future, jit, os, 7), future_fresh);
}

// A CycleAttribution sink needs the event stream, so a call with one always
// simulates, however warm the memo is.
TEST(ExactResultMemo, AttributionSinkIsFilledAfterTheMemoIsWarm) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  const MitigationConfig config = MitigationConfig::Defaults(cpu);
  const JitConfig jit = JitConfig::AllOn();
  CycleAttribution cold_lebench;
  CycleAttribution cold_octane;
  LeBench::RunKernel("small-read", cpu, config, 1, &cold_lebench);
  Octane::RunKernel("richards", cpu, jit, config, 1, &cold_octane);
  ASSERT_TRUE(cold_lebench.HasWindow());
  ASSERT_TRUE(cold_octane.HasWindow());
  ASSERT_GT(cold_lebench.WindowTotalCycles(), 0u);
  ASSERT_GT(cold_octane.WindowTotalCycles(), 0u);

  const double lebench = LeBench::RunKernel("small-read", cpu, config, 1);
  const double octane = Octane::RunKernel("richards", cpu, jit, config, 1);
  CycleAttribution warm_lebench;
  CycleAttribution warm_octane;
  EXPECT_EQ(LeBench::RunKernel("small-read", cpu, config, 1, &warm_lebench), lebench);
  EXPECT_EQ(Octane::RunKernel("richards", cpu, jit, config, 1, &warm_octane), octane);
  ASSERT_TRUE(warm_lebench.HasWindow());
  ASSERT_TRUE(warm_octane.HasWindow());
  EXPECT_EQ(warm_lebench.WindowTotalCycles(), cold_lebench.WindowTotalCycles());
  EXPECT_EQ(warm_octane.WindowTotalCycles(), cold_octane.WindowTotalCycles());
}

// The memo key orders configs field by field (defaulted operator<=>), so
// configs differing in any one field are distinct keys. One mutator per
// field; a new field needs a new line here.
template <typename Config>
void ExpectEveryFlipIsADistinctKey(const Config& base,
                                   const std::vector<void (*)(Config&)>& flips) {
  for (size_t i = 0; i < flips.size(); i++) {
    Config flipped = base;
    flips[i](flipped);
    EXPECT_NE(flipped, base) << "field " << i;
    EXPECT_TRUE(flipped < base || base < flipped) << "field " << i;
  }
}

TEST(ExactResultMemo, FlippingAnySingleConfigFieldChangesTheKey) {
  const std::vector<void (*)(MitigationConfig&)> os_flips = {
      [](MitigationConfig& c) { c.pti = !c.pti; },
      [](MitigationConfig& c) { c.pcid = !c.pcid; },
      [](MitigationConfig& c) { c.mds_clear_buffers = !c.mds_clear_buffers; },
      [](MitigationConfig& c) { c.smt_off = !c.smt_off; },
      [](MitigationConfig& c) {
        c.retpoline =
            c.retpoline == RetpolineMode::kAmd ? RetpolineMode::kGeneric : RetpolineMode::kAmd;
      },
      [](MitigationConfig& c) {
        c.ibrs = c.ibrs == IbrsMode::kLegacyIbrs ? IbrsMode::kEibrs : IbrsMode::kLegacyIbrs;
      },
      [](MitigationConfig& c) { c.ibpb_on_context_switch = !c.ibpb_on_context_switch; },
      [](MitigationConfig& c) { c.rsb_stuff_on_context_switch = !c.rsb_stuff_on_context_switch; },
      [](MitigationConfig& c) { c.stibp = !c.stibp; },
      [](MitigationConfig& c) { c.core_scheduling = !c.core_scheduling; },
      [](MitigationConfig& c) { c.lfence_after_swapgs = !c.lfence_after_swapgs; },
      [](MitigationConfig& c) { c.kernel_index_masking = !c.kernel_index_masking; },
      [](MitigationConfig& c) { c.eager_fpu = !c.eager_fpu; },
      [](MitigationConfig& c) { c.l1tf_pte_inversion = !c.l1tf_pte_inversion; },
      [](MitigationConfig& c) { c.l1d_flush_on_vmentry = !c.l1d_flush_on_vmentry; },
      [](MitigationConfig& c) {
        c.ssbd = c.ssbd == SsbdMode::kPrctl ? SsbdMode::kSeccomp : SsbdMode::kPrctl;
      },
  };
  for (Uarch u : {Uarch::kBroadwell, Uarch::kZen3}) {
    ExpectEveryFlipIsADistinctKey(MitigationConfig::Defaults(GetCpuModel(u)), os_flips);
  }
  ExpectEveryFlipIsADistinctKey(MitigationConfig::AllOff(), os_flips);

  const std::vector<void (*)(JitConfig&)> jit_flips = {
      [](JitConfig& c) { c.index_masking = !c.index_masking; },
      [](JitConfig& c) { c.object_guards = !c.object_guards; },
      [](JitConfig& c) { c.pointer_poisoning = !c.pointer_poisoning; },
      [](JitConfig& c) { c.speculative_load_hardening = !c.speculative_load_hardening; },
  };
  for (const JitConfig& base : {JitConfig::AllOn(), JitConfig::AllOff(), JitConfig::SlhOnly()}) {
    ExpectEveryFlipIsADistinctKey(base, jit_flips);
  }

  const std::vector<void (*)(HostConfig&)> host_flips = {
      [](HostConfig& c) { c.l1d_flush_on_vmentry = !c.l1d_flush_on_vmentry; },
      [](HostConfig& c) { c.mds_clear_on_vmentry = !c.mds_clear_on_vmentry; },
  };
  ExpectEveryFlipIsADistinctKey(HostConfig::AllOff(), host_flips);
  ExpectEveryFlipIsADistinctKey(HostConfig::Defaults(GetCpuModel(Uarch::kBroadwell)), host_flips);
}

}  // namespace
}  // namespace specbench

#include "src/core/attribution.h"

#include <utility>

#include "src/util/rng.h"

namespace specbench {

namespace {

// Overhead of keeping a mitigation on, respecting metric direction.
Estimate OverheadPct(const Estimate& with_mitigation, const Estimate& without,
                     bool lower_is_better) {
  if (lower_is_better) {
    return RelativeOverheadPercent(with_mitigation, without);
  }
  // Higher-is-better score: overhead = (score_off / score_on - 1) * 100.
  return RelativeOverheadPercent(without, with_mitigation);
}

}  // namespace

const std::vector<MitigationKnob>& OsMitigationKnobs() {
  static const std::vector<MitigationKnob> kKnobs = {
      {"pti", "Page Table Isolation",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         (void)cpu;
         return c.pti;
       },
       [](MitigationConfig* c) { c->pti = false; }},
      {"mds", "MDS buffer clearing",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         return c.mds_clear_buffers && cpu.vuln.mds;
       },
       [](MitigationConfig* c) { c->mds_clear_buffers = false; }},
      {"spectre_v2", "Spectre V2 (retpoline/IBRS + IBPB + RSB)",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         (void)cpu;
         return c.retpoline != RetpolineMode::kNone || c.ibrs != IbrsMode::kOff ||
                c.ibpb_on_context_switch || c.rsb_stuff_on_context_switch;
       },
       [](MitigationConfig* c) {
         c->retpoline = RetpolineMode::kNone;
         c->ibrs = IbrsMode::kOff;
         c->ibpb_on_context_switch = false;
         c->rsb_stuff_on_context_switch = false;
       }},
      {"spectre_v1", "Spectre V1 (lfence + masking)",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         (void)cpu;
         return c.lfence_after_swapgs || c.kernel_index_masking;
       },
       [](MitigationConfig* c) {
         c->lfence_after_swapgs = false;
         c->kernel_index_masking = false;
       }},
      {"other", "Other mitigations",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         return c.l1tf_pte_inversion || c.ssbd != SsbdMode::kOff ||
                (cpu.vuln.l1tf && c.l1d_flush_on_vmentry);
       },
       [](MitigationConfig* c) {
         c->l1tf_pte_inversion = false;
         c->l1d_flush_on_vmentry = false;
         c->ssbd = SsbdMode::kOff;
       }},
  };
  return kKnobs;
}

double AttributionReport::SegmentSum() const {
  double sum = 0.0;
  for (const AttributionSegment& segment : segments) {
    sum += segment.overhead_pct.value;
  }
  return sum;
}

AttributionReport AttributeChain(const CpuModel& cpu, const std::string& workload,
                                 const std::vector<ChainLink>& links,
                                 const ChainMeasureFn& measure, bool lower_is_better,
                                 const SamplerOptions& options, uint64_t base_seed) {
  AttributionReport report;
  report.cpu = UarchName(cpu.uarch);
  report.workload = workload;

  // Every configuration's sample-seed stream derives from base_seed alone,
  // so the whole chain is a pure function of its inputs.
  uint64_t seed_stream = base_seed;
  auto measure_config = [&](size_t index) {
    uint64_t seed = SplitMix64Next(&seed_stream);
    const SampleResult result =
        SampleUntilConverged([&] { return measure(index, seed++); }, options);
    report.total_samples += result.samples;
    report.converged = report.converged && result.converged;
    report.saw_non_finite = report.saw_non_finite || result.saw_non_finite();
    return result.estimate;
  };

  const Estimate with_all = measure_config(0);
  Estimate current = with_all;
  for (size_t i = 0; i < links.size(); i++) {
    const Estimate without = measure_config(i + 1);
    report.segments.push_back(AttributionSegment{
        links[i].id, links[i].label, OverheadPct(current, without, lower_is_better)});
    current = without;
  }
  // `current` is now the last configuration in the chain.
  report.total_overhead_pct = OverheadPct(with_all, current, lower_is_better);
  return report;
}

AttributionReport AttributeOsMitigations(const CpuModel& cpu, const std::string& workload,
                                         const OsMeasureFn& measure, bool lower_is_better,
                                         const SamplerOptions& options, uint64_t base_seed) {
  // Relevance depends only on the configuration, so the whole chain is laid
  // out before anything is measured.
  std::vector<ChainLink> links;
  std::vector<MitigationConfig> configs = {MitigationConfig::Defaults(cpu)};
  for (const MitigationKnob& knob : OsMitigationKnobs()) {
    if (!knob.relevant(cpu, configs.back())) {
      continue;
    }
    MitigationConfig next = configs.back();
    knob.disable(&next);
    configs.push_back(next);
    links.push_back(ChainLink{knob.id, knob.label});
  }
  return AttributeChain(
      cpu, workload, links,
      [&](size_t index, uint64_t seed) { return measure(configs[index], seed); },
      lower_is_better, options, base_seed);
}

AttributionReport AttributeBrowserMitigations(const CpuModel& cpu,
                                              const BrowserMeasureFn& measure,
                                              const SamplerOptions& options,
                                              uint64_t base_seed) {
  // Figure 3 sweep order: JS-level mitigations first (blue in the paper),
  // then the OS-level ones that apply to the sandboxed browser (green).
  struct Step {
    ChainLink link;
    std::function<void(JitConfig*, MitigationConfig*)> disable;
  };
  const std::vector<Step> steps = {
      {{"index_masking", "Index masking"},
       [](JitConfig* jit, MitigationConfig*) { jit->index_masking = false; }},
      {{"object_guards", "Object mitigations"},
       [](JitConfig* jit, MitigationConfig*) { jit->object_guards = false; }},
      {{"other_js", "Other JavaScript"},
       [](JitConfig* jit, MitigationConfig*) { jit->pointer_poisoning = false; }},
      {{"ssbd", "SSBD (seccomp)"},
       [](JitConfig*, MitigationConfig* os) { os->ssbd = SsbdMode::kOff; }},
      {{"other_os", "Other OS"},
       [](JitConfig*, MitigationConfig* os) { *os = MitigationConfig::AllOff(); }},
  };

  std::vector<ChainLink> links;
  std::vector<std::pair<JitConfig, MitigationConfig>> configs = {
      {JitConfig::AllOn(), MitigationConfig::Defaults(cpu)}};
  for (const Step& step : steps) {
    std::pair<JitConfig, MitigationConfig> next = configs.back();
    step.disable(&next.first, &next.second);
    configs.push_back(next);
    links.push_back(step.link);
  }
  // Octane is higher-is-better: disabling a mitigation raises the score.
  return AttributeChain(
      cpu, "octane2", links,
      [&](size_t index, uint64_t seed) {
        return measure(configs[index].first, configs[index].second, seed);
      },
      /*lower_is_better=*/false, options, base_seed);
}

}  // namespace specbench

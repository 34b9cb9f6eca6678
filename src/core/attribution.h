// The paper's central methodology: attribute end-to-end slowdown to
// individual mitigations (§4.1).
//
// "To measure the impact of individual mitigations, we run Linux with the
// default set of mitigations enabled, and then use kernel boot parameters to
// successively disable them to determine the overhead that each one causes."
//
// AttributeChain does exactly that: measure the default configuration
// (sampling until the 95% CI converges), then disable one mitigation at a
// time — in a fixed order — re-measuring after each step down to
// mitigations=off. Each segment is the overhead of one configuration
// relative to the next, so the segments compound to the total rather than
// sum to it (Figures 2 and 3).
#ifndef SPECTREBENCH_SRC_CORE_ATTRIBUTION_H_
#define SPECTREBENCH_SRC_CORE_ATTRIBUTION_H_

#include <functional>
#include <string>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/jit/jit.h"
#include "src/os/mitigation_config.h"
#include "src/stats/sampler.h"

namespace specbench {

// One OS-level mitigation knob in the successive-disable sweep.
struct MitigationKnob {
  std::string id;
  std::string label;
  // Whether the knob does anything in this CPU's default configuration.
  std::function<bool(const CpuModel&, const MitigationConfig&)> relevant;
  // Turns the mitigation off.
  std::function<void(MitigationConfig*)> disable;
};

// The knobs measured for Figure 2, in the disable order used by the sweep:
// PTI (Meltdown), MDS buffer clearing, Spectre V2 (retpolines/eIBRS + IBPB +
// RSB stuffing), Spectre V1 (lfence + masking), and "other" (everything
// remaining down to mitigations=off).
const std::vector<MitigationKnob>& OsMitigationKnobs();

struct AttributionSegment {
  std::string id;
  std::string label;
  Estimate overhead_pct;  // this link's step in the chain; see AttributeChain
};

struct AttributionReport {
  std::string cpu;
  std::string workload;
  Estimate total_overhead_pct;
  std::vector<AttributionSegment> segments;  // one per link, in disable order

  // Sampler health, aggregated over every configuration measured: finite
  // samples used in the estimates (non-finite draws are excluded; see
  // SampleResult), whether every configuration's CI converged, and whether
  // any measurement returned a non-finite value (surfaced rather than
  // silently poisoning the estimates).
  size_t total_samples = 0;
  bool converged = true;
  bool saw_non_finite = false;

  // Sum of segment midpoints. Segments compound (see AttributeChain), so
  // for positive overheads the sum falls below the total.
  double SegmentSum() const;
};

// Default `base_seed` for the attribution sweeps below. Seeds for the
// per-configuration measurements are derived from the base via SplitMix64,
// so a caller (e.g. a parallel sweep cell) can substitute its own
// deterministic seed and get results independent of execution order.
inline constexpr uint64_t kDefaultAttributionSeed = 1000;

// One mitigation (or group) disabled by a step of a successive-disable chain.
struct ChainLink {
  std::string id;
  std::string label;
};

// Measures configuration `config_index` of a chain with sample seed `seed`:
// index 0 has every mitigation on; index i has links [0, i) disabled.
// Returns a cost (cycles) or a score (Octane) for the whole workload.
using ChainMeasureFn = std::function<double(size_t config_index, uint64_t seed)>;

// The §4.1 loop. Samples configurations 0..links.size() in order, each until
// its 95% CI converges, from its own seed stream: configuration i samples
// seeds s_i, s_i + 1, ... where s_i is the (i+1)-th SplitMix64 draw from
// `base_seed`. Sampler health from every configuration folds into the report.
//
// With M_i the estimate of configuration i and n = links.size(), segment i
// is the overhead of keeping link i on, relative to the configuration with
// it (and every later link) still enabled:
//   cost  (lower_is_better):  (M_i / M_{i+1} - 1) * 100
//   score (higher is better): (M_{i+1} / M_i - 1) * 100
// and the total is the same ratio between M_0 and M_n. The segments
// compound: (1 + total/100) = prod(1 + segment_i/100).
AttributionReport AttributeChain(const CpuModel& cpu, const std::string& workload,
                                 const std::vector<ChainLink>& links,
                                 const ChainMeasureFn& measure, bool lower_is_better,
                                 const SamplerOptions& options = SamplerOptions(),
                                 uint64_t base_seed = kDefaultAttributionSeed);

// A measurement under one OS configuration; seed varies per sample so the
// injected run-to-run noise exercises the CI machinery. Returns a score or
// cost for the whole workload.
using OsMeasureFn = std::function<double(const MitigationConfig&, uint64_t seed)>;

// Figure 2: a chain over the OsMitigationKnobs() that are relevant on top
// of the CPU's default configuration, each tested against the configuration
// with the earlier knobs already disabled. `lower_is_better` selects cost
// (cycles) vs score (Octane) semantics.
AttributionReport AttributeOsMitigations(const CpuModel& cpu, const std::string& workload,
                                         const OsMeasureFn& measure, bool lower_is_better,
                                         const SamplerOptions& options = SamplerOptions(),
                                         uint64_t base_seed = kDefaultAttributionSeed);

// Browser-side attribution (Figure 3): sweeps the JIT mitigations (index
// masking, object guards, other JavaScript) and then the OS-side knobs that
// matter to a seccomp-sandboxed browser (SSBD, other OS).
using BrowserMeasureFn =
    std::function<double(const JitConfig&, const MitigationConfig&, uint64_t seed)>;

AttributionReport AttributeBrowserMitigations(const CpuModel& cpu,
                                              const BrowserMeasureFn& measure,
                                              const SamplerOptions& options = SamplerOptions(),
                                              uint64_t base_seed = kDefaultAttributionSeed);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_ATTRIBUTION_H_

// Shared measurement plumbing for the workload suites.
//
// The simulator is deterministic; real machines are not. To exercise the
// paper's statistical methodology (§4.1: repeat until the 95% CI converges),
// every workload measurement passes through ApplyNoise, which adds a small
// seeded multiplicative jitter — the "couple percent" run-to-run variation
// the paper describes.
//
// Because only the noise depends on the seed, the simulation behind a
// measurement runs once per key per process: each workload keeps an
// ExactResultMemo of its pre-noise result, keyed by everything that result
// depends on (kernel name, CPU, configs), and every repeat of the §4.1 loop
// re-noises the memoized value. A memo hit returns exactly what a fresh
// simulation would.
#ifndef SPECTREBENCH_SRC_WORKLOAD_MEASUREMENT_H_
#define SPECTREBENCH_SRC_WORKLOAD_MEASUREMENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "src/cpu/cpu_model.h"

namespace specbench {

// Default run-to-run noise, relative standard deviation.
inline constexpr double kDefaultNoiseSigma = 0.01;

// Returns value * (1 + sigma * gaussian(seed)).
double ApplyNoise(double value, uint64_t seed, double sigma = kDefaultNoiseSigma);

// A process-wide, thread-safe memo from (CPU, Key) to an exact simulation
// result. Key must be totally ordered over every field the result depends
// on; the CPU's uarch is added to it here.
template <typename Key, typename Value>
class ExactResultMemo {
 public:
  // Entries kept. Once full, results are still computed but not stored, so
  // a long-lived process (the sweep service) cannot grow without bound.
  static constexpr size_t kMaxEntries = 4096;

  // Returns simulate()'s result for (cpu, key), simulating only on a miss.
  // A model that is not the catalog entry for its uarch (FutureCpuModel(),
  // an ablation's modified copy) always simulates: keyed by uarch it would
  // alias the catalog model. Concurrent misses on one key may both simulate;
  // the results are identical, so either may be stored.
  template <typename Simulate>
  Value Get(const CpuModel& cpu, const Key& key, const Simulate& simulate) {
    if (&cpu != &GetCpuModel(cpu.uarch)) {
      return simulate();
    }
    std::pair<Uarch, Key> full_key(cpu.uarch, key);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(full_key);
      if (it != entries_.end()) {
        return it->second;
      }
    }
    Value value = simulate();
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() < kMaxEntries) {
      entries_.emplace(std::move(full_key), value);
    }
    return value;
  }

 private:
  std::mutex mu_;
  std::map<std::pair<Uarch, Key>, Value> entries_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_WORKLOAD_MEASUREMENT_H_

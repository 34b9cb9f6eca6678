// LFS smallfile / largefile microbenchmarks against the emulated disk
// (paper §4.4: "we measure the overhead of virtual machine exits by running
// the smallfile and largefile microbenchmarks from LFS against an emulated
// disk").
//
// smallfile: many small file creations — metadata syscalls inside the guest
// plus one small I/O (and thus one vmexit) per file. largefile: sequential
// writes of a large file — lots of in-guest buffered work per (larger) I/O,
// so vmexits are rarer relative to work. The contrast in exit rate is what
// makes host mitigations visible (or not).
#ifndef SPECTREBENCH_SRC_WORKLOAD_LFS_H_
#define SPECTREBENCH_SRC_WORKLOAD_LFS_H_

#include <string>
#include <vector>

#include "src/hv/hypervisor.h"

namespace specbench {

struct LfsResult {
  double cycles = 0;        // total runtime
  uint64_t vm_exits = 0;    // boundary crossings taken
};

class Lfs {
 public:
  static const std::vector<std::string>& KernelNames();  // {smallfile, largefile}

  // Runs one kernel in a guest under `host_config`; `cycles` carries seeded
  // noise, `vm_exits` is exact. Simulated once per (name, CPU, guest config,
  // host config), like LeBench::RunKernel.
  static LfsResult RunKernel(const std::string& name, const CpuModel& cpu,
                             const MitigationConfig& guest_config,
                             const HostConfig& host_config, uint64_t seed);
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_WORKLOAD_LFS_H_

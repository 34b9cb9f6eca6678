// Hypervisor substrate: guest/host boundary with its mitigations (§4.4, §5.6).
//
// The Hypervisor attaches to a guest Kernel before Finalize. It emits the
// host's vmexit handler into the same program: emulated-disk service work,
// then the host-side mitigations applied before re-entering the guest
// (L1D flush for L1TF, verw for MDS), then vmenter. The guest invokes the
// device through a hypercall-style syscall whose handler executes kVmExit.
//
// The paper's observation this substrate reproduces: VM workloads see little
// overhead from host mitigations because exits are ~100x rarer than
// syscalls, even though each exit's mitigation work is larger (§4.4).
#ifndef SPECTREBENCH_SRC_HV_HYPERVISOR_H_
#define SPECTREBENCH_SRC_HV_HYPERVISOR_H_

#include <compare>
#include <cstdint>

#include "src/os/kernel.h"

namespace specbench {

// Host-side mitigation configuration for the vmexit/vmentry path.
struct HostConfig {
  // Flush the L1D before every vmentry (the L1TF mitigation, §5.6).
  bool l1d_flush_on_vmentry = false;
  // Clear CPU buffers before vmentry (MDS across the VM boundary).
  bool mds_clear_on_vmentry = false;

  // Host defaults for a given CPU: flush L1 iff L1TF-vulnerable, clear
  // buffers iff MDS-vulnerable (mirrors KVM defaults).
  static HostConfig Defaults(const CpuModel& cpu);
  static HostConfig AllOff();

  auto operator<=>(const HostConfig&) const = default;
};

// The guest syscall the hypervisor installs for emulated disk I/O:
//   r0 = guest buffer vaddr, r1 = byte count, r2 = 0 read / 1 write.
inline constexpr Sys kSysDiskIo = static_cast<Sys>(static_cast<int>(Sys::kCustomBase) + 8);

class Hypervisor {
 public:
  // Attach to `kernel` (which becomes the guest OS). Must be constructed
  // after all guest processes are created but before kernel.Finalize().
  Hypervisor(Kernel& kernel, const HostConfig& host_config);

  // Switches the machine into guest mode; call once after kernel.Finalize()
  // (registered automatically as a post-finalize hook).
  //
  // Statistics:
  uint64_t vm_exits() const { return vm_exits_; }
  uint64_t disk_reads() const { return disk_reads_; }
  uint64_t disk_writes() const { return disk_writes_; }
  uint64_t bytes_transferred() const { return bytes_transferred_; }

  const HostConfig& host_config() const { return host_config_; }

 private:
  void EmitVmexitHandler(ProgramBuilder& b);
  void EmitDiskSyscall(ProgramBuilder& b);
  void OnFinalized();

  Kernel& kernel_;
  HostConfig host_config_;
  uint64_t vm_exits_ = 0;
  uint64_t disk_reads_ = 0;
  uint64_t disk_writes_ = 0;
  uint64_t bytes_transferred_ = 0;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_HV_HYPERVISOR_H_

#include "src/os/mitigation_config.h"

#include <sstream>

namespace specbench {

const char* RetpolineModeName(RetpolineMode mode) {
  switch (mode) {
    case RetpolineMode::kNone: return "none";
    case RetpolineMode::kGeneric: return "generic";
    case RetpolineMode::kAmd: return "amd";
  }
  return "?";
}

const char* IbrsModeName(IbrsMode mode) {
  switch (mode) {
    case IbrsMode::kOff: return "off";
    case IbrsMode::kLegacyIbrs: return "ibrs";
    case IbrsMode::kEibrs: return "eibrs";
  }
  return "?";
}

const char* SsbdModeName(SsbdMode mode) {
  switch (mode) {
    case SsbdMode::kOff: return "off";
    case SsbdMode::kPrctl: return "prctl";
    case SsbdMode::kSeccomp: return "seccomp";
    case SsbdMode::kAlways: return "on";
  }
  return "?";
}

MitigationConfig MitigationConfig::Defaults(const CpuModel& cpu) {
  MitigationConfig c;
  c.pti = cpu.vuln.meltdown;
  c.mds_clear_buffers = cpu.vuln.mds;
  c.smt_off = false;  // Table 1: "!": not enabled by default even when vulnerable
  // Spectre V2: eIBRS where available, otherwise retpolines (vendor flavour
  // per Table 1: generic on old Intel, lfence-based on AMD).
  if (cpu.predictor.eibrs) {
    c.ibrs = IbrsMode::kEibrs;
    c.retpoline = RetpolineMode::kNone;
  } else {
    c.ibrs = IbrsMode::kOff;
    c.retpoline = cpu.vendor == Vendor::kAmd ? RetpolineMode::kAmd : RetpolineMode::kGeneric;
  }
  c.ibpb_on_context_switch = true;
  c.rsb_stuff_on_context_switch = true;
  c.lfence_after_swapgs = true;
  c.kernel_index_masking = true;
  c.eager_fpu = true;  // Table 1: "Always save FPU" on every CPU
  c.l1tf_pte_inversion = cpu.vuln.l1tf;
  c.l1d_flush_on_vmentry = cpu.vuln.l1tf;
  c.ssbd = SsbdMode::kSeccomp;  // pre-Linux-5.16 default (paper §4.3)
  return c;
}

MitigationConfig MitigationConfig::AllOff() {
  MitigationConfig c;
  c.eager_fpu = true;  // Linux keeps eager FPU even with mitigations=off
  return c;
}

bool MitigationConfig::MitigatesMeltdown(const CpuModel& cpu) const {
  return !cpu.vuln.meltdown || pti;
}

bool MitigationConfig::MitigatesMds(const CpuModel& cpu) const {
  return !cpu.vuln.mds || mds_clear_buffers;
}

bool MitigationConfig::MitigatesSpectreV2Kernel(const CpuModel& cpu) const {
  if (!cpu.vuln.spectre_v2) {
    return true;
  }
  if (ibrs == IbrsMode::kEibrs && cpu.predictor.eibrs) {
    return true;
  }
  if (ibrs == IbrsMode::kLegacyIbrs && cpu.predictor.ibrs_supported) {
    return true;
  }
  // Note: the AMD (lfence) retpoline was later shown incompletely effective
  // [Milburn et al. 2022]; the paper (and we) treat it as the deployed
  // mitigation of the measurement period.
  return retpoline != RetpolineMode::kNone;
}

std::string MitigationConfig::Describe() const {
  std::ostringstream out;
  out << "pti=" << (pti ? "on" : "off")
      << " pcid=" << (pcid ? "on" : "off")
      << " mds=" << (mds_clear_buffers ? "clear" : "off")
      << " nosmt=" << (smt_off ? "on" : "off")
      << " retpoline=" << RetpolineModeName(retpoline)
      << " ibrs=" << IbrsModeName(ibrs)
      << " ibpb=" << (ibpb_on_context_switch ? "on" : "off")
      << " rsb_stuff=" << (rsb_stuff_on_context_switch ? "on" : "off")
      << " v1=" << (kernel_index_masking ? "on" : "off")
      << " swapgs_lfence=" << (lfence_after_swapgs ? "on" : "off")
      << " eager_fpu=" << (eager_fpu ? "on" : "off")
      << " ssbd=" << SsbdModeName(ssbd)
      << " l1tf=" << (l1tf_pte_inversion ? "on" : "off")
      << " l1d_flush=" << (l1d_flush_on_vmentry ? "on" : "off")
      << " stibp=" << (stibp ? "on" : "off")
      << " coresched=" << (core_scheduling ? "on" : "off");
  return out.str();
}

bool ApplyBootParam(MitigationConfig* config, const CpuModel& cpu, const std::string& token) {
  if (token == "mitigations=off") {
    *config = MitigationConfig::AllOff();
    return true;
  }
  if (token == "mitigations=auto") {
    *config = MitigationConfig::Defaults(cpu);
    return true;
  }
  if (token == "nopcid") {
    config->pcid = false;
    return true;
  }
  if (token == "nopti" || token == "pti=off") {
    config->pti = false;
    return true;
  }
  if (token == "pti=on") {
    config->pti = true;
    return true;
  }
  if (token == "mds=off") {
    config->mds_clear_buffers = false;
    return true;
  }
  if (token == "mds=full") {
    config->mds_clear_buffers = cpu.vuln.mds;
    return true;
  }
  if (token == "nospectre_v1") {
    config->lfence_after_swapgs = false;
    config->kernel_index_masking = false;
    return true;
  }
  if (token == "nospectre_v2") {
    config->retpoline = RetpolineMode::kNone;
    config->ibrs = IbrsMode::kOff;
    config->ibpb_on_context_switch = false;
    config->rsb_stuff_on_context_switch = false;
    return true;
  }
  if (token == "spectre_v2=retpoline" || token == "spectre_v2=retpoline,generic") {
    config->retpoline = RetpolineMode::kGeneric;
    config->ibrs = IbrsMode::kOff;
    return true;
  }
  if (token == "spectre_v2=retpoline,amd") {
    config->retpoline = RetpolineMode::kAmd;
    config->ibrs = IbrsMode::kOff;
    return true;
  }
  if (token == "spectre_v2=ibrs") {
    if (!cpu.predictor.ibrs_supported) {
      return false;
    }
    config->ibrs = cpu.predictor.eibrs ? IbrsMode::kEibrs : IbrsMode::kLegacyIbrs;
    config->retpoline = RetpolineMode::kNone;
    return true;
  }
  if (token == "spec_store_bypass_disable=off") {
    config->ssbd = SsbdMode::kOff;
    return true;
  }
  if (token == "spec_store_bypass_disable=prctl") {
    config->ssbd = SsbdMode::kPrctl;
    return true;
  }
  if (token == "spec_store_bypass_disable=seccomp") {
    config->ssbd = SsbdMode::kSeccomp;
    return true;
  }
  if (token == "spec_store_bypass_disable=on") {
    config->ssbd = SsbdMode::kAlways;
    return true;
  }
  if (token == "l1tf=off") {
    config->l1tf_pte_inversion = false;
    config->l1d_flush_on_vmentry = false;
    return true;
  }
  if (token == "l1tf=full") {
    config->l1tf_pte_inversion = cpu.vuln.l1tf;
    config->l1d_flush_on_vmentry = cpu.vuln.l1tf;
    return true;
  }
  if (token == "eagerfpu=off") {
    config->eager_fpu = false;
    return true;
  }
  if (token == "eagerfpu=on") {
    config->eager_fpu = true;
    return true;
  }
  if (token == "nosmt") {
    config->smt_off = true;
    return true;
  }
  // Strict SMT co-residence tokens: only the exact spellings below are
  // accepted ("stibp=forceon" etc. fall through to the unknown-token error).
  if (token == "stibp" || token == "stibp=on") {
    config->stibp = cpu.smt;  // meaningless without a sibling thread
    return true;
  }
  if (token == "stibp=off") {
    config->stibp = false;
    return true;
  }
  if (token == "coresched" || token == "coresched=on") {
    config->core_scheduling = cpu.smt;
    return true;
  }
  if (token == "coresched=off") {
    config->core_scheduling = false;
    return true;
  }
  return false;
}

MitigationConfig ConfigFromCmdline(const CpuModel& cpu, const std::vector<std::string>& tokens) {
  MitigationConfig config = MitigationConfig::Defaults(cpu);
  for (const std::string& token : tokens) {
    ApplyBootParam(&config, cpu, token);
  }
  return config;
}

}  // namespace specbench

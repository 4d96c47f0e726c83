#include "scenario/spec.hpp"

#include "soc/presets.hpp"
#include "util/config_error.hpp"

namespace fgqos::scenario {

Scheme scheme_from_name(const std::string& name) {
  if (name == "none") return Scheme::kNone;
  if (name == "hw") return Scheme::kHw;
  if (name == "sw") return Scheme::kSw;
  throw ConfigError("unknown scheme '" + name + "'");
}

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kNone: return "none";
    case Scheme::kHw: return "hw";
    case Scheme::kSw: return "sw";
    case Scheme::kPremStrict: return "prem_strict";
    case Scheme::kPrem: return "prem_tdma";
    case Scheme::kPremCmri: return "prem_cmri";
  }
  return "?";
}

Critical critical_from_name(const std::string& name) {
  if (name == "latency") return Critical::kLatency;
  if (name == "stream") return Critical::kStream;
  if (name == "none") return Critical::kNone;
  throw ConfigError("unknown critical workload '" + name + "'");
}

Spec for_preset(const std::string& name) {
  Spec spec;
  spec.platform = soc::preset_by_name(name);
  spec.aggressors = spec.platform.accel_ports;
  return spec;
}

void validate(const Spec& spec) {
  if (spec.generators.empty() && spec.aggressors > spec.platform.accel_ports) {
    throw ConfigError(std::to_string(spec.aggressors) +
                      " aggressors exceed the platform's " +
                      std::to_string(spec.platform.accel_ports) +
                      " HP ports (one generator per port)");
  }
  if (spec.thrash_aggressors > spec.aggressors) {
    throw ConfigError("--thrash-aggressors exceeds --aggressors");
  }
  if (spec.watchdog_fallback_mbps > 0 && spec.scheme != Scheme::kHw) {
    throw ConfigError("--watchdog-fallback-mbps requires --scheme hw");
  }
  if (spec.envelope != nullptr && spec.scheme != Scheme::kHw) {
    throw ConfigError("--envelope-spec requires --scheme hw");
  }
}

}  // namespace fgqos::scenario

/// \file spec.hpp
/// \brief The one description of an experiment scenario.
///
/// Every result compares the same platform: a latency-critical CPU task
/// against N accelerator masters under one regulation scheme. A Spec says
/// which platform, which task, which masters and which scheme, plus the
/// optional bank-budget, serving, fault, envelope and watchdog inputs.
/// fgqos_sim and fgqos_sweep fill one from their flags
/// (scenario::Session), the benches and the contention search fill one in
/// code, and scenario::build() assembles all of them the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hpp"
#include "fault/fault_plan.hpp"
#include "qos/bank_regulator.hpp"
#include "qos/envelope.hpp"
#include "qos/sla_watchdog.hpp"
#include "qos/soft_memguard.hpp"
#include "sim/time.hpp"
#include "soc/config.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/serving.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos::scenario {

/// Regulation schemes.
enum class Scheme : std::uint8_t {
  kNone,        ///< no QoS
  kHw,          ///< tightly-coupled per-port hardware regulators (the paper)
  kSw,          ///< software MemGuard (OS timer + overflow IRQ)
  kPremStrict,  ///< accelerators blocked for the whole run (strict PREM)
  kPrem,        ///< PREM TDMA: CPU-exclusive / FPGA-shared slots
  kPremCmri,    ///< PREM TDMA + controlled memory-request injection
};

/// Parses the command-line scheme names "none" | "hw" | "sw"; throws
/// ConfigError otherwise (the PREM schemes are bench-only).
[[nodiscard]] Scheme scheme_from_name(const std::string& name);
/// "none", "hw", "sw", "prem_strict", "prem_tdma", "prem_cmri".
[[nodiscard]] const char* scheme_name(Scheme s);

/// The critical CPU task's kernel.
enum class Critical : std::uint8_t { kNone, kLatency, kStream };

/// Parses "latency" | "stream" | "none"; throws ConfigError otherwise.
[[nodiscard]] Critical critical_from_name(const std::string& name);

struct Spec {
  // --- platform -----------------------------------------------------------
  soc::SocConfig platform;
  /// DRAM mapping-policy name overriding the platform's ("" = keep).
  std::string mapping;

  // --- critical task ------------------------------------------------------
  Critical critical = Critical::kLatency;
  cpu::CoreConfig core{.name = "critical"};
  wl::PointerChaseConfig chase;  ///< kLatency
  wl::StreamConfig stream;       ///< kStream
  /// Custom kernel; when set it replaces `critical`'s (which must not be
  /// kNone).
  std::function<std::unique_ptr<cpu::Kernel>()> kernel;

  // --- aggressors ---------------------------------------------------------
  /// Generator i (name "agg<i>", seed `seed + i`) drives HP port i and
  /// reads or writes from 0x8000'0000 + i * aggressor_stride_bytes.
  std::size_t aggressors = 4;
  /// Template for every aggressor: pattern, footprint, burst, phases.
  wl::TrafficGenConfig aggressor;
  std::uint64_t aggressor_stride_bytes = 64ull << 20;
  /// The first K aggressors become single-line row-miss thrashers
  /// (random 64 B reads, deep outstanding window).
  std::size_t thrash_aggressors = 0;
  /// Explicit generators; when non-empty they replace the counted
  /// aggressors and generator i drives HP port i mod accel_ports.
  std::vector<wl::TrafficGenConfig> generators;
  /// Run seed: aggressor streams, serving op buffers, fault streams.
  std::uint64_t seed = 100;

  // --- regulation ---------------------------------------------------------
  Scheme scheme = Scheme::kNone;
  /// Per-port budget of kHw and kSw (bytes/second).
  double budget_bps = 400e6;
  /// kHw replenish window.
  sim::TimePs window_ps = sim::kPsPerUs;
  /// kHw: also program the regulators of HP ports no generator drives.
  bool regulate_idle_ports = false;
  qos::SoftMemguardConfig memguard;  ///< kSw
  /// kPremCmri: bytes each accelerator may inject per CPU slot.
  std::uint64_t cmri_injection_bytes = 2048;

  // --- optional inputs (borrowed: each must outlive the built Scenario) ---
  const qos::BankBudgetSpec* bank_budgets = nullptr;
  const wl::ServingSpec* serving = nullptr;
  const fault::FaultPlan* faults = nullptr;
  /// Certified envelope: kHw budgets are admitted through a QosManager
  /// that enforces its bounds.
  const qos::CertifiedEnvelope* envelope = nullptr;
  /// SLA watchdog on the CPU port; active when any bound is set.
  qos::SlaSpec sla;
  /// Degraded-mode regulator watchdogs on the aggressor ports fall back
  /// to this rate (0 = none; kHw only).
  double watchdog_fallback_mbps = 0;

  [[nodiscard]] bool sla_active() const {
    return sla.min_bandwidth_mbps > 0 || sla.max_p99_latency_ps > 0 ||
           sla.max_interference_fraction > 0;
  }
};

/// A spec on the named platform preset (soc::preset_by_name) with one
/// aggressor per HP port. Throws ConfigError for unknown names.
[[nodiscard]] Spec for_preset(const std::string& name);

/// Checks the counted aggressors fit the platform (one generator per HP
/// port: a second one would take over the first's completions) and the
/// scheme-bound inputs have their scheme. Throws ConfigError.
void validate(const Spec& spec);

}  // namespace fgqos::scenario

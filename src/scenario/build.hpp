/// \file build.hpp
/// \brief Assembles a scenario::Spec into a runnable platform.
///
/// build() is the one place a scenario's platform is put together; every
/// front end (fgqos_sim, fgqos_sweep, the benches, the contention search)
/// goes through it, so equal specs give equal platforms. docs/INTERNALS.md
/// ("Scenario assembly") gives the build order and why it is that order.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "qos/cmri.hpp"
#include "qos/prem_arbiter.hpp"
#include "qos/qos_manager.hpp"
#include "scenario/spec.hpp"
#include "soc/soc.hpp"
#include "telemetry/timeseries.hpp"

namespace fgqos::scenario {

/// Which telemetry the run turns on; all off by default.
struct Telemetry {
  /// Chrome trace sink ("" = none) and its category filter.
  std::string trace;
  std::string trace_filter;
  /// Per-hop latency histograms without a trace (a trace implies them).
  bool lifecycle_metrics = false;
  /// Interference attribution (also turned on by an active SLA).
  bool attribution = false;
  sim::TimePs attribution_window_ps = 100 * sim::kPsPerUs;
  bool timeseries = false;
  telemetry::TimeSeriesConfig timeseries_config;
  bool journal = false;
  /// Host profiler (fixed at platform construction).
  bool profile = false;
};

/// One certified-envelope admission decision.
struct Admission {
  std::string port;
  bool admitted = false;
};

/// An assembled scenario: the platform plus the QoS objects it does not
/// own itself.
struct Scenario {
  std::unique_ptr<soc::Soc> chip;
  cpu::CpuCore* critical = nullptr;  ///< nullptr without a critical task
  std::vector<wl::TrafficGen*> aggressors;
  std::unique_ptr<qos::SoftMemguard> memguard;
  std::unique_ptr<qos::PremArbiter> prem;
  std::unique_ptr<qos::CmriInjector> cmri;
  std::unique_ptr<axi::TxnGate> strict_gate;
  std::unique_ptr<qos::QosManager> manager;
  std::unique_ptr<qos::SlaWatchdog> watchdog;
  /// Envelope admissions, in port order (empty without an envelope).
  std::vector<Admission> admissions;

  /// Aggregate aggressor bandwidth over the whole run (bytes/second).
  [[nodiscard]] double aggressor_bps() const;
  [[nodiscard]] std::size_t admission_rejections() const;
  /// Flushes trailing trace spans and closes the trace sink.
  void finish();
};

/// Builds \p spec with \p telemetry turned on. Throws ConfigError on an
/// inconsistent spec.
[[nodiscard]] Scenario build(const Spec& spec, const Telemetry& telemetry = {});

}  // namespace fgqos::scenario

#include "scenario/build.hpp"

#include <algorithm>

#include "dram/address_mapper.hpp"
#include "qos/window.hpp"

namespace fgqos::scenario {

namespace {

/// Strict PREM: a gate that never opens.
class BlockAllGate final : public axi::TxnGate {
 public:
  [[nodiscard]] bool allow(const axi::LineRequest&,
                           sim::TimePs) const override {
    return false;
  }
  void on_grant(const axi::LineRequest&, sim::TimePs) override {}
};

std::unique_ptr<cpu::Kernel> critical_kernel(const Spec& spec) {
  if (spec.kernel) {
    return spec.kernel();
  }
  if (spec.critical == Critical::kStream) {
    return wl::make_stream(spec.stream);
  }
  return wl::make_pointer_chase(spec.chase);
}

std::vector<wl::TrafficGenConfig> aggressor_configs(const Spec& spec) {
  if (!spec.generators.empty()) {
    return spec.generators;
  }
  std::vector<wl::TrafficGenConfig> gens(spec.aggressors, spec.aggressor);
  for (std::size_t i = 0; i < gens.size(); ++i) {
    wl::TrafficGenConfig& tg = gens[i];
    tg.name = "agg" + std::to_string(i);
    tg.base = 0x8000'0000 +
              static_cast<axi::Addr>(i) * spec.aggressor_stride_bytes;
    tg.seed = spec.seed + i;
    if (i < spec.thrash_aggressors) {
      // Single-line bursts open a fresh row on every access; the deep
      // outstanding window keeps the target bank's miss pipeline full.
      tg.pattern = wl::Pattern::kRandomRead;
      tg.burst_bytes = 64;
      tg.max_outstanding = 48;
    }
  }
  return gens;
}

}  // namespace

double Scenario::aggressor_bps() const {
  double total = 0;
  for (wl::TrafficGen* g : aggressors) {
    total += sim::bytes_per_second(g->port().stats().bytes_granted.value(),
                                   chip->now());
  }
  return total;
}

std::size_t Scenario::admission_rejections() const {
  return static_cast<std::size_t>(
      std::count_if(admissions.begin(), admissions.end(),
                    [](const Admission& a) { return !a.admitted; }));
}

void Scenario::finish() {
  if (memguard != nullptr) {
    memguard->flush_trace(chip->now());
  }
  chip->finish_telemetry();
}

Scenario build(const Spec& spec, const Telemetry& tel) {
  validate(spec);
  Scenario s;
  // Platform knobs land before the Soc exists: the controller's address
  // mapper and the telemetry gating are fixed at construction.
  soc::SocConfig cfg = spec.platform;
  if (!spec.mapping.empty()) {
    cfg.dram.mapping = dram::mapping_policy_from_name(spec.mapping);
  }
  cfg.profile = cfg.profile || tel.profile;
  s.chip = std::make_unique<soc::Soc>(cfg);
  soc::Soc& chip = *s.chip;

  if (spec.critical != Critical::kNone) {
    s.critical = &chip.add_core(spec.core, critical_kernel(spec));
  }
  if (tel.journal) {
    chip.enable_journal();
  }

  const std::vector<wl::TrafficGenConfig> gens = aggressor_configs(spec);
  for (std::size_t i = 0; i < gens.size(); ++i) {
    s.aggressors.push_back(
        &chip.add_traffic_gen(i % cfg.accel_ports, gens[i]));
  }

  // Regulation. Budgets go on every port a generator drives; PREM gates
  // every accelerator port.
  const std::size_t driven =
      spec.regulate_idle_ports ? cfg.accel_ports
                               : std::min(gens.size(), cfg.accel_ports);
  const bool admitted = spec.envelope != nullptr && spec.scheme == Scheme::kHw;
  axi::TxnGate* prem_gate = nullptr;
  switch (spec.scheme) {
    case Scheme::kNone:
      break;
    case Scheme::kHw:
      for (std::size_t port = 0; port < driven; ++port) {
        qos::Regulator& reg = *chip.qos_block(1 + port).regulator;
        reg.set_window(spec.window_ps);
        if (!admitted) {  // else the manager programs the rate below
          reg.set_rate(spec.budget_bps);
          reg.set_enabled(true);
        }
      }
      break;
    case Scheme::kSw:
      s.memguard =
          std::make_unique<qos::SoftMemguard>(chip.sim(), spec.memguard);
      s.memguard->set_journal(chip.journal());
      for (std::size_t port = 0; port < driven; ++port) {
        axi::MasterPort& mp = chip.accel_port(port);
        s.memguard->set_rate(mp.id(), spec.budget_bps);
        mp.add_gate(*s.memguard);
      }
      break;
    case Scheme::kPremStrict:
      s.strict_gate = std::make_unique<BlockAllGate>();
      prem_gate = s.strict_gate.get();
      break;
    case Scheme::kPrem:
    case Scheme::kPremCmri: {
      // Frame = {CPU exclusive, FPGA shared} of 10 us slots: during the
      // CPU slot all accelerators are gated; in the FPGA slot they are free.
      qos::PremConfig pc;
      pc.schedule = {chip.cpu_port().id(), qos::kAllMasters};
      s.prem = std::make_unique<qos::PremArbiter>(chip.sim(), pc);
      prem_gate = s.prem.get();
      if (spec.scheme == Scheme::kPremCmri) {
        qos::CmriConfig cc;
        cc.injection_budget_bytes = spec.cmri_injection_bytes;
        s.cmri = std::make_unique<qos::CmriInjector>(*s.prem, cc);
        prem_gate = s.cmri.get();
      }
      break;
    }
  }
  if (prem_gate != nullptr) {
    // Gates see their own grants through on_grant; no observer needed.
    for (std::size_t port = 0; port < cfg.accel_ports; ++port) {
      chip.accel_port(port).add_gate(*prem_gate);
    }
  }

  // Certified-envelope admission: the regulated ports' budgets go through
  // a QosManager whose reserve() checks the certified bounds.
  if (admitted) {
    qos::QosManagerConfig mc;
    mc.capacity_bps = spec.envelope->capacity_bps;
    mc.max_reservable_frac = spec.envelope->max_reservable_frac;
    s.manager = std::make_unique<qos::QosManager>(chip.sim(), mc);
    s.manager->set_envelope(spec.envelope);
    s.manager->set_metrics(&chip.telemetry().metrics());
    if (telemetry::DecisionJournal* j = chip.journal()) {
      s.manager->set_journal(j);
    }
    for (std::size_t port = 0; port < driven; ++port) {
      axi::MasterPort& mp = chip.accel_port(port);
      s.manager->add_port(mp.name(), mp.id(), chip.regfile(1 + port));
      s.admissions.push_back(
          {mp.name(), s.manager->reserve(mp.id(), spec.budget_bps)});
    }
  }

  if (spec.bank_budgets != nullptr) {
    chip.apply_bank_budgets(*spec.bank_budgets);
  }
  if (spec.serving != nullptr) {
    chip.add_serving(*spec.serving, spec.seed);
  }
  if (spec.faults != nullptr) {
    fault::FaultInjector& inj = chip.arm_faults(*spec.faults, spec.seed);
    if (s.memguard != nullptr) {
      inj.wire_memguard(*s.memguard);
    }
  }
  if (spec.watchdog_fallback_mbps > 0) {
    for (std::size_t port = 0; port < driven; ++port) {
      qos::RegulatorWatchdogConfig wc;
      wc.name = "wd" + std::to_string(port);
      wc.check_period_ps = 4 * spec.window_ps;
      wc.fallback_budget_bytes = qos::budget_for_rate(
          spec.watchdog_fallback_mbps * 1e6, spec.window_ps);
      chip.add_regulator_watchdog(1 + port, wc);
    }
  }

  if (!tel.trace.empty()) {
    chip.open_trace(tel.trace, tel.trace_filter);
    if (s.memguard != nullptr) {
      s.memguard->set_trace(chip.telemetry().trace());
    }
  } else if (tel.lifecycle_metrics) {
    chip.enable_lifecycle_metrics();
  }

  if (tel.attribution || spec.sla_active()) {
    telemetry::AttributionEngine& engine =
        chip.enable_attribution(tel.attribution_window_ps);
    if (spec.sla_active()) {
      s.watchdog = std::make_unique<qos::SlaWatchdog>(
          engine, chip.telemetry().metrics());
      s.watchdog->watch(chip.cpu_port(), spec.sla);
      if (chip.telemetry().tracing()) {
        s.watchdog->set_trace(chip.telemetry().trace());
      }
      if (fault::FaultInjector* inj = chip.faults()) {
        // Violation reports name whichever fault was live at the time.
        s.watchdog->set_fault_probe(
            [inj](sim::TimePs t) { return inj->active_faults(t); });
      }
      if (telemetry::DecisionJournal* j = chip.journal()) {
        s.watchdog->set_journal(j);
      }
      if (spec.envelope != nullptr) {
        s.watchdog->set_envelope(spec.envelope, s.manager.get());
      }
    }
  }

  if (tel.timeseries) {
    // Last, so every standard series (including attr.* stall time) is
    // there to be probed.
    chip.enable_timeseries(tel.timeseries_config);
  }
  return s;
}

}  // namespace fgqos::scenario

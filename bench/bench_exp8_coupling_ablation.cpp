/// \file bench_exp8_coupling_ablation.cpp
/// \brief EXP8 — Fig. 6 reconstruction: how tight does the coupling need
///        to be?
///
/// Ablates the single design choice the paper's title claims matters:
/// the regulator's observation latency. The same token-bucket policy is
/// enforced by a LaggedRegulator whose view of consumed bytes lags
/// reality by 0 (tightly-coupled) up to 100 us (a monitor polled across
/// the fabric / config bus). One saturating DMA is regulated to
/// 400 MB/s in 100 us windows; a latency-critical CPU task runs
/// alongside. Reported: per-window overshoot (bytes over budget), the
/// effective rate, and the critical task's p99.
#include <cstdio>

#include "common.hpp"
#include "qos/polling_monitor.hpp"

using namespace fgqos;
using namespace fgqos::bench;

int main() {
  std::printf(
      "EXP8 (Fig.6): coupling ablation — observation latency of the "
      "regulator (400 MB/s budget, 100 us window, 3 aggressors)\n\n");
  const sim::TimePs window = 100 * sim::kPsPerUs;
  const double budget_bps = 400e6;
  const std::uint64_t budget_bytes = qos::budget_for_rate(budget_bps, window);

  // Solo reference for the critical task.
  double solo_mean = 0;
  {
    Spec p;
    p.aggressors = 0;
    p.core.max_iterations = 8;
    Scenario s = build_scenario(p);
    solo_mean = run_critical(s, 400 * sim::kPsPerMs);
  }

  util::Table table({"observation_lag", "overshoot/window", "overshoot_%",
                     "measured_rate", "crit_slowdown", "cpu_read_p99"});
  const std::vector<sim::TimePs> lags = {
      0,
      100 * sim::kPsPerNs,
      sim::kPsPerUs,
      10 * sim::kPsPerUs,
      50 * sim::kPsPerUs,
      100 * sim::kPsPerUs,
  };
  for (const sim::TimePs lag : lags) {
    Spec p;  // unregulated: gates attached manually below
    p.aggressors = 3;
    p.core.max_iterations = 8;
    Scenario s = build_scenario(p);
    std::vector<std::unique_ptr<qos::LaggedRegulator>> regs;
    for (std::size_t i = 0; i < 3; ++i) {
      qos::LaggedRegulatorConfig lc;
      lc.name = "lagged" + std::to_string(i);
      lc.budget_bytes = budget_bytes;
      lc.window_ps = window;
      lc.observation_latency_ps = lag;
      regs.push_back(
          std::make_unique<qos::LaggedRegulator>(s.chip->sim(), lc));
      s.chip->accel_port(i).add_gate(*regs.back());
    }
    const double mean = run_critical(s, 600 * sim::kPsPerMs);
    std::uint64_t overshoot = 0;
    for (const auto& r : regs) {
      overshoot = std::max(overshoot, r->max_overshoot_bytes());
    }
    const double measured = s.aggressor_bps() / 3.0;
    table.add_row(
        {lag == 0 ? std::string("0 (tight)") : util::format_time_ps(lag),
         util::format_bytes(overshoot),
         util::format_fixed(
             static_cast<double>(overshoot) /
                 static_cast<double>(budget_bytes) * 100.0, 1),
         util::format_bandwidth(measured),
         util::format_fixed(mean / solo_mean, 2) + "x",
         util::format_time_ps(
             s.chip->cpu_port().stats().read_latency.p99())});
  }
  table.print();
  table.save_csv("exp8_coupling_ablation.csv");
  std::printf("\nCSV written to exp8_coupling_ablation.csv\n");
  return 0;
}

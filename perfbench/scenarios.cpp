/// \file scenarios.cpp
/// \brief The simulation workloads: EXP1 (unregulated and HW-regulated)
///        and the regulated serving defense.
///
/// A run simulates fixed spans of the scenario in fixed steps, each rep on
/// a fresh Soc. Part p of a run owns sub-seeds p*kOwnSeeds .. +kOwnSeeds-1
/// and also simulates the next part's first sub-seed, so the parts of a
/// run can check that they agree on it. The simulated outputs (means over
/// the own sub-seeds) are a pure function of --seed and the part, and
/// every rep past the first round re-checks determinism.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/job.hpp"
#include "qos/adaptive_controller.hpp"
#include "qos/latency_monitor.hpp"
#include "qos/sla_watchdog.hpp"
#include "soc/presets.hpp"
#include "workload/cpu_workloads.hpp"

namespace perfbench {

using namespace fgqos;

namespace {

constexpr std::size_t kOwnSeeds = 4;
/// An untraced run makes at least kOwnSeeds + 1 reps in each of run.py's
/// four processes, so ten steps per rep give eval_ms.top10_mean at least
/// ten samples beyond its quantile.
constexpr sim::TimePs kStepsPerRep = 10;
/// Set-ups timed back to back, not run. A fixed count keeps setup_s
/// independent of how many reps fit in a run: set-ups right after a long
/// rep find cold caches, so sampling those would make a faster simulator
/// look slower to set up.
constexpr std::size_t kSetupSamples = 16;

/// Observability features of one run. Only the serving workload turns the
/// analysis features on; the traced pass turns them off one at a time.
struct Features {
  bool profile = false;
  bool attribution = true;  ///< attribution engine plus SLA watchdog
  bool timeseries = true;
  bool journal = true;
};

struct Scenario {
  std::unique_ptr<soc::Soc> chip;
  cpu::CpuCore* victim = nullptr;
  wl::ServingTenant* tenant = nullptr;
  std::vector<const wl::TrafficGen*> gens;
  std::vector<std::size_t> be_ports;  ///< HP ports counted in be_gbps
  std::unique_ptr<qos::LatencyMonitor> monitor;
  std::unique_ptr<qos::AdaptiveQosController> controller;
  std::unique_ptr<qos::SlaWatchdog> watchdog;
  double build_s = 0;     ///< Soc constructor
  double workload_s = 0;  ///< add_core / add_traffic_gen / add_serving
  double setup_s = 0;     ///< start to the first simulated cycle
  std::vector<std::string> cpu_ticks;       ///< Clocked names, cpu layer
  std::vector<std::string> workload_ticks;  ///< Clocked names, workload layer
};

/// What the latency-critical party and the best-effort ports got.
struct Outcome {
  double critical_mean_ps = 0;  ///< victim iteration / request latency mean
  double critical_p99_ps = 0;   ///< victim read / request latency p99
  double be_bps = 0;
  double slo_pct = 0;
};

struct SimSpec {
  sim::TimePs span_ps = 0;
  sim::TimePs step_ps = 0;
  std::function<Scenario(std::uint64_t seed, const Features& f, bool solo)>
      build;
  /// Workload-specific output checks after a rep.
  std::function<void(Record&, Scenario&)> checks;
  /// Records the model outputs in the workload's own terms.
  std::function<void(Record&, const std::vector<Outcome>&)> outputs;
};

soc::SocConfig platform(bool profile) {
  soc::SocConfig cfg = soc::preset_by_name("zcu102");
  cfg.profile = profile;
  return cfg;
}

/// The serving platform: zcu102 with one HP port per bulk generator plus
/// the tenant's. A TrafficGen takes over its port's completion handler,
/// so two generators on one port would steal each other's completions.
constexpr std::size_t kBulkPorts = 6;
constexpr std::size_t kServingPort = kBulkPorts;

soc::SocConfig serving_platform(bool profile) {
  soc::SocConfig cfg = platform(profile);
  cfg.accel_ports = kBulkPorts + 1;
  return cfg;
}

Scenario build_exp1(std::uint64_t seed, bool regulated, bool profile,
                    bool solo) {
  Scenario sc;
  const Clock::time_point t0 = Clock::now();
  sc.chip = std::make_unique<soc::Soc>(platform(profile));
  sc.build_s = seconds_since(t0);
  soc::Soc& chip = *sc.chip;

  const Clock::time_point t1 = Clock::now();
  cpu::CoreConfig cc;
  cc.name = "critical";
  cc.rng_seed = seed;
  sc.victim = &chip.add_core(cc, wl::make_pointer_chase({}));
  if (!solo) {
    for (std::size_t i = 0; i < 4; ++i) {
      wl::TrafficGenConfig tg;
      tg.name = "agg" + std::to_string(i);
      tg.pattern = wl::Pattern::kSeqRead;
      tg.base = 0x8000'0000 + static_cast<axi::Addr>(i) * (64ull << 20);
      tg.footprint_bytes = 16ull << 20;
      tg.seed = seed + i;
      sc.gens.push_back(&chip.add_traffic_gen(i, tg));
      sc.be_ports.push_back(i);
      sc.workload_ticks.push_back(tg.name);
    }
  }
  sc.workload_s = seconds_since(t1);
  if (regulated) {
    // The paper's scheme: 400 MB/s per HP port over a 1 us window.
    for (const std::size_t p : sc.be_ports) {
      qos::Regulator& reg = *chip.qos_block(1 + p).regulator;
      reg.set_window(sim::kPsPerUs);
      reg.set_rate(400e6);
      reg.set_enabled(true);
    }
  }
  sc.setup_s = seconds_since(t0);
  sc.cpu_ticks = {"critical", chip.cluster().name()};
  return sc;
}

constexpr sim::TimePs kSloPs = 3 * sim::kPsPerUs;

Scenario build_serving(std::uint64_t seed, sim::TimePs span_ps,
                       const Features& f, bool solo) {
  Scenario sc;
  const Clock::time_point t0 = Clock::now();
  sc.chip = std::make_unique<soc::Soc>(serving_platform(f.profile));
  sc.build_s = seconds_since(t0);
  soc::Soc& chip = *sc.chip;

  const Clock::time_point t1 = Clock::now();
  wl::ServingSpec spec;
  spec.seed = seed;
  spec.duration_ps = span_ps;
  wl::ServingTenantSpec t;
  t.name = "lc";
  t.port = kServingPort;
  t.arrival = wl::ArrivalKind::kPoisson;
  t.rate_qps = 200e3;
  t.zipf_s = 0.99;
  t.key_count = 65536;
  t.value_bytes = 4096;
  t.read_fraction = 0.95;
  t.slo_ps = kSloPs;
  t.max_outstanding = 8;
  t.queue_capacity = 4096;
  spec.tenants.push_back(t);
  // The tenant seed mixes spec.seed ^ run_seed, so they must differ.
  chip.add_serving(spec, /*run_seed=*/1);
  sc.tenant = &chip.serving_tenant(0);
  sc.workload_ticks.push_back(t.name);
  if (!solo) {
    // Streaming writers and random readers, one per bulk port.
    for (std::size_t i = 0; i < kBulkPorts; ++i) {
      wl::TrafficGenConfig tg;
      tg.name = "bulk" + std::to_string(i);
      tg.pattern =
          (i & 1) != 0 ? wl::Pattern::kRandomRead : wl::Pattern::kSeqWrite;
      tg.base = 0x8000'0000 + (static_cast<axi::Addr>(i) << 26);
      tg.seed = seed + i;
      sc.gens.push_back(&chip.add_traffic_gen(i, tg));
      sc.workload_ticks.push_back(tg.name);
    }
    for (std::size_t p = 0; p < kBulkPorts; ++p) {
      sc.be_ports.push_back(p);
    }
  }
  sc.workload_s = seconds_since(t1);

  if (!solo) {
    // The defense: a latency monitor on the serving port drives the
    // adaptive controller over the bulk-port regulators.
    qos::LatencyMonitorConfig lmc;
    lmc.window_ps = 100 * sim::kPsPerUs;
    sc.monitor = std::make_unique<qos::LatencyMonitor>(chip.sim(), lmc);
    chip.accel_port(kServingPort).add_observer(*sc.monitor);
    std::vector<qos::Regulator*> regs;
    for (std::size_t p = 0; p < kBulkPorts; ++p) {
      regs.push_back(chip.qos_block(1 + p).regulator.get());
    }
    qos::AdaptiveControllerConfig ac;
    ac.latency_target_ps = 2 * sim::kPsPerUs;
    ac.period_ps = lmc.window_ps;
    ac.increase_bps = 200e6;
    sc.controller = std::make_unique<qos::AdaptiveQosController>(
        chip.sim(), ac, *sc.monitor, regs);
    sc.controller->start();
    if (f.attribution) {
      telemetry::AttributionEngine& eng =
          chip.enable_attribution(100 * sim::kPsPerUs);
      sc.watchdog =
          std::make_unique<qos::SlaWatchdog>(eng, chip.telemetry().metrics());
      qos::SlaSpec sla;
      sla.max_p99_latency_ps = kSloPs;
      sc.watchdog->watch(chip.accel_port(kServingPort), sla);
    }
    if (f.journal) {
      telemetry::DecisionJournal& j = chip.enable_journal();
      sc.controller->set_journal(&j);
      if (sc.watchdog) {
        sc.watchdog->set_journal(&j);
      }
    }
    if (f.timeseries) {
      chip.enable_timeseries(telemetry::TimeSeriesConfig{});
    }
  }
  sc.setup_s = seconds_since(t0);
  sc.cpu_ticks = {chip.cluster().name()};
  return sc;
}

Outcome outcome_of(Scenario& sc) {
  Outcome o;
  soc::Soc& chip = *sc.chip;
  if (sc.victim != nullptr) {
    o.critical_mean_ps = sc.victim->stats().iteration_ps.mean();
    o.critical_p99_ps =
        static_cast<double>(chip.cpu_port().stats().read_latency.p99());
  } else {
    o.critical_mean_ps = sc.tenant->latency().mean();
    o.critical_p99_ps = static_cast<double>(sc.tenant->latency().p99());
    o.slo_pct = sc.tenant->slo_attainment_available()
                    ? sc.tenant->slo_attainment() * 100
                    : 0.0;
  }
  std::uint64_t be = 0;
  for (const std::size_t p : sc.be_ports) {
    be += chip.accel_port(p).stats().bytes_granted.value();
  }
  o.be_bps = sim::bytes_per_second(be, chip.now());
  return o;
}

/// Mean over the sub-seeds: steadier across seeds than their median.
double mean_of(const std::vector<Outcome>& os, double Outcome::*field) {
  double sum = 0;
  for (const Outcome& o : os) {
    sum += o.*field;
  }
  return sum / static_cast<double>(os.size());
}

Counts counts_with_controller(Scenario& sc) {
  Counts c = counts_of(*sc.chip);
  if (sc.controller) {
    c.adaptive_steps =
        sc.controller->stats().increases + sc.controller->stats().decreases;
  }
  return c;
}

struct RepResult {
  double run_s = 0;
  double collect_s = 0;
  Digest digest;
};

/// One rep after set-up: run, collect, check.
RepResult run_rep(const SimSpec& spec, Scenario& sc, Record& rec,
                  bool sample_steps) {
  RepResult r;
  r.run_s = run_steps(*sc.chip, spec.span_ps, spec.step_ps,
                      sample_steps ? &rec : nullptr);
  const Clock::time_point t0 = Clock::now();
  r.digest = sim_digest(*sc.chip);
  r.collect_s = seconds_since(t0);
  check_platform(rec, *sc.chip, sc.gens);
  if (spec.checks) {
    spec.checks(rec, sc);
  }
  return r;
}

/// A sub-seed of the run: its index among all parts' sub-seeds and the
/// seed derived from it.
struct SubSeed {
  std::size_t index = 0;
  std::uint64_t seed = 0;
};

/// Untraced pass: the end-to-end metrics. The first kOwnSeeds of \p seeds
/// are the part's own; a further one is simulated only for the
/// cross-part check.
void measure(const Options& opt, const SimSpec& spec,
             const std::vector<SubSeed>& seeds, Record& rec) {
  const Clock::time_point start = Clock::now();
  const double span_ms = static_cast<double>(spec.span_ps) / 1e9;
  const auto steps_per_rep = static_cast<double>(
      (spec.span_ps + spec.step_ps - 1) / spec.step_ps);

  std::vector<Outcome> solo;
  for (std::size_t k = 0; k < kOwnSeeds; ++k) {
    Scenario sc = spec.build(seeds[k].seed, Features{}, true);
    run_steps(*sc.chip, spec.span_ps, spec.step_ps, nullptr);
    solo.push_back(outcome_of(sc));
  }
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    rec.sample("setup_s",
               spec.build(seeds[i % seeds.size()].seed, Features{}, false)
                   .setup_s);
  }

  std::vector<Outcome> first;
  std::vector<Digest> first_digest;
  Counts work;  // first round: exact wasted-work counts for the summary
  // Past the first round, a rep starts only if it should end in time.
  double last_rep_s = 0;
  for (std::size_t r = 0; r < seeds.size() ||
                          seconds_since(start) + last_rep_s < opt.seconds;
       ++r) {
    const Clock::time_point rep_start = Clock::now();
    const std::size_t k = r % seeds.size();
    Scenario sc = spec.build(seeds[k].seed, Features{}, false);
    const RepResult res = run_rep(spec, sc, rec, true);
    rec.sample("host_ms_per_sim_ms", res.run_s * 1e3 / span_ms);
    rec.sample("evals_per_s", steps_per_rep / res.run_s);
    if (r < seeds.size()) {
      first_digest.push_back(res.digest);
      rec.fingerprint("sub_seed." + std::to_string(seeds[k].index),
                      digest_hash(res.digest));
      if (k < kOwnSeeds) {
        first.push_back(outcome_of(sc));
        work.add(counts_of(*sc.chip));
      }
    } else {
      check_equal(rec, res.digest, first_digest[k], "sim.repeat_identical");
    }
    last_rep_s = seconds_since(rep_start);
  }

  double slowdown = 0;
  for (std::size_t k = 0; k < kOwnSeeds; ++k) {
    slowdown += first[k].critical_mean_ps / solo[k].critical_mean_ps;
  }
  rec.value("critical_slowdown", slowdown / static_cast<double>(kOwnSeeds));
  rec.value("critical_mean_us",
            mean_of(first, &Outcome::critical_mean_ps) / 1e6);
  rec.value("be_gbps", mean_of(first, &Outcome::be_bps) / 1e9);
  spec.outputs(rec, first);
  rec.output("sim.events", static_cast<double>(work.events));
  rec.output("sim.ticks", static_cast<double>(work.ticks));
  rec.output("dram.ticks_per_cas", static_cast<double>(work.dram_ticks) /
                                       static_cast<double>(work.cas));
  rec.output("xbar.ticks_per_grant", static_cast<double>(work.xbar_ticks) /
                                         static_cast<double>(work.grants));
}

/// Traced pass: untraced and profiled reps per sub-seed (and, on the
/// serving workload, one rep per observability feature turned off).
void measure_traced(const Options& opt, const SimSpec& spec,
                    const std::vector<std::uint64_t>& seeds, bool serving,
                    Record& rec) {
  const Clock::time_point start = Clock::now();
  Counts counts;
  telemetry::ProfileSnapshot profile;
  std::vector<std::string> cpu_ticks;
  std::vector<std::string> workload_ticks;
  double untraced_s = 0;
  double traced_s = 0;
  double no_attr_s = 0;
  double no_ts_s = 0;
  double no_journal_s = 0;
  std::uint64_t residual_ps = 0;
  double ops = 0;

  for (std::size_t round = 0; round == 0 || seconds_since(start) < opt.seconds;
       ++round) {
    for (const std::uint64_t s : seeds) {
      Scenario base = spec.build(s, Features{}, false);
      rec.sample("soc.build_s", base.build_s);
      rec.sample("workload.setup_s", base.workload_s);
      const RepResult u = run_rep(spec, base, rec, false);
      untraced_s += u.run_s;
      rec.sample("telemetry.collect_s", u.collect_s);
      if (base.chip->attribution() != nullptr) {
        residual_ps += base.chip->attribution()->residual_ps();
      }
      if (round == 0) {
        counts.add(counts_with_controller(base));
        ops += base.tenant != nullptr
                   ? static_cast<double>(base.tenant->ops().size())
                   : 0.0;
      }

      Features traced;
      traced.profile = true;
      Scenario t = spec.build(s, traced, false);
      const RepResult tr = run_rep(spec, t, rec, false);
      traced_s += tr.run_s;
      check_equal(rec, tr.digest, u.digest, "trace.stats_identical");
      profile.merge(t.chip->profiler()->snapshot());
      cpu_ticks = t.cpu_ticks;
      workload_ticks = t.workload_ticks;

      if (serving) {
        // Each feature off on its own; the simulated model must not move.
        const auto without = [&](Features f) {
          Scenario v = spec.build(s, f, false);
          const RepResult vr = run_rep(spec, v, rec, false);
          check_equal(rec, model_digest(vr.digest), model_digest(u.digest),
                      "telemetry.model_identical");
          return vr.run_s;
        };
        Features f;
        f.attribution = false;
        no_attr_s += without(f);
        f = Features{};
        f.timeseries = false;
        no_ts_s += without(f);
        f = Features{};
        f.journal = false;
        no_journal_s += without(f);
      }
    }
  }

  const auto overhead_pct = [](double with_s, double without_s) {
    return without_s > 0 ? (with_s / without_s - 1) * 100 : 0.0;
  };
  counts.record(rec);
  record_shares(rec, profile, cpu_ticks, workload_ticks);
  rec.value("trace.overhead_pct", overhead_pct(traced_s, untraced_s));
  rec.value("telemetry.profiler_overhead_pct",
            overhead_pct(traced_s, untraced_s));
  rec.value("telemetry.attribution_overhead_pct",
            overhead_pct(untraced_s, no_attr_s));
  rec.value("telemetry.timeseries_overhead_pct",
            overhead_pct(untraced_s, no_ts_s));
  rec.value("telemetry.journal_overhead_pct",
            overhead_pct(untraced_s, no_journal_s));
  rec.value("telemetry.attribution_residual_ps",
            static_cast<double>(residual_ps));
  rec.value("serving.ops", ops);
  // The exec and search layers run only in certify_batch.
  for (const char* name :
       {"exec.utilization", "exec.speedup", "exec.queue_wait_ms.p50",
        "search.eval_ms.solo", "search.eval_ms.unregulated",
        "search.eval_ms.regulated"}) {
    rec.value(name, 0);
  }
}

void run_sim_workload(const Options& opt, const SimSpec& spec, bool serving,
                      Record& rec) {
  std::vector<SubSeed> seeds;
  const auto add = [&](std::size_t index) {
    seeds.push_back({index, exec::derive_seed(opt.seed, index)});
  };
  for (std::size_t k = 0; k < kOwnSeeds; ++k) {
    add(opt.part * kOwnSeeds + k);
  }
  if (opt.trace) {
    std::vector<std::uint64_t> own;
    for (const SubSeed& s : seeds) {
      own.push_back(s.seed);
    }
    measure_traced(opt, spec, own, serving, rec);
    return;
  }
  if (opt.parts > 1) {
    add((opt.part + 1) % opt.parts * kOwnSeeds);
  }
  measure(opt, spec, seeds, rec);
}

}  // namespace

void run_exp1(const Options& opt, bool regulated, Record& rec) {
  SimSpec spec;
  // Unregulated, DRAM is saturated and a simulated ms costs about a host
  // second; regulated it is about five times cheaper, so it runs longer.
  spec.span_ps = (regulated ? 2 : 1) * sim::kPsPerMs;
  spec.step_ps = spec.span_ps / kStepsPerRep;
  spec.build = [regulated](std::uint64_t seed, const Features& f, bool solo) {
    return build_exp1(seed, regulated, f.profile, solo);
  };
  if (regulated) {
    spec.checks = [](Record& r, Scenario& sc) {
      check_regulated_budget(r, *sc.chip);
    };
  }
  spec.outputs = [](Record& r, const std::vector<Outcome>& os) {
    r.output("victim_iter_us", mean_of(os, &Outcome::critical_mean_ps) / 1e6);
    r.output("victim_read_p99_us",
             mean_of(os, &Outcome::critical_p99_ps) / 1e6);
    r.output("be_gbps", mean_of(os, &Outcome::be_bps) / 1e9);
  };
  run_sim_workload(opt, spec, false, rec);
}

void run_serving(const Options& opt, Record& rec) {
  SimSpec spec;
  spec.span_ps = 4 * sim::kPsPerMs;
  spec.step_ps = spec.span_ps / kStepsPerRep;
  spec.build = [span = spec.span_ps](std::uint64_t seed, const Features& f,
                                     bool solo) {
    return build_serving(seed, span, f, solo);
  };
  spec.checks = [](Record& r, Scenario& sc) {
    const wl::ServingTenant& t = *sc.tenant;
    const wl::ServingTenantStats& st = t.stats();
    r.check(st.generated ==
                st.completed + st.dropped + t.in_flight() + t.queue_depth(),
            "serving.conservation", t.spec().name);
    if (telemetry::AttributionEngine* eng = sc.chip->attribution()) {
      r.check(eng->residual_ps() == 0, "telemetry.attribution_residual_zero",
              std::to_string(eng->residual_ps()) + " ps");
    }
  };
  spec.outputs = [](Record& r, const std::vector<Outcome>& os) {
    r.output("lc_p99_us", mean_of(os, &Outcome::critical_p99_ps) / 1e6);
    r.output("lc_slo_attainment_pct", mean_of(os, &Outcome::slo_pct));
    r.output("be_gbps", mean_of(os, &Outcome::be_bps) / 1e9);
  };
  run_sim_workload(opt, spec, true, rec);
}

}  // namespace perfbench

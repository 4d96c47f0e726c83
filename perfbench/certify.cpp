/// \file certify.cpp
/// \brief The certification eval batch: evaluate_attack calls fanned out
///        through a ScenarioRunner, as a worst-case search spends its time.
///
/// The batch holds one solo baseline, then an unregulated and a regulated
/// evaluation of each AttackConfig sampled from the catalog. The sample is
/// stratified over aggressor count and pattern, the two dimensions that
/// set an evaluation's cost, so the batch's timing does not swing with the
/// seed; the other dimensions are drawn at random.
///
/// Only aggressor counts up to the platform's HP port count are sampled.
/// evaluate_attack places aggressor i on port i mod accel_ports, and a
/// TrafficGen takes over its port's completion handler, so with more
/// aggressors than ports two generators share a port and one of them loses
/// its completions and stalls.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "exec/scenario_runner.hpp"
#include "search/attack_space.hpp"
#include "search/objective.hpp"
#include "sim/random.hpp"
#include "workload/cpu_workloads.hpp"

namespace perfbench {

using namespace fgqos;
using search::AttackConfig;
using search::AttackSpace;

namespace {

/// 1 + 2 x 54 = 109 evaluations, so eval_ms.top10_mean has at least ten
/// evaluations beyond its quantile.
constexpr std::size_t kConfigs = 54;
/// Fixed worker count (capped at the host's threads): leaves headroom on
/// a 4-thread host.
constexpr std::size_t kWorkers = 2;
/// Seed of the configuration sample. It is fixed: which configurations a
/// batch holds sets its cost and its worst case, so a per-run sample would
/// make the timings measure the sample instead of the code. The run's
/// seed drives the simulations (victim chain, generator streams).
constexpr std::uint64_t kDesignSeed = 0x5eed'ca7a'1065ull;

/// Leading entries of AttackSpace::kCounts (ascending) that give every
/// aggressor its own port on evaluate_attack's platform.
std::size_t fitting_counts() {
  const std::size_t ports = soc::SocConfig{}.accel_ports;
  std::size_t n = 0;
  while (n < AttackSpace::kCounts.size() &&
         static_cast<std::size_t>(AttackSpace::kCounts[n]) <= ports) {
    ++n;
  }
  return n;
}

struct Eval {
  const AttackConfig* config = nullptr;  ///< nullptr = solo victim
  bool regulated = false;
  std::string kind;
};

struct Batch {
  std::vector<AttackConfig> configs;
  std::vector<Eval> evals;
  std::uint64_t sim_seed = 0;
};

Batch make_batch(std::uint64_t seed) {
  Batch b;
  sim::Xoshiro256 rng(kDesignSeed);
  b.sim_seed = exec::derive_seed(seed, 0);
  b.configs.resize(kConfigs);
  // Latin-hypercube sample: along every dimension each catalog value
  // appears equally often (up to rounding), shuffled by the design seed.
  for (std::size_t d = 0; d < search::kNumDims; ++d) {
    const std::size_t n = d == search::kDimCount ? fitting_counts()
                                                 : AttackSpace::dim_size(d);
    std::vector<std::uint8_t> column(kConfigs);
    for (std::size_t j = 0; j < kConfigs; ++j) {
      column[j] = static_cast<std::uint8_t>(j % n);
    }
    for (std::size_t j = kConfigs - 1; j > 0; --j) {
      std::swap(column[j], column[rng.next_below(j + 1)]);
    }
    for (std::size_t j = 0; j < kConfigs; ++j) {
      b.configs[j].choice[d] = column[j];
    }
  }
  for (AttackConfig& c : b.configs) {
    c = AttackSpace::normalize(c);
  }
  b.evals.push_back({nullptr, false, "solo"});
  for (const AttackConfig& c : b.configs) {
    b.evals.push_back({&c, false, "unregulated"});
    b.evals.push_back({&c, true, "regulated"});
  }
  return b;
}

struct EvalOut {
  search::EvalResult r;
  double host_ms = 0;
};

bool same_result(const search::EvalResult& a, const search::EvalResult& b) {
  return a.iter_mean_ps == b.iter_mean_ps && a.iter_p99_ps == b.iter_p99_ps &&
         a.read_p99_ps == b.read_p99_ps && a.victim_bw_bps == b.victim_bw_bps &&
         a.aggressor_bps == b.aggressor_bps &&
         a.slo_miss_frac == b.slo_miss_frac &&
         a.deadline_missed == b.deadline_missed;
}

/// Simulated span of the victim's run: its iterations back to back.
double victim_sim_ms(const search::EvalResult& r, const search::EvalSpec& spec) {
  return r.iter_mean_ps * static_cast<double>(spec.victim_iterations) / 1e9;
}

/// The platform evaluate_attack builds (objective.cpp), on a Soc this
/// benchmark owns, so the benchmark can time its set-up, switch the host
/// profiler on and read the platform's counters.
struct EvalSoc {
  std::unique_ptr<soc::Soc> soc;
  cpu::CpuCore* victim = nullptr;
  std::vector<const wl::TrafficGen*> gens;
  double build_s = 0;  ///< Soc constructor
};

EvalSoc build_eval_soc(const Eval& e, const search::EvalSpec& spec,
                       std::uint64_t sim_seed, bool profile) {
  EvalSoc es;
  const Clock::time_point t0 = Clock::now();
  soc::SocConfig scfg;
  scfg.profile = profile;
  es.soc = std::make_unique<soc::Soc>(scfg);
  es.build_s = seconds_since(t0);
  soc::Soc& soc = *es.soc;

  wl::PointerChaseConfig chase;
  chase.name = "victim";
  chase.accesses_per_iteration = spec.victim_accesses;
  cpu::CoreConfig core_cfg;
  core_cfg.name = "victim";
  core_cfg.max_iterations = spec.victim_iterations;
  core_cfg.rng_seed = sim_seed;
  es.victim = &soc.add_core(core_cfg, wl::make_pointer_chase(chase));
  if (e.config != nullptr) {
    const auto cfgs = AttackSpace::to_traffic_gens(*e.config, sim_seed);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      es.gens.push_back(
          &soc.add_traffic_gen(i % soc.accel_port_count(), cfgs[i]));
    }
  }
  if (e.regulated) {
    const auto window_ps =
        static_cast<sim::TimePs>(spec.window_us * sim::kPsPerUs);
    for (std::size_t p = 0; p < soc.accel_port_count(); ++p) {
      auto& reg = *soc.qos_block(1 + p).regulator;
      reg.set_window(window_ps);
      reg.set_rate(spec.regulated_budget_mbps * 1e6);
      reg.set_enabled(true);
    }
  }
  return es;
}

struct Replica {
  search::EvalResult r;
  double host_ms = 0;
};

/// evaluate_attack's simulation replayed on an EvalSoc. Its result must
/// equal the library's bit for bit.
Replica replica_eval(const Eval& e, const search::EvalSpec& spec,
                     std::uint64_t sim_seed, bool profile, Record& rec,
                     Counts* counts, telemetry::ProfileSnapshot* prof) {
  const Clock::time_point t0 = Clock::now();
  EvalSoc es = build_eval_soc(e, spec, sim_seed, profile);
  rec.sample("soc.build_s", es.build_s);
  soc::Soc& soc = *es.soc;
  const cpu::CpuCore& core = *es.victim;
  const auto deadline =
      static_cast<sim::TimePs>(spec.deadline_ms * sim::kPsPerMs);
  const bool finished = soc.run_until_cores_finished(deadline);

  Replica out;
  search::EvalResult& r = out.r;
  r.deadline_missed = !finished;
  const auto& iters = core.stats().iteration_ps;
  r.iter_mean_ps = iters.mean();
  r.iter_p99_ps = static_cast<double>(iters.p99());
  r.read_p99_ps =
      static_cast<double>(soc.cpu_port().stats().read_latency.p99());
  const sim::TimePs now = soc.now();
  r.victim_bw_bps =
      sim::bytes_per_second(soc.cpu_port().stats().bytes_granted.value(), now);
  std::uint64_t agg_bytes = 0;
  for (std::size_t p = 0; p < soc.accel_port_count(); ++p) {
    agg_bytes += soc.accel_port(p).stats().bytes_granted.value();
  }
  r.aggressor_bps = sim::bytes_per_second(agg_bytes, now);
  if (iters.count() == 0) {
    r.slo_miss_frac = 1.0;
  }
  out.host_ms = seconds_since(t0) * 1e3;

  const Clock::time_point t1 = Clock::now();
  (void)soc.collect_metrics();
  rec.sample("telemetry.collect_s", seconds_since(t1));
  check_platform(rec, soc, es.gens);
  if (e.regulated) {
    check_regulated_budget(rec, soc);
  }
  if (counts != nullptr) {
    counts->add(counts_of(soc));
  }
  if (prof != nullptr) {
    prof->merge(soc.profiler()->snapshot());
  }
  return out;
}

std::vector<EvalOut> run_batch(exec::ScenarioRunner& runner, const Batch& b,
                               const search::EvalSpec& spec) {
  return runner.map(b.evals.size(), [&](const exec::JobContext& ctx) {
    const Eval& e = b.evals[ctx.index];
    const Clock::time_point t0 = Clock::now();
    EvalOut o;
    o.r = search::evaluate_attack(e.config, spec, b.sim_seed, e.regulated, 0);
    o.host_ms = seconds_since(t0) * 1e3;
    return o;
  });
}

exec::ExecConfig exec_config(std::uint64_t seed) {
  exec::ExecConfig ec;
  ec.jobs = std::min<std::size_t>(
      kWorkers, std::max(1u, std::thread::hardware_concurrency()));
  ec.base_seed = seed;
  return ec;
}

/// The batch's results as one digest, for the cross-process check.
Digest batch_digest(const std::vector<EvalOut>& res) {
  Digest d;
  for (std::size_t i = 0; i < res.size(); ++i) {
    const search::EvalResult& r = res[i].r;
    const std::string p = std::to_string(i) + ".";
    d[p + "iter_mean_ps"] = r.iter_mean_ps;
    d[p + "iter_p99_ps"] = r.iter_p99_ps;
    d[p + "read_p99_ps"] = r.read_p99_ps;
    d[p + "victim_bw_bps"] = r.victim_bw_bps;
    d[p + "aggressor_bps"] = r.aggressor_bps;
    d[p + "slo_miss_frac"] = r.slo_miss_frac;
    d[p + "deadline_missed"] = r.deadline_missed ? 1 : 0;
  }
  return d;
}

void record_outputs(Record& rec, const Batch& b,
                    const std::vector<EvalOut>& res) {
  const double solo = res[0].r.iter_mean_ps;
  double worst_slowdown = 0;
  double slowdown_sum = 0;
  double worst_p99 = 0;
  double be_sum = 0;
  double iter_sum = 0;
  std::size_t regulated = 0;
  for (std::size_t i = 0; i < b.evals.size(); ++i) {
    if (!b.evals[i].regulated) {
      continue;
    }
    worst_slowdown = std::max(worst_slowdown, res[i].r.iter_mean_ps / solo);
    slowdown_sum += res[i].r.iter_mean_ps / solo;
    worst_p99 = std::max(worst_p99, res[i].r.read_p99_ps);
    iter_sum += res[i].r.iter_mean_ps;
    be_sum += res[i].r.aggressor_bps;
    ++regulated;
  }
  // The mean, not the worst case: a maximum over one batch swings with
  // the seed far more than the mean (see regulated_worst_slowdown).
  rec.value("critical_slowdown",
            slowdown_sum / static_cast<double>(regulated));
  rec.value("critical_mean_us",
            iter_sum / static_cast<double>(regulated) / 1e6);
  rec.value("be_gbps", be_sum / static_cast<double>(regulated) / 1e9);
  rec.output("regulated_worst_slowdown", worst_slowdown);
  rec.output("victim_read_p99_us", worst_p99 / 1e6);
  rec.output("be_gbps", be_sum / static_cast<double>(regulated) / 1e9);
}

}  // namespace

void run_certify(const Options& opt, Record& rec) {
  const Clock::time_point start = Clock::now();
  const search::EvalSpec spec;

  // Set-up: sample the batch and start the worker pool.
  const Batch batch = make_batch(opt.seed);
  exec::ScenarioRunner runner(exec_config(opt.seed));
  rec.sample("workload.setup_s", seconds_since(start));

  if (!opt.trace) {
    // Each evaluation's own set-up, up to its first simulated cycle: the
    // platform evaluate_attack builds, timed on the benchmark's copy.
    for (const Eval& e : batch.evals) {
      const Clock::time_point t1 = Clock::now();
      const EvalSoc es = build_eval_soc(e, spec, batch.sim_seed, false);
      rec.sample("setup_s", seconds_since(t1));
    }
    std::vector<EvalOut> first;
    // Past the first batch, a batch starts only if it should end in time.
    double wall_s = 0;
    for (std::size_t round = 0;
         round == 0 || seconds_since(start) + wall_s < opt.seconds; ++round) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<EvalOut> res = run_batch(runner, batch, spec);
      wall_s = seconds_since(t0);
      double host_ms = 0;
      double sim_ms = 0;
      for (std::size_t i = 0; i < res.size(); ++i) {
        rec.check(!res[i].r.deadline_missed, "search.no_deadline_missed",
                  batch.evals[i].kind + " #" + std::to_string(i));
        rec.sample("eval_ms", res[i].host_ms);
        host_ms += res[i].host_ms;
        sim_ms += victim_sim_ms(res[i].r, spec);
        if (round > 0) {
          rec.check(same_result(res[i].r, first[i].r),
                    "search.repeat_identical", "#" + std::to_string(i));
        }
      }
      rec.sample("host_ms_per_sim_ms", host_ms / sim_ms);
      rec.sample("evals_per_s", static_cast<double>(res.size()) / wall_s);
      if (round == 0) {
        first = res;
      }
    }
    record_outputs(rec, batch, first);
    // Every process of a run simulates the same batch.
    rec.fingerprint("batch", digest_hash(batch_digest(first)));
    return;
  }

  // Traced pass: the multi-worker batch, then a serial rerun of every
  // evaluation on the replica, profiler off and on. Both must reproduce
  // the library's results exactly.
  const std::vector<EvalOut> res = run_batch(runner, batch, spec);
  Counts counts;
  telemetry::ProfileSnapshot profile;
  double untraced_ms = 0;
  double traced_ms = 0;
  for (std::size_t i = 0; i < res.size(); ++i) {
    const Eval& e = batch.evals[i];
    rec.sample("search.eval_ms." + e.kind, res[i].host_ms);
    rec.check(!res[i].r.deadline_missed, "search.no_deadline_missed",
              e.kind + " #" + std::to_string(i));
    const Replica serial =
        replica_eval(e, spec, batch.sim_seed, false, rec, &counts, nullptr);
    const Replica traced =
        replica_eval(e, spec, batch.sim_seed, true, rec, nullptr, &profile);
    rec.check(same_result(serial.r, res[i].r), "search.serial_identical",
              e.kind + " #" + std::to_string(i));
    rec.check(same_result(traced.r, res[i].r), "trace.stats_identical",
              e.kind + " #" + std::to_string(i));
    untraced_ms += serial.host_ms;
    traced_ms += traced.host_ms;
  }
  // Generators are named atk<i>, up to the largest sampled count.
  std::vector<std::string> workload_ticks;
  for (int i = 0; i < AttackSpace::kCounts[fitting_counts() - 1]; ++i) {
    workload_ticks.push_back("atk" + std::to_string(i));
  }

  telemetry::MetricsRegistry& em = runner.metrics();
  rec.value("exec.utilization", em.gauge("exec.worker_utilization").value());
  rec.value("exec.speedup", em.gauge("exec.speedup").value());
  rec.value("exec.queue_wait_ms.p50",
            static_cast<double>(em.histogram("exec.queue_wait_us").p50()) /
                1e3);
  counts.record(rec);
  record_shares(rec, profile, {"victim", soc::SocConfig{}.cluster.name},
                workload_ticks);
  const double overhead = (traced_ms / untraced_ms - 1) * 100;
  rec.value("trace.overhead_pct", overhead);
  rec.value("telemetry.profiler_overhead_pct", overhead);
  // No attribution, time series, journal or serving tenant in this batch.
  for (const char* name :
       {"telemetry.attribution_overhead_pct", "telemetry.timeseries_overhead_pct",
        "telemetry.journal_overhead_pct", "telemetry.attribution_residual_ps",
        "serving.ops"}) {
    rec.value(name, 0);
  }
}

}  // namespace perfbench

/// \file fgqos_sweep.cpp
/// \brief Parameter-sweep driver: vary one knob, collect the outcome CSV.
///
/// Sweeps one of {budget, window, aggressors, isr} for a fixed scenario
/// (latency-critical CPU task + N regulated aggressors) and writes one
/// CSV row per point: knob value, critical mean/p99 iteration time,
/// critical read p99 and aggregate aggressor bandwidth. The building
/// block for custom plots beyond the canned bench_exp* binaries.
///
/// Points are independent simulations, so the sweep fans out over the
/// exec::ScenarioRunner: `--jobs N` (or FGQOS_JOBS) runs N points
/// concurrently, `--jobs 0` uses every hardware thread. Each point's RNG
/// seeds derive only from `--seed` and the point's position, and rows
/// are merged in submission order, so the CSV and the per-point metrics
/// snapshots are byte-identical whatever the job count (the wall-clock
/// `exec.*` metrics are the one place host timing shows up).
///
/// Examples:
///   fgqos_sweep --knob budget --values 100,200,400,800,1600 --csv b.csv
///   fgqos_sweep --knob window --values 0.2,1,10,100,1000 --scheme hw
///   fgqos_sweep --knob aggressors --values 0,1,2,3,4 --scheme none
///   fgqos_sweep --knob isr --values 1,3,10,50 --scheme sw --jobs 4
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "exec/scenario_runner.hpp"
#include "scenario/session.hpp"
#include "util/config_error.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

using namespace fgqos;

namespace {

/// Signal handler target: request_stop() is one atomic store, so running
/// jobs wind down cooperatively and unclaimed points are skipped; the
/// merged CSV is still written from whatever completed.
exec::ScenarioRunner* g_runner = nullptr;

extern "C" void on_signal(int) {
  if (g_runner != nullptr) {
    g_runner->request_stop();
  }
}

struct Outcome {
  double iter_mean_us = 0;
  double iter_p99_us = 0;
  double read_p99_ns = 0;
  double aggr_gbps = 0;
  // Everything below is folded across points in point order by main(), so
  // the merged files and summaries are identical for any job count.
  std::string blame_rows;       ///< "<point>,scope,..." blame CSV rows
  std::string timeseries_rows;  ///< "<point>,series,..." time-series rows
  std::string serving_rows;     ///< "<point>,tenant,..." serving rows
  /// Reservations refused by certified-envelope admission (jobs never
  /// print; main() warns after the merge).
  std::size_t admission_rejections = 0;
  /// Per-series whole-run histograms.
  std::vector<std::pair<std::string, sim::Histogram>> series_summaries;
  std::optional<telemetry::ProfileSnapshot> profile;  ///< --profile
};

/// What every point of one sweep shares.
struct Sweep {
  const scenario::Session& session;
  std::string knob;
  bool merge_timeseries = false;  ///< render rows for --timeseries-csv
  bool merge_serving = false;     ///< render rows for --serving-csv
};

Outcome run_point(const Sweep& sweep, const scenario::Spec& spec,
                  const std::string& value) {
  const scenario::Artifacts out =
      sweep.session.artifacts().for_point(sweep.knob, value);
  // Per-point provenance: depends only on the scenario and the derived
  // seed, never on job fan-out, so exports stay byte-identical across
  // --jobs.
  std::ostringstream head;
  head << "knob=" << sweep.knob << " value=" << value
       << " scheme=" << scenario::scheme_name(spec.scheme)
       << " aggressors=" << spec.aggressors
       << " budget_mbps=" << spec.budget_bps / 1e6
       << " window_us=" << static_cast<double>(spec.window_ps) / 1e6
       << " isr_us=" << static_cast<double>(spec.memguard.isr_latency_ps) / 1e6
       << " iterations=" << spec.core.max_iterations;
  const telemetry::RunManifest manifest =
      sweep.session.manifest(spec, head.str());

  scenario::Scenario run = scenario::build(spec, out.telemetry);
  soc::Soc& chip = *run.chip;
  chip.run_until_cores_finished(2000 * sim::kPsPerMs);
  if (spec.serving != nullptr) {
    // Cover the whole arrival horizon, then give in-flight requests a
    // bounded drain (sim-time based, so deterministic for any --jobs).
    if (chip.now() < spec.serving->duration_ps) {
      chip.run_until(spec.serving->duration_ps);
    }
    const sim::TimePs drain_deadline = chip.now() + 10 * sim::kPsPerMs;
    while (chip.now() < drain_deadline) {
      bool all_drained = true;
      for (std::size_t i = 0; i < chip.serving_tenant_count(); ++i) {
        all_drained = all_drained && chip.serving_tenant(i).drained();
      }
      if (all_drained) {
        break;
      }
      chip.run_for(100 * sim::kPsPerUs);
    }
  }
  run.finish();
  scenario::write_run_artifacts(run, out, manifest, nullptr);

  Outcome o;
  o.admission_rejections = run.admission_rejections();
  if (out.telemetry.profile) {
    // collect_metrics samples the slab arenas into the profiler before
    // the snapshot is taken.
    chip.collect_metrics();
    o.profile = chip.profiler()->snapshot();
  }
  if (out.telemetry.timeseries) {
    telemetry::TimeSeriesRecorder* ts = chip.timeseries();
    if (sweep.merge_timeseries) {
      std::ostringstream rows;
      ts->write_csv(rows, /*header=*/false, /*row_prefix=*/value + ",");
      o.timeseries_rows = rows.str();
    }
    for (std::size_t i = 0; i < ts->series_count(); ++i) {
      o.series_summaries.emplace_back(ts->series_names()[i], ts->summary(i));
    }
  }
  if (out.telemetry.attribution) {
    std::ostringstream rows;
    chip.attribution()->write_csv(rows, /*header=*/false,
                                  /*row_prefix=*/value + ",");
    o.blame_rows = rows.str();
  }
  if (spec.serving != nullptr && sweep.merge_serving) {
    // Integer counts and integer ps-percentiles; the two rates and the
    // attainment are fixed-point renders of deterministic doubles — the
    // merged CSV must stay byte-identical across --jobs.
    std::ostringstream rows;
    for (std::size_t i = 0; i < chip.serving_tenant_count(); ++i) {
      wl::ServingTenant& t = chip.serving_tenant(i);
      const auto& ss = t.stats();
      rows << value << ',' << t.spec().name << ','
           << wl::arrival_kind_name(t.spec().arrival) << ',' << ss.generated
           << ',' << ss.completed << ',' << ss.dropped << ',' << ss.slo_met
           << ',' << util::format_fixed(t.offered_qps(), 2) << ','
           << util::format_fixed(t.completed_qps(), 2) << ','
           << t.latency().p50() << ',' << t.latency().p99() << ','
           << t.latency().p999() << ','
           << wl::attainment_pct_cell(t, 4) << '\n';
    }
    o.serving_rows = rows.str();
  }
  const auto& h = run.critical->stats().iteration_ps;
  o.iter_mean_us = h.mean() / 1e6;
  o.iter_p99_us = static_cast<double>(h.p99()) / 1e6;
  o.read_p99_ns =
      static_cast<double>(chip.cpu_port().stats().read_latency.p99()) / 1e3;
  o.aggr_gbps = run.aggressor_bps() / 1e9;
  return o;
}

/// Writes one file merged across points: an optional manifest comment,
/// \p header, then every point's \p rows in point order.
void write_merged(const std::string& path, const std::string& what,
                  const telemetry::RunManifest* manifest, const char* header,
                  const std::vector<Outcome>& outcomes,
                  std::string Outcome::*rows) {
  std::ofstream f(path);
  if (!f) {
    throw ConfigError("cannot open " + what + " '" + path + "'");
  }
  if (manifest != nullptr) {
    f << manifest->to_csv_comment();
  }
  f << header;
  for (const Outcome& o : outcomes) {
    f << o.*rows;
  }
  std::printf("%s written to %s\n", what.c_str(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args(argc, argv);
    if (args.has("help")) {
      std::printf(
          "fgqos_sweep --knob budget|window|aggressors|isr --values v1,v2,...\n"
          "  --isr-us I          SW MemGuard ISR latency (default 3)\n"
          "  --iterations N      critical-task iterations (default 20)\n"
          "  --jobs N            points run concurrently (0 = all hardware\n"
          "                      threads; FGQOS_JOBS sets the default)\n"
          "  --job-timeout-s T   wall-clock bound per point\n"
          "  --job-retries N     retries of a timed-out or crashed point\n"
          "  --exec-metrics-json FILE  the runner's own metrics\n"
          "  --serving-csv FILE  per-tenant serving results\n"
          "%s"
          "defaults: --scheme hw, --aggressors 3.\n"
          "Every point runs the same scenario with the knob applied and its\n"
          "own seed (from --seed and the point's index); outcomes merge in\n"
          "point order, so every file is byte-identical for any --jobs.\n"
          "--csv, --blame-csv, --timeseries-csv, --serving-csv and the\n"
          "profile files are ONE merged file with a leading `point` column\n"
          "(the profile sums the points); the other files are written per\n"
          "point with a suffix: out.json -> out.budget400.json. A merged\n"
          "percentile summary per time series is printed after the sweep.\n"
          "Failed points are reported and left out; SIGINT/SIGTERM skip the\n"
          "remaining points and flush partial results.\n",
          scenario::session_flag_help());
      return 0;
    }
    // fgqos_sweep's own flags first; the Session then parses the shared
    // ones and rejects anything left over.
    const std::string knob = args.get("knob", "budget");
    const std::string values_arg = args.get("values", "100,200,400,800,1600");
    const std::string exec_metrics_json = args.get("exec-metrics-json", "");
    const std::string serving_csv = args.get("serving-csv", "");
    exec::ExecConfig ec;
    ec.jobs = static_cast<std::size_t>(args.get_int(
        "jobs", static_cast<std::int64_t>(exec::jobs_from_env(1))));
    ec.job_timeout_s = args.get_double("job-timeout-s", 0);
    ec.max_retries =
        static_cast<std::uint32_t>(args.get_int("job-retries", 0));
    scenario::Spec defaults;
    defaults.scheme = scenario::Scheme::kHw;
    defaults.aggressors = 3;
    defaults.core.max_iterations =
        static_cast<std::uint64_t>(args.get_int("iterations", 20));
    defaults.memguard.isr_latency_ps =
        static_cast<sim::TimePs>(args.get_double("isr-us", 3) * 1e6);
    const scenario::Session session("fgqos_sweep", args, std::move(defaults));
    const scenario::Artifacts& out = session.artifacts();
    if (!serving_csv.empty() && session.spec().serving == nullptr) {
      throw ConfigError("--serving-csv requires --serving-spec");
    }
    ec.base_seed = session.spec().seed;

    // Materialise every point first; jobs read only their own point.
    const std::vector<std::string> values = util::split(values_arg, ',');
    std::vector<scenario::Spec> points;
    points.reserve(values.size());
    for (const std::string& v : values) {
      scenario::Spec p = session.spec();
      scenario::apply_knob(p, knob, std::stod(v));
      points.push_back(std::move(p));
    }
    const Sweep sweep{session, knob, !out.timeseries_csv.empty(),
                      !serving_csv.empty()};

    exec::ScenarioRunner runner(ec);
    g_runner = &runner;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::vector<Outcome> outcomes(points.size());
    std::vector<exec::ScenarioRunner::JobFn> batch;
    batch.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      batch.push_back([&](const exec::JobContext& ctx) {
        scenario::Spec p = points[ctx.index];
        p.seed = ctx.seed;
        outcomes[ctx.index] = run_point(sweep, p, values[ctx.index]);
        std::printf("%s=%s done\n", knob.c_str(),
                    values[ctx.index].c_str());
      });
    }
    const exec::RunReport report = runner.run_report(std::move(batch));
    g_runner = nullptr;

    util::Table table({knob, "iter_mean_us", "iter_p99_us", "read_p99_ns",
                       "aggressor_GB/s"});
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (report.jobs[i].status != exec::JobStatus::kOk) {
        continue;  // partial results: only completed points become rows
      }
      const Outcome& o = outcomes[i];
      table.add_row({values[i], util::format_fixed(o.iter_mean_us, 1),
                     util::format_fixed(o.iter_p99_us, 1),
                     util::format_fixed(o.read_p99_ns, 0),
                     util::format_fixed(o.aggr_gbps, 2)});
    }
    std::printf("\n");
    table.print();
    if (!out.csv.empty()) {
      table.save_csv(out.csv);
      std::printf("\nCSV written to %s\n", out.csv.c_str());
    }
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (report.jobs[i].status == exec::JobStatus::kOk) {
        rejected += outcomes[i].admission_rejections;
      }
    }
    if (rejected > 0) {
      std::printf("\nWARNING: %zu reservation(s) rejected against the "
                  "certified envelope; those ports ran best-effort\n",
                  rejected);
    }

    // Sweep-level manifest of the merged files: the knob and its values
    // ARE the scenario; independent of --jobs, so the merged files stay
    // byte-identical.
    const telemetry::RunManifest manifest = session.manifest(
        session.spec(), "knob=" + knob + " values=" + values_arg +
                            " scheme=" +
                            scenario::scheme_name(session.spec().scheme));
    if (!out.blame_csv.empty()) {
      write_merged(out.blame_csv, "blame CSV", nullptr,
                   "point,scope,window_start_ps,window_end_ps,victim,"
                   "aggressor,cause,stall_ps,bytes\n",
                   outcomes, &Outcome::blame_rows);
    }
    if (!out.timeseries_csv.empty()) {
      write_merged(out.timeseries_csv, "time-series CSV", &manifest,
                   "point,series,window,start_ps,end_ps,value\n", outcomes,
                   &Outcome::timeseries_rows);
    }
    if (!serving_csv.empty()) {
      write_merged(serving_csv, "serving CSV", &manifest,
                   "point,tenant,arrival,generated,completed,dropped,slo_met,"
                   "offered_qps,completed_qps,p50_ps,p99_ps,p999_ps,"
                   "attainment_pct\n",
                   outcomes, &Outcome::serving_rows);
    }
    if (out.telemetry.timeseries) {
      // Sweep-level percentile summary: per-point whole-run histograms
      // folded with Histogram::merge in submission order — associative
      // bucket adds, so the table is identical for any job count.
      std::vector<std::string> order;
      std::map<std::string, sim::Histogram> merged;
      for (const Outcome& o : outcomes) {
        for (const auto& [name, h] : o.series_summaries) {
          auto [it, inserted] = merged.try_emplace(name);
          if (inserted) {
            order.push_back(name);
          }
          it->second.merge(h);
        }
      }
      util::Table summary({"series", "windows", "p50", "p99", "p999", "max"});
      for (const std::string& name : order) {
        const sim::Histogram& h = merged[name];
        summary.add_row({name, std::to_string(h.count()),
                         std::to_string(h.p50()), std::to_string(h.p99()),
                         std::to_string(h.p999()), std::to_string(h.max())});
      }
      std::printf("\nmerged time-series summary (all points):\n");
      summary.print();
    }
    if (out.telemetry.profile) {
      // One sweep-level profile: per-point snapshots folded in submission
      // order (merge is commutative, so any fold order would agree — the
      // fixed order keeps the bytes identical for any job count).
      telemetry::ProfileSnapshot merged;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (report.jobs[i].status == exec::JobStatus::kOk &&
            outcomes[i].profile) {
          merged.merge(*outcomes[i].profile);
        }
      }
      std::printf("\nhost profile: %llu events across %zu point(s), "
                  "coverage %.1f%%\n",
                  static_cast<unsigned long long>(merged.events_dispatched),
                  outcomes.size(), merged.coverage() * 100.0);
      if (!out.profile_json.empty()) {
        merged.save_json(out.profile_json, &manifest);
        std::printf("profile JSON written to %s\n", out.profile_json.c_str());
      }
      if (!out.profile_folded.empty()) {
        merged.save_folded(out.profile_folded);
        std::printf("folded stacks written to %s\n",
                    out.profile_folded.c_str());
      }
    }
    if (runner.worker_count() > 1 || !report.all_ok()) {
      std::printf("\n%s\n", runner.summary().c_str());
    }
    if (!exec_metrics_json.empty()) {
      runner.metrics().save_json(exec_metrics_json, 0);
      std::printf("exec metrics written to %s\n", exec_metrics_json.c_str());
    }
    if (!report.all_ok()) {
      std::printf("%s\n", report.describe().c_str());
      for (const std::size_t i : report.failed_indices()) {
        std::fprintf(stderr, "point %s=%s %s after %u attempt(s): %s\n",
                     knob.c_str(), values[i].c_str(),
                     exec::job_status_name(report.jobs[i].status),
                     report.jobs[i].attempts,
                     report.jobs[i].error.c_str());
      }
      return runner.stop_requested() ? 130 : 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

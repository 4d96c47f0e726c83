#include "scenario/session.hpp"

#include <sstream>

#include "dram/address_mapper.hpp"
#include "util/config_error.hpp"

namespace fgqos::scenario {

namespace {

/// "out.json" + budget=400 -> "out.budget400.json".
std::string point_path(const std::string& path, const std::string& tag) {
  if (path.empty()) {
    return path;
  }
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

sim::TimePs us_to_ps(double us) {
  if (!(us >= 0)) {  // also rejects NaN; a negative cast is undefined
    throw ConfigError("durations must not be negative");
  }
  return static_cast<sim::TimePs>(us * 1e6);
}

void note(std::FILE* log, const char* what, const std::string& path) {
  if (log != nullptr) {
    std::fprintf(log, "%s written to %s\n", what, path.c_str());
  }
}

}  // namespace

Artifacts Artifacts::for_point(const std::string& knob,
                               const std::string& value) const {
  const std::string tag = "." + knob + value;
  Artifacts p = *this;
  p.telemetry.trace = point_path(telemetry.trace, tag);
  p.metrics_json = point_path(metrics_json, tag);
  p.metrics_csv = point_path(metrics_csv, tag);
  p.blame_json = point_path(blame_json, tag);
  p.timeseries_json = point_path(timeseries_json, tag);
  p.journal = point_path(journal, tag);
  p.csv.clear();
  p.blame_csv.clear();
  p.timeseries_csv.clear();
  p.profile_json.clear();
  p.profile_folded.clear();
  return p;
}

Session::Session(std::string tool, const util::ArgParser& args, Spec defaults)
    : tool_(std::move(tool)), spec_(std::move(defaults)) {
  Spec& s = spec_;
  s.aggressors = static_cast<std::size_t>(
      args.get_int("aggressors", static_cast<std::int64_t>(s.aggressors)));
  s.scheme = scheme_from_name(args.get("scheme", scheme_name(s.scheme)));
  if (args.has("budget-mbps")) {
    s.budget_bps = args.get_double("budget-mbps", 0) * 1e6;
  }
  if (args.has("window-us")) {
    s.window_ps = us_to_ps(args.get_double("window-us", 0));
  }
  s.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(s.seed)));
  s.mapping = args.get("mapping", s.mapping);
  if (!s.mapping.empty()) {
    // Fail fast on a bad name, before anything runs.
    static_cast<void>(dram::mapping_policy_from_name(s.mapping));
  }
  if (args.has("bank-telemetry")) {
    s.platform.bank_telemetry = true;
  }
  if (args.has("aggressor-footprint-mb")) {
    const double mb = args.get_double("aggressor-footprint-mb", 0);
    if (mb <= 0) {
      throw ConfigError("--aggressor-footprint-mb must be positive");
    }
    s.aggressor.footprint_bytes = static_cast<std::uint64_t>(mb * (1 << 20));
  }
  if (const std::string path = args.get("fault-spec"); !path.empty()) {
    faults_ = fault::FaultPlan::from_file(path);
    s.faults = &*faults_;
  }
  if (const std::string path = args.get("serving-spec"); !path.empty()) {
    serving_ = wl::ServingSpec::from_file(path);
    s.serving = &*serving_;
  }
  if (const std::string path = args.get("bank-budget-spec"); !path.empty()) {
    bank_budgets_ = qos::BankBudgetSpec::load(path);
    s.bank_budgets = &*bank_budgets_;
  }
  if (const std::string path = args.get("envelope-spec"); !path.empty()) {
    envelope_ = qos::CertifiedEnvelope::from_file(path);
    s.envelope = &*envelope_;
  }

  Artifacts& a = artifacts_;
  Telemetry& t = a.telemetry;
  a.csv = args.get("csv");
  t.trace = args.get("trace");
  t.trace_filter = args.get("trace-filter");
  a.metrics_json = args.get("metrics-json");
  a.metrics_csv = args.get("metrics-csv");
  t.lifecycle_metrics = !a.metrics_json.empty() || !a.metrics_csv.empty();
  a.blame_csv = args.get("blame-csv");
  a.blame_json = args.get("blame-json");
  t.attribution = !a.blame_csv.empty() || !a.blame_json.empty();
  t.attribution_window_ps = us_to_ps(args.get_double("blame-window-us", 100));
  a.timeseries_csv = args.get("timeseries-csv");
  a.timeseries_json = args.get("timeseries-json");
  t.timeseries = !a.timeseries_csv.empty() || !a.timeseries_json.empty();
  t.timeseries_config.filter = args.get("timeseries-filter");
  t.timeseries_config.window_ps =
      us_to_ps(args.get_double("timeseries-window-us", 100));
  a.journal = args.get("journal");
  t.journal = !a.journal.empty();
  a.profile_json = args.get("profile-json");
  a.profile_folded = args.get("profile-folded");
  t.profile = args.has("profile") || !a.profile_json.empty() ||
              !a.profile_folded.empty();

  if (t.trace.empty() && !t.trace_filter.empty()) {
    throw ConfigError("--trace-filter requires --trace");
  }
  if (!t.timeseries && (!t.timeseries_config.filter.empty() ||
                        args.has("timeseries-window-us"))) {
    throw ConfigError(
        "--timeseries-filter/--timeseries-window-us require "
        "--timeseries-csv or --timeseries-json");
  }
  validate(s);
  for (const auto& k : args.unused_keys()) {
    throw ConfigError("unknown option --" + k + " (see --help)");
  }
}

telemetry::RunManifest Session::manifest(const Spec& spec,
                                         const std::string& head) const {
  // Semantic inputs only, so two runs of the same scenario carry
  // byte-identical manifests. Optional tokens appear only when they
  // differ from the default, keeping older manifests unchanged.
  telemetry::RunManifest m;
  m.tool = tool_;
  m.seed = spec.seed;
  m.build = telemetry::RunManifest::build_flavor();
  if (artifacts_.telemetry.profile) {
    m.profile_tag_table_version = telemetry::kProfilerTagTableVersion;
  }
  constexpr double kMiB = 1 << 20;
  std::ostringstream sc;
  sc << head;
  if (!spec.mapping.empty()) {
    sc << " mapping=" << spec.mapping;
  }
  if (spec.platform.bank_telemetry) {
    sc << " bank_telemetry=1";
  }
  if (spec.aggressor.footprint_bytes != wl::TrafficGenConfig{}.footprint_bytes) {
    sc << " aggressor_footprint_mb="
       << static_cast<double>(spec.aggressor.footprint_bytes) / kMiB;
  }
  if (spec.aggressor_stride_bytes != Spec{}.aggressor_stride_bytes) {
    sc << " aggressor_stride_mb="
       << static_cast<double>(spec.aggressor_stride_bytes) / kMiB;
  }
  if (spec.thrash_aggressors > 0) {
    sc << " thrash_aggressors=" << spec.thrash_aggressors;
  }
  if (spec.envelope != nullptr) {
    sc << " envelope=" << telemetry::fnv1a_hex(spec.envelope->to_json());
  }
  if (spec.bank_budgets != nullptr) {
    sc << " bank_budgets=" << telemetry::fnv1a_hex(spec.bank_budgets->to_json());
  }
  if (spec.serving != nullptr) {
    sc << " serving=" << telemetry::fnv1a_hex(spec.serving->to_json());
  }
  m.scenario = sc.str();
  // An empty plan is a perfect no-op, so it does not mark the run either.
  if (spec.faults != nullptr && !spec.faults->empty()) {
    m.fault_spec_hash = telemetry::fnv1a_hex(spec.faults->to_json());
  }
  return m;
}

void write_run_artifacts(Scenario& run, const Artifacts& out,
                         const telemetry::RunManifest& manifest,
                         std::FILE* log) {
  soc::Soc& chip = *run.chip;
  if (!out.metrics_json.empty() || !out.metrics_csv.empty()) {
    telemetry::MetricsRegistry& reg = chip.collect_metrics();
    // Host wall-clock and profiler cycles would make otherwise identical
    // runs differ; the profile exports carry the latter.
    reg.erase_prefix("sim.wall");
    reg.erase_prefix("profile.");
    if (!out.metrics_json.empty()) {
      reg.save_json(out.metrics_json, chip.now(), &manifest);
      note(log, "metrics JSON", out.metrics_json);
    }
    if (!out.metrics_csv.empty()) {
      reg.save_csv(out.metrics_csv, &manifest);
      note(log, "metrics CSV", out.metrics_csv);
    }
  }
  if (!out.timeseries_csv.empty()) {
    chip.timeseries()->save_csv(out.timeseries_csv, &manifest);
    note(log, "time-series CSV", out.timeseries_csv);
  }
  if (!out.timeseries_json.empty()) {
    chip.timeseries()->save_json(out.timeseries_json, &manifest);
    note(log, "time-series JSON", out.timeseries_json);
  }
  if (!out.journal.empty()) {
    chip.journal()->save_jsonl(out.journal, &manifest);
    note(log, "decision journal", out.journal);
  }
  if (!out.profile_json.empty() || !out.profile_folded.empty()) {
    // collect_metrics samples the slab arenas into the profiler first.
    chip.collect_metrics();
    const telemetry::ProfileSnapshot prof = chip.profiler()->snapshot();
    if (!out.profile_json.empty()) {
      prof.save_json(out.profile_json, &manifest);
      note(log, "profile JSON", out.profile_json);
    }
    if (!out.profile_folded.empty()) {
      prof.save_folded(out.profile_folded);
      note(log, "folded stacks", out.profile_folded);
    }
  }
  if (!out.blame_csv.empty()) {
    chip.attribution()->save_csv(out.blame_csv);
    note(log, "blame CSV", out.blame_csv);
  }
  if (!out.blame_json.empty()) {
    chip.attribution()->save_json(out.blame_json);
    note(log, "blame JSON", out.blame_json);
  }
}

const char* session_flag_help() {
  return "scenario:\n"
         "  --aggressors N      DMA aggressors, at most one per HP port\n"
         "  --scheme S          none | hw | sw\n"
         "  --budget-mbps B     per-aggressor budget (default 400)\n"
         "  --window-us W       HW regulation window (default 1)\n"
         "  --seed N            base RNG seed (default 100)\n"
         "  --mapping M         DRAM mapping: row_bank_col | bank_interleaved |\n"
         "                      bank_partitioned (default: the platform's)\n"
         "  --bank-telemetry    per-bank metrics/series (dram.bank.*) and the\n"
         "                      blame-matrix bank dimension\n"
         "  --aggressor-footprint-mb MB  aggressor working set (default 16)\n"
         "  --bank-budget-spec FILE  JSON per-bank budget plan: per-bank\n"
         "                      token-bucket regulators on the listed HP ports\n"
         "  --serving-spec FILE JSON request-serving scenario: key-value\n"
         "                      tenants on HP ports (docs/SERVING.md)\n"
         "  --fault-spec FILE   JSON fault plan to inject (docs/FAULTS.md)\n"
         "  --envelope-spec FILE  certified worst-case envelope\n"
         "                      (fgqos_certify): hw budgets are admitted\n"
         "                      through a QosManager that checks the certified\n"
         "                      bounds; rejected ports run best-effort\n"
         "                      (requires --scheme hw; docs/CERTIFICATION.md)\n"
         "artifacts:\n"
         "  --csv FILE          result table as CSV\n"
         "  --trace FILE        Chrome trace_event JSON timeline\n"
         "  --trace-filter C    categories: port,dram,qos,workload,kernel\n"
         "  --metrics-json FILE metrics snapshot (per-hop histograms) as JSON\n"
         "  --metrics-csv FILE  metrics snapshot as CSV\n"
         "  --blame-csv FILE    interference-attribution blame matrices, CSV\n"
         "  --blame-json FILE   blame matrices as JSON\n"
         "  --blame-window-us W blame accounting window (default 100)\n"
         "  --timeseries-csv FILE   windowed time series, long-format CSV\n"
         "  --timeseries-json FILE  windowed time series (+summaries), JSON\n"
         "  --timeseries-filter G   comma-separated series globs (qos.*)\n"
         "  --timeseries-window-us W  sampling window (default 100)\n"
         "  --journal FILE      QoS decision journal as JSON-lines\n"
         "  --profile           host-side hot-path profiler: per-component\n"
         "                      CPU attribution + kernel micro-telemetry\n"
         "  --profile-json FILE profile snapshot as JSON (implies --profile)\n"
         "  --profile-folded FILE  folded stacks for flamegraph tooling\n"
         "                      (implies --profile)\n";
}

void apply_knob(Spec& spec, const std::string& knob, double value) {
  if (!(value >= 0)) {
    throw ConfigError("--values must not be negative");
  }
  if (knob == "budget") {
    spec.budget_bps = value * 1e6;
  } else if (knob == "window") {
    spec.window_ps = us_to_ps(value);
  } else if (knob == "aggressors") {
    spec.aggressors = static_cast<std::size_t>(value);
  } else if (knob == "isr") {
    spec.memguard.isr_latency_ps = us_to_ps(value);
  } else {
    throw ConfigError("unknown knob '" + knob + "'");
  }
  validate(spec);
}

}  // namespace fgqos::scenario

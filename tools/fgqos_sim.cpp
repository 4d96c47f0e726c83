/// \file fgqos_sim.cpp
/// \brief Command-line scenario driver: build a platform, load it, apply a
///        regulation scheme and print the full statistics dump.
///
/// Examples:
///   fgqos_sim --preset zcu102 --aggressors 4 --pattern seq_rd
///             --scheme hw --budget-mbps 400 --window-us 1 --duration-ms 20
///   fgqos_sim --preset ultra96 --critical stream --scheme sw
///             --budget-mbps 200 --csv out.csv   # 2 aggressors, one per port
///   fgqos_sim --list-presets
///
/// The scenario and artifact flags shared with fgqos_sweep are parsed by
/// scenario::Session and the platform is assembled by scenario::build().
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <sstream>

#include "scenario/session.hpp"
#include "soc/presets.hpp"
#include "util/config_error.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

using namespace fgqos;

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void on_signal(int) { g_stop = 1; }

void usage() {
  std::printf(
      "fgqos_sim — scenario driver for the fgqos platform simulator\n\n"
      "platform and workload:\n"
      "  --preset NAME       platform preset (default zcu102)\n"
      "  --list-presets      print preset names and exit\n"
      "  --critical KIND     latency | stream | none (default latency)\n"
      "  --pattern P         seq_rd seq_wr copy rnd_rd rnd_wr strided\n"
      "  --aggressor-stride-mb MB\n"
      "                      spacing between aggressor base addresses\n"
      "                      (default 64; one bank slice apart under\n"
      "                      bank_partitioned needs capacity/banks MB)\n"
      "  --thrash-aggressors K\n"
      "                      make the first K aggressors single-line\n"
      "                      row-miss thrashers (random 64 B reads, deep\n"
      "                      outstanding window) regardless of --pattern\n"
      "  --duration-ms D     simulated time (default 20)\n"
      "  --sla-min-mbps B    SLA watchdog: min CPU-port bandwidth per window\n"
      "  --sla-p99-us L      SLA watchdog: max CPU read p99 per window\n"
      "  --sla-stall-frac F  SLA watchdog: max interference fraction [0,1];\n"
      "                      with --envelope-spec it also cross-checks the\n"
      "                      observed p99 against the envelope\n"
      "  --watchdog-fallback-mbps B\n"
      "                      degraded-mode watchdog on each regulated port:\n"
      "                      fall back to B MB/s when the monitor feed goes\n"
      "                      stale or saturates (requires --scheme hw)\n"
      "%s"
      "defaults: --scheme none, --aggressors = the preset's HP port count.\n"
      "--csv writes the stats table.\n"
      "\nSIGINT/SIGTERM stop the simulation early; all requested outputs\n"
      "are still written from the partial run.\n",
      scenario::session_flag_help());
}

wl::Pattern pattern_from(const std::string& s) {
  if (s == "seq_rd") return wl::Pattern::kSeqRead;
  if (s == "seq_wr") return wl::Pattern::kSeqWrite;
  if (s == "copy") return wl::Pattern::kCopy;
  if (s == "rnd_rd") return wl::Pattern::kRandomRead;
  if (s == "rnd_wr") return wl::Pattern::kRandomWrite;
  if (s == "strided") return wl::Pattern::kStrided;
  throw ConfigError("unknown pattern '" + s + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser args(argc, argv);
    if (args.has("help")) {
      usage();
      return 0;
    }
    if (args.has("list-presets")) {
      for (const auto& n : soc::preset_names()) {
        std::printf("%s\n", n.c_str());
      }
      return 0;
    }

    // fgqos_sim's own flags first; the Session then parses the shared
    // ones and rejects anything left over.
    const std::string preset = args.get("preset", "zcu102");
    const std::string critical = args.get("critical", "latency");
    const std::string pattern = args.get("pattern", "seq_rd");
    const double duration_ms = args.get_double("duration-ms", 20);
    scenario::Spec defaults = scenario::for_preset(preset);
    defaults.critical = scenario::critical_from_name(critical);
    defaults.aggressor.pattern = pattern_from(pattern);
    if (args.has("aggressor-stride-mb")) {
      const double mb = args.get_double("aggressor-stride-mb", 0);
      if (mb <= 0) {
        throw ConfigError("--aggressor-stride-mb must be positive");
      }
      defaults.aggressor_stride_bytes =
          static_cast<std::uint64_t>(mb * (1 << 20));
    }
    defaults.thrash_aggressors =
        static_cast<std::size_t>(args.get_int("thrash-aggressors", 0));
    defaults.sla.min_bandwidth_mbps = args.get_double("sla-min-mbps", 0);
    defaults.sla.max_p99_latency_ps =
        static_cast<sim::TimePs>(args.get_double("sla-p99-us", 0) * 1e6);
    defaults.sla.max_interference_fraction =
        args.get_double("sla-stall-frac", 0);
    defaults.watchdog_fallback_mbps =
        args.get_double("watchdog-fallback-mbps", 0);
    const scenario::Session session("fgqos_sim", args, std::move(defaults));
    const scenario::Spec& spec = session.spec();
    const scenario::Artifacts& out = session.artifacts();

    std::ostringstream head;
    head << "preset=" << preset << " critical=" << critical
         << " aggressors=" << spec.aggressors << " pattern=" << pattern
         << " scheme=" << scenario::scheme_name(spec.scheme)
         << " budget_mbps=" << spec.budget_bps / 1e6
         << " window_us=" << static_cast<double>(spec.window_ps) / 1e6
         << " duration_ms=" << duration_ms;
    const telemetry::RunManifest manifest = session.manifest(spec, head.str());

    scenario::Scenario run = scenario::build(spec, out.telemetry);
    soc::Soc& chip = *run.chip;
    for (const scenario::Admission& a : run.admissions) {
      std::printf("admission: %s reserve %.0f MB/s -> %s\n", a.port.c_str(),
                  spec.budget_bps / 1e6, a.admitted ? "accepted" : "REJECTED");
    }
    if (run.admission_rejections() > 0) {
      std::printf("admission: %zu reservation(s) rejected against the "
                  "certified envelope; rejected ports run best-effort\n",
                  run.admission_rejections());
    }
    if (spec.bank_budgets != nullptr) {
      std::printf("per-bank regulation: %zu port regulator(s) armed\n",
                  spec.bank_budgets->ports.size());
    }

    // Run in slices so SIGINT/SIGTERM can stop the simulation early while
    // still flushing every requested output from the partial run.
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    const auto duration_ps = static_cast<sim::TimePs>(duration_ms * 1e9);
    const sim::TimePs slice =
        std::max<sim::TimePs>(sim::kPsPerMs, duration_ps / 100);
    while (chip.now() < duration_ps && g_stop == 0) {
      chip.run_for(std::min<sim::TimePs>(slice, duration_ps - chip.now()));
    }
    if (g_stop != 0) {
      std::printf("interrupted at %s — writing partial results\n",
                  util::format_time_ps(chip.now()).c_str());
    }
    run.finish();

    sim::StatsRegistry stats;
    chip.collect_stats(stats);
    util::Table table({"stat", "value"});
    for (const auto& [name, value] : stats.all()) {
      table.add_row({name, value});
    }
    std::printf("scenario: %s\n", manifest.scenario.c_str());
    std::printf("simulated %s, DRAM bandwidth %s, bus utilisation %.1f%%\n\n",
                util::format_time_ps(chip.now()).c_str(),
                util::format_bandwidth(chip.dram_bandwidth_bps()).c_str(),
                stats.get("dram.bus_utilization") * 100);
    table.print();
    std::printf("\n");
    if (!out.csv.empty()) {
      table.save_csv(out.csv);
      std::printf("CSV written to %s\n", out.csv.c_str());
    }
    scenario::write_run_artifacts(run, out, manifest, stdout);
    if (out.telemetry.profile) {
      const telemetry::ProfileSnapshot prof = chip.profiler()->snapshot();
      std::printf("\nhost profile: %llu events, %llu ticks, coverage %.1f%%\n",
                  static_cast<unsigned long long>(prof.events_dispatched),
                  static_cast<unsigned long long>(prof.ticks_dispatched),
                  prof.coverage() * 100.0);
      std::vector<telemetry::ProfileTagEntry> top = prof.tags;
      std::sort(top.begin(), top.end(),
                [](const auto& a, const auto& b) { return a.cycles > b.cycles; });
      const std::size_t n = std::min<std::size_t>(top.size(), 8);
      for (std::size_t i = 0; i < n; ++i) {
        const double share =
            prof.total_cycles == 0
                ? 0.0
                : static_cast<double>(top[i].cycles) /
                      static_cast<double>(prof.total_cycles);
        std::printf("  %-28s %6.2f%%  %12llu cycles  %10llu hits\n",
                    top[i].name.c_str(), share * 100.0,
                    static_cast<unsigned long long>(top[i].cycles),
                    static_cast<unsigned long long>(top[i].count));
      }
    }
    if (fault::FaultInjector* inj = chip.faults()) {
      std::printf("\nfaults injected: %llu total\n",
                  static_cast<unsigned long long>(inj->injected_total()));
      for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
        const auto kind = static_cast<fault::FaultKind>(k);
        if (inj->injected(kind) > 0) {
          std::printf("  %-18s %llu\n", fault::fault_kind_name(kind),
                      static_cast<unsigned long long>(inj->injected(kind)));
        }
      }
    }
    if (chip.serving_tenant_count() > 0) {
      std::printf("\nserving tenants:\n");
      std::printf("  %-12s %-8s %12s %12s %9s %9s %9s %9s %10s\n", "tenant",
                  "arrival", "offered_qps", "completed_qps", "dropped",
                  "p50_us", "p99_us", "p999_us", "attain_pct");
      for (std::size_t i = 0; i < chip.serving_tenant_count(); ++i) {
        wl::ServingTenant& t = chip.serving_tenant(i);
        std::printf("  %-12s %-8s %12.0f %12.0f %9llu %9.2f %9.2f %9.2f "
                    "%10s\n",
                    t.spec().name.c_str(),
                    wl::arrival_kind_name(t.spec().arrival), t.offered_qps(),
                    t.completed_qps(),
                    static_cast<unsigned long long>(t.stats().dropped),
                    static_cast<double>(t.latency().p50()) / 1e6,
                    static_cast<double>(t.latency().p99()) / 1e6,
                    static_cast<double>(t.latency().p999()) / 1e6,
                    wl::attainment_pct_cell(t, 2).c_str());
      }
    }
    if (run.watchdog != nullptr) {
      std::ostringstream report;
      run.watchdog->write_report(report);
      std::printf("\n%s", report.str().c_str());
    }
    if (run.manager != nullptr && run.manager->envelope_fallback()) {
      std::printf("\nWARNING: certified envelope violated during the run — "
                  "manager degraded to conservative fallback budgets\n");
    }
    if (!out.telemetry.trace.empty()) {
      std::printf("\ntrace written to %s (%zu events)\n",
                  out.telemetry.trace.c_str(),
                  chip.telemetry().trace()->events_written());
    }
    return 0;
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

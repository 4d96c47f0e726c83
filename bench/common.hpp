/// \file common.hpp
/// \brief Shared helpers for the experiment benches.
///
/// Every bench binary reconstructs one table or figure of the paper's
/// evaluation (see DESIGN.md section 4). The recurring scenario — one
/// latency-critical CPU task plus N accelerator aggressors, under one of
/// the regulation schemes being compared — is a scenario::Spec built by
/// scenario::build(), the same builder the tools and the search use.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exec/scenario_runner.hpp"
#include "scenario/build.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

namespace fgqos::bench {

using scenario::Scenario;
using scenario::Scheme;
using scenario::Spec;

/// Opt-in bench telemetry from the environment. FGQOS_TRACE=<path> makes
/// every scenario built by build_scenario() write a Chrome trace there
/// (FGQOS_TRACE_FILTER selects categories); FGQOS_BLAME=<path> turns
/// interference attribution on (window FGQOS_BLAME_WINDOW_US, default 100)
/// and run_critical() writes the blame matrices there as CSV. A .1, .2,
/// ... suffix keeps repeated scenarios apart.
inline const char* env_path(const char* name) {
  const char* path = std::getenv(name);
  return (path != nullptr && *path != '\0') ? path : nullptr;
}

/// \p path on the first call for \p seq, then "<path>.1", "<path>.2", ...
inline std::string numbered(const char* path, std::atomic<int>& seq) {
  const int n = seq.fetch_add(1);
  std::string out = path;
  if (n > 0) {
    out += '.';
    out += std::to_string(n);
  }
  return out;
}

inline scenario::Telemetry env_telemetry() {
  scenario::Telemetry tel;
  if (const char* path = env_path("FGQOS_TRACE")) {
    static std::atomic<int> trace_seq{0};
    tel.trace = numbered(path, trace_seq);
    const char* filter = std::getenv("FGQOS_TRACE_FILTER");
    tel.trace_filter = filter != nullptr ? filter : "";
  }
  if (env_path("FGQOS_BLAME") != nullptr) {
    const char* w = std::getenv("FGQOS_BLAME_WINDOW_US");
    tel.attribution = true;
    tel.attribution_window_ps =
        static_cast<sim::TimePs>((w != nullptr ? std::atof(w) : 100) * 1e6);
  }
  return tel;
}

inline void maybe_dump_env_blame(soc::Soc& chip) {
  const char* path = env_path("FGQOS_BLAME");
  if (path == nullptr || chip.attribution() == nullptr) {
    return;
  }
  static std::atomic<int> blame_seq{0};
  chip.attribution()->finish(chip.now());
  chip.attribution()->save_csv(numbered(path, blame_seq));
}

/// Shared `--jobs N` handling for the bench binaries: the flag (0 = one
/// worker per hardware thread) overrides the FGQOS_JOBS environment
/// variable; the default is serial. Scenario points submitted through the
/// returned runner merge in submission order, so every bench's table and
/// CSV are byte-identical whatever the job count.
inline exec::ExecConfig bench_exec_config(int argc, char** argv) {
  exec::ExecConfig cfg;
  cfg.jobs = static_cast<std::size_t>(util::ArgParser(argc, argv).get_int(
      "jobs", static_cast<std::int64_t>(exec::jobs_from_env(1))));
  return cfg;
}

/// Prints the runner's wall-clock summary when it actually ran parallel.
inline void print_exec_summary(const exec::ScenarioRunner& runner) {
  if (runner.worker_count() > 1) {
    std::printf("\n%s\n", runner.summary().c_str());
  }
}

/// Builds \p spec with the opt-in environment telemetry.
inline Scenario build_scenario(const Spec& spec) {
  return scenario::build(spec, env_telemetry());
}

/// Runs the scenario until the critical core halts (or the deadline).
/// Returns the critical iteration mean in ps (0 when no critical core).
inline double run_critical(Scenario& s, sim::TimePs deadline) {
  if (s.critical == nullptr) {
    s.chip->run_for(deadline);
    maybe_dump_env_blame(*s.chip);
    return 0.0;
  }
  const bool ok = s.chip->run_until_cores_finished(deadline);
  if (!ok) {
    std::fprintf(stderr,
                 "WARN: critical task missed the simulation deadline\n");
  }
  maybe_dump_env_blame(*s.chip);
  return s.critical->stats().iteration_ps.mean();
}

}  // namespace fgqos::bench

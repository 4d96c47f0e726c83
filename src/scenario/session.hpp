/// \file session.hpp
/// \brief The command-line run session shared by fgqos_sim and fgqos_sweep.
///
/// A Session parses the scenario and artifact flags both tools share,
/// starting from the tool's default Spec, loads the optional input files,
/// runs the shared validations and rejects unknown options. Each run then
/// turns its telemetry on (artifacts().telemetry, passed to build()) and
/// writes its artifacts with write_run_artifacts(), every one stamped with
/// the run's manifest().
#pragma once

#include <cstdio>
#include <optional>
#include <string>

#include "scenario/build.hpp"
#include "telemetry/manifest.hpp"
#include "util/cli.hpp"

namespace fgqos::scenario {

/// Output files of a run ("" = not written) and the telemetry they need.
struct Artifacts {
  Telemetry telemetry;  ///< telemetry.trace is the trace artifact
  std::string csv;      ///< the tool's result table
  std::string metrics_json;
  std::string metrics_csv;
  std::string blame_csv;
  std::string blame_json;
  std::string timeseries_csv;
  std::string timeseries_json;
  std::string journal;
  std::string profile_json;
  std::string profile_folded;

  /// One sweep point's files: the per-run paths get the point's suffix
  /// ("out.json" -> "out.budget400.json") and the files a sweep merges
  /// across points (csv, blame_csv, timeseries_csv, profile_*) are
  /// cleared. The telemetry stays on.
  [[nodiscard]] Artifacts for_point(const std::string& knob,
                                    const std::string& value) const;
};

class Session {
 public:
  /// Parses the shared flags of \p args onto \p defaults. Call after the
  /// tool has read its own flags: unknown options are rejected here.
  /// Throws ConfigError.
  Session(std::string tool, const util::ArgParser& args, Spec defaults);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The parsed scenario; its optional inputs point into this session.
  [[nodiscard]] const Spec& spec() const { return spec_; }
  [[nodiscard]] const Artifacts& artifacts() const { return artifacts_; }

  /// The manifest stamped on every artifact of a run of \p spec:
  /// \p head (the tool's own scenario tokens) followed by the shared
  /// platform and input tokens.
  [[nodiscard]] telemetry::RunManifest manifest(const Spec& spec,
                                                const std::string& head) const;

 private:
  std::string tool_;
  Spec spec_;
  Artifacts artifacts_;
  std::optional<fault::FaultPlan> faults_;
  std::optional<wl::ServingSpec> serving_;
  std::optional<qos::BankBudgetSpec> bank_budgets_;
  std::optional<qos::CertifiedEnvelope> envelope_;
};

/// Writes \p run's artifacts listed in \p out, each stamped with
/// \p manifest (the metrics snapshots without host-time metrics, so equal
/// runs give equal files). Call after Scenario::finish(). \p log (may be
/// nullptr) gets one line per file written.
void write_run_artifacts(Scenario& run, const Artifacts& out,
                         const telemetry::RunManifest& manifest,
                         std::FILE* log);

/// --help text of the flags a Session parses.
[[nodiscard]] const char* session_flag_help();

/// Applies one fgqos_sweep knob value (budget MB/s, window us, aggressors,
/// isr us) to \p spec and validates the result. Throws ConfigError.
void apply_knob(Spec& spec, const std::string& knob, double value);

}  // namespace fgqos::scenario

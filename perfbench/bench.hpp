/// \file bench.hpp
/// \brief Shared pieces of the perfbench binary: the raw record handed to
///        run.py, output checks, public-counter snapshots and profile
///        layer shares.
///
/// Everything here measures the library from outside: it only calls the
/// public API (Soc, its components' stats and counters, collect_metrics,
/// HostProfiler snapshots). No timer or counter lives inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "soc/soc.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// This process is part \p part of \p parts of one run (see run.py).
  std::size_t part = 0;
  std::size_t parts = 1;
};

/// Raw measurements of one benchmark run. run.py turns them into the
/// reported metrics (medians and percentiles of the samples, the values
/// as they are) and counts the checks.
class Record {
 public:
  /// Records one output check under \p name; a failure keeps \p detail.
  void check(bool ok, const std::string& name, const std::string& detail = "");
  /// Appends one observation to the sample list \p name.
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  /// Sets the single value \p name.
  void value(const std::string& name, double v) { values_[name] = v; }
  /// Sets an output of the modelled system, printed in the run summary.
  void output(const std::string& name, double v) { outputs_[name] = v; }
  /// Sets the fingerprint of the simulation \p key. Every process of a
  /// run that simulates \p key must report the same one.
  void fingerprint(const std::string& key, std::uint64_t hash) {
    fingerprints_[key] = hash;
  }

  /// Writes the record as one JSON object on one line.
  void write_json(std::ostream& os) const;

 private:
  struct CheckCount {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, CheckCount> checks_;
  std::vector<std::string> failures_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, double> outputs_;
  std::map<std::string, std::uint64_t> fingerprints_;
};

/// Every scalar of a collect_metrics() snapshot except the host-dependent
/// ones (`sim.wall*`, `profile.*`): the simulated stats of one run.
using Digest = std::map<std::string, double>;
[[nodiscard]] Digest sim_digest(fgqos::soc::Soc& chip);

/// FNV-1a over the names and bit patterns of a digest's stats.
[[nodiscard]] std::uint64_t digest_hash(const Digest& d);

/// The part of a digest no observability feature adds to or perturbs:
/// everything but sim.*, attr.*, telemetry.* and qos.sla.*.
[[nodiscard]] Digest model_digest(const Digest& d);

/// Compares two digests; on mismatch the detail names the first
/// differing stat.
void check_equal(Record& rec, const Digest& a, const Digest& b,
                 const std::string& name);

/// Public-counter totals of one or more runs. Counts repeat exactly for a
/// seed, so later changes can cite them as exact work counts.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t dram_ticks = 0;
  std::uint64_t cas = 0;
  std::uint64_t activations = 0;
  std::uint64_t xbar_ticks = 0;
  std::uint64_t grants = 0;
  std::uint64_t issue_rejected = 0;
  double bus_busy_ps = 0;       ///< bus_utilization x elapsed, summed
  double elapsed_ps = 0;        ///< simulated span, summed
  double throttled_ps = 0;      ///< regulator gate-shut time, summed
  double regulated_port_ps = 0; ///< enabled regulators x elapsed, summed
  std::uint64_t adaptive_steps = 0;

  void add(const Counts& o);
  /// Writes sim.*, dram.*, xbar.*, port.* and qos.throttled_frac values.
  void record(Record& rec) const;
};

/// Reads the counters of \p chip after a run.
[[nodiscard]] Counts counts_of(fgqos::soc::Soc& chip);

/// The output checks every simulation gets: each generator completed some
/// bytes and no more than it issued, port completed <= issued
/// transactions, DRAM payload equals the per-master sum, DRAM CAS equals
/// the per-(master, bank) sum.
void check_platform(Record& rec, fgqos::soc::Soc& chip,
                        const std::vector<const fgqos::wl::TrafficGen*>& gens);

/// For every enabled HP-port regulator: the port's granted bytes stay
/// within the programmed rate x elapsed time plus one window's budget
/// (and the one line the credit scheme may overdraw).
void check_regulated_budget(Record& rec, fgqos::soc::Soc& chip);

/// Writes the per-layer host-time shares of \p snap: sim.kernel_share,
/// dram.tick_share, dram.line_done_share, xbar.tick_share,
/// axi.deliver_share, qos.share, cpu.tick_share, workload.share, and
/// profile.coverage. \p cpu_ticks and \p workload_ticks name the Clocked
/// components ("tick.<name>") that belong to the cpu and workload layers.
void record_shares(Record& rec, const fgqos::telemetry::ProfileSnapshot& snap,
                   const std::vector<std::string>& cpu_ticks,
                   const std::vector<std::string>& workload_ticks);

/// Runs \p chip for \p span_ps in \p step_ps steps, sampling the host ms
/// of each step as "eval_ms" when \p rec is given. Returns the host
/// seconds spent in run_for.
double run_steps(fgqos::soc::Soc& chip, fgqos::sim::TimePs span_ps,
                 fgqos::sim::TimePs step_ps, Record* rec);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Workload entry points.
void run_exp1(const Options& opt, bool regulated, Record& rec);
void run_serving(const Options& opt, Record& rec);
void run_certify(const Options& opt, Record& rec);

}  // namespace perfbench

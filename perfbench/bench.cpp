#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

using namespace fgqos;

namespace {

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";  // run.py refuses a metric that is not a number
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_map(std::ostream& os, const std::map<std::string, double>& m) {
  os << '{';
  const char* sep = "";
  for (const auto& [k, v] : m) {
    os << sep;
    write_string(os, k);
    os << ':';
    write_number(os, v);
    sep = ",";
  }
  os << '}';
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

std::string fmt(double v) {
  std::ostringstream os;
  write_number(os, v);
  return os.str();
}

}  // namespace

void Record::check(bool ok, const std::string& name, const std::string& detail) {
  CheckCount& c = checks_[name];
  ++c.attempted;
  if (!ok) {
    ++c.failed;
    // Keep the report short: the first few failures say what went wrong.
    if (failures_.size() < 20) {
      failures_.push_back(name + (detail.empty() ? "" : ": " + detail));
    }
  }
}

void Record::write_json(std::ostream& os) const {
  os << "{\"checks\":{";
  const char* sep = "";
  for (const auto& [name, c] : checks_) {
    os << sep;
    write_string(os, name);
    os << ":{\"attempted\":" << c.attempted << ",\"failed\":" << c.failed
       << '}';
    sep = ",";
  }
  os << "},\"failures\":[";
  sep = "";
  for (const auto& f : failures_) {
    os << sep;
    write_string(os, f);
    sep = ",";
  }
  os << "],\"samples\":{";
  sep = "";
  for (const auto& [name, xs] : samples_) {
    os << sep;
    write_string(os, name);
    os << ":[";
    const char* sep2 = "";
    for (const double x : xs) {
      os << sep2;
      write_number(os, x);
      sep2 = ",";
    }
    os << ']';
    sep = ",";
  }
  os << "},\"values\":";
  write_map(os, values_);
  os << ",\"outputs\":";
  write_map(os, outputs_);
  // Hex strings: a JSON number would lose the low bits of a 64-bit hash.
  os << ",\"fingerprints\":{";
  sep = "";
  for (const auto& [key, hash] : fingerprints_) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    os << sep;
    write_string(os, key);
    os << ':';
    write_string(os, buf);
    sep = ",";
  }
  os << "}}\n";
}

Digest sim_digest(soc::Soc& chip) {
  Digest d;
  chip.collect_metrics().for_each_scalar([&](const std::string& name, double v) {
    if (!starts_with(name, "sim.wall") && !starts_with(name, "profile.")) {
      d[name] = v;
    }
  });
  return d;
}

std::uint64_t digest_hash(const Digest& d) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 0x100000001b3ull;
    }
  };
  for (const auto& [name, v] : d) {
    mix(name.data(), name.size() + 1);  // the terminator separates names
    mix(&v, sizeof v);
  }
  return h;
}

Digest model_digest(const Digest& d) {
  Digest out;
  for (const auto& [name, v] : d) {
    // Event counts, attribution, the telemetry engines' own gauges and
    // the SLA watchdog's reports come and go with the features.
    if (!starts_with(name, "sim.") && !starts_with(name, "attr.") &&
        !starts_with(name, "telemetry.") && !starts_with(name, "qos.sla.")) {
      out[name] = v;
    }
  }
  return out;
}

void check_equal(Record& rec, const Digest& a, const Digest& b,
                 const std::string& name) {
  if (a == b) {
    rec.check(true, name);
    return;
  }
  std::string detail = "stat sets differ";
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end()) {
      detail = k + " missing";
      break;
    }
    if (it->second != v) {
      detail = k + " " + fmt(v) + " vs " + fmt(it->second);
      break;
    }
  }
  rec.check(false, name, detail);
}

void Counts::add(const Counts& o) {
  events += o.events;
  ticks += o.ticks;
  dram_ticks += o.dram_ticks;
  cas += o.cas;
  activations += o.activations;
  xbar_ticks += o.xbar_ticks;
  grants += o.grants;
  issue_rejected += o.issue_rejected;
  bus_busy_ps += o.bus_busy_ps;
  elapsed_ps += o.elapsed_ps;
  throttled_ps += o.throttled_ps;
  regulated_port_ps += o.regulated_port_ps;
  adaptive_steps += o.adaptive_steps;
}

void Counts::record(Record& rec) const {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  rec.value("sim.events", static_cast<double>(events));
  rec.value("sim.ticks", static_cast<double>(ticks));
  rec.value("dram.ticks", static_cast<double>(dram_ticks));
  rec.value("dram.cas", static_cast<double>(cas));
  rec.value("dram.ticks_per_cas", ratio(static_cast<double>(dram_ticks),
                                        static_cast<double>(cas)));
  rec.value("dram.bus_util", ratio(bus_busy_ps, elapsed_ps));
  rec.value("dram.row_hit_rate",
            cas > activations
                ? ratio(static_cast<double>(cas - activations),
                        static_cast<double>(cas))
                : 0.0);
  rec.value("xbar.ticks", static_cast<double>(xbar_ticks));
  rec.value("xbar.grants", static_cast<double>(grants));
  rec.value("xbar.ticks_per_grant", ratio(static_cast<double>(xbar_ticks),
                                          static_cast<double>(grants)));
  rec.value("port.issue_rejected", static_cast<double>(issue_rejected));
  rec.value("qos.throttled_frac", ratio(throttled_ps, regulated_port_ps));
  rec.value("qos.adaptive_steps", static_cast<double>(adaptive_steps));
}

Counts counts_of(soc::Soc& chip) {
  Counts c;
  sim::Simulator& s = chip.sim();
  c.events = s.events_dispatched();
  c.ticks = s.tick_count();
  const auto elapsed = static_cast<double>(chip.now());
  c.elapsed_ps = elapsed;
  for (std::size_t ch = 0; ch < chip.dram_channel_count(); ++ch) {
    const dram::Controller& d = chip.dram(ch);
    c.dram_ticks += d.ticks_fired();
    c.cas += d.stats().reads_serviced.value() + d.stats().writes_serviced.value();
    c.activations += d.stats().activations.value();
    c.bus_busy_ps += d.bus_utilization(chip.now()) * elapsed;
  }
  c.xbar_ticks = chip.xbar().ticks_fired();
  for (std::size_t m = 0; m < chip.xbar().master_count(); ++m) {
    const axi::MasterPort& p = chip.xbar().master(m);
    c.grants += p.stats().lines_granted.value();
    c.issue_rejected += p.stats().issue_rejected.value();
    if (chip.config().qos_blocks) {
      const qos::Regulator& reg = *chip.qos_block(m).regulator;
      if (reg.enabled()) {
        c.throttled_ps += static_cast<double>(reg.stats().throttled_ps);
        c.regulated_port_ps += elapsed;
      }
    }
  }
  return c;
}

void check_platform(Record& rec, soc::Soc& chip,
                        const std::vector<const wl::TrafficGen*>& gens) {
  for (const wl::TrafficGen* g : gens) {
    rec.check(g->stats().completed_bytes <= g->stats().issued_bytes,
              "gen.completed_le_issued", g->config().name);
    // Every generator here is busy from t=0; one that completes nothing
    // in a whole run has lost its completions.
    rec.check(g->stats().completed_bytes > 0, "gen.progress",
              g->config().name);
  }
  axi::Interconnect& xbar = chip.xbar();
  for (std::size_t m = 0; m < xbar.master_count(); ++m) {
    const axi::PortStats& ps = xbar.master(m).stats();
    rec.check(ps.txns_completed.value() <= ps.txns_issued.value(),
              "port.completed_le_issued", xbar.master(m).name());
  }
  for (std::size_t ch = 0; ch < chip.dram_channel_count(); ++ch) {
    const dram::Controller& d = chip.dram(ch);
    std::uint64_t bytes = 0;
    std::uint64_t cas = 0;
    for (std::size_t m = 0; m < xbar.master_count(); ++m) {
      const auto id = static_cast<axi::MasterId>(m);
      bytes += d.master_bytes(id);
      for (std::uint32_t b = 0; b < d.config().timing.banks; ++b) {
        cas += d.bank_cas(id, b);
      }
    }
    const std::uint64_t payload = d.stats().payload_bytes.value();
    const std::uint64_t total_cas =
        d.stats().reads_serviced.value() + d.stats().writes_serviced.value();
    rec.check(payload == bytes, "dram.payload_eq_master_sum",
              fmt(static_cast<double>(payload)) + " vs " +
                  fmt(static_cast<double>(bytes)));
    rec.check(total_cas == cas, "dram.cas_eq_bank_sum",
              fmt(static_cast<double>(total_cas)) + " vs " +
                  fmt(static_cast<double>(cas)));
  }
}

void check_regulated_budget(Record& rec, soc::Soc& chip) {
  const double elapsed_s = static_cast<double>(chip.now()) / 1e12;
  for (std::size_t p = 0; p < chip.accel_port_count(); ++p) {
    const qos::Regulator& reg = *chip.qos_block(1 + p).regulator;
    if (!reg.enabled()) {
      continue;
    }
    const axi::MasterPort& port = chip.accel_port(p);
    const double granted =
        static_cast<double>(port.stats().bytes_granted.value());
    const double allowed = reg.programmed_rate_bps() * elapsed_s +
                           static_cast<double>(reg.config().budget_bytes) +
                           static_cast<double>(port.config().line_bytes);
    rec.check(granted <= allowed, "qos.granted_within_budget",
              port.name() + " " + fmt(granted) + " > " + fmt(allowed));
  }
}

void record_shares(Record& rec, const telemetry::ProfileSnapshot& snap,
                   const std::vector<std::string>& cpu_ticks,
                   const std::vector<std::string>& workload_ticks) {
  const auto in = [](const std::vector<std::string>& names,
                     const std::string& tag) {
    return std::find(names.begin(), names.end(), tag) != names.end();
  };
  std::map<std::string, double> cycles = {
      {"sim.kernel_share", 0},  {"dram.tick_share", 0},
      {"dram.line_done_share", 0}, {"xbar.tick_share", 0},
      {"axi.deliver_share", 0}, {"qos.share", 0},
      {"cpu.tick_share", 0},    {"workload.share", 0},
  };
  for (const auto& t : snap.tags) {
    const auto c = static_cast<double>(t.cycles);
    const std::string tick =
        starts_with(t.name, "tick.") ? t.name.substr(5) : std::string();
    if (starts_with(t.name, "kernel.")) {
      cycles["sim.kernel_share"] += c;
    } else if (tick == "dram") {
      cycles["dram.tick_share"] += c;
    } else if (starts_with(t.name, "dram.")) {
      cycles["dram.line_done_share"] += c;
    } else if (tick == "xbar") {
      cycles["xbar.tick_share"] += c;
    } else if (starts_with(t.name, "axi.")) {
      cycles["axi.deliver_share"] += c;
    } else if (starts_with(t.name, "qos.")) {
      cycles["qos.share"] += c;
    } else if (in(cpu_ticks, tick)) {
      cycles["cpu.tick_share"] += c;
    } else if (starts_with(t.name, "workload.") || in(workload_ticks, tick)) {
      cycles["workload.share"] += c;
    }
  }
  const auto total = static_cast<double>(snap.total_cycles);
  for (const auto& [name, c] : cycles) {
    rec.value(name, total > 0 ? c / total : 0.0);
  }
  rec.value("profile.coverage", snap.coverage());
}

double run_steps(soc::Soc& chip, sim::TimePs span_ps, sim::TimePs step_ps,
                 Record* rec) {
  const sim::TimePs end = chip.now() + span_ps;
  double total_s = 0;
  while (chip.now() < end) {
    const sim::TimePs step = std::min(step_ps, end - chip.now());
    const Clock::time_point t0 = Clock::now();
    chip.run_for(step);
    const double s = seconds_since(t0);
    total_s += s;
    if (rec != nullptr) {
      rec->sample("eval_ms", s * 1e3);
    }
  }
  return total_s;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; ru_maxrss would also count the
  // launcher's memory inherited across fork before exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

}  // namespace perfbench

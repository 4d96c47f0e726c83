/// \file main.cpp
/// \brief perfbench: runs one benchmark workload and prints its raw
///        measurements as one JSON line (see run.py for the metrics).
///
///   perfbench --workload exp1_unregulated --seed 1 --seconds 6 --trace 0
///       --part 0 --parts 4
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload exp1_unregulated|exp1_hw|"
               "serving_defense|certify_batch --seed N --seconds S "
               "--trace 0|1 [--part P --parts N]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + key);
    }
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--part") {
        opt.part = std::stoul(val);
      } else if (key == "--parts") {
        opt.parts = std::stoul(val);
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (opt.seconds <= 0) {
    usage("--seconds must be positive");
  }
  if (opt.parts == 0 || opt.part >= opt.parts) {
    usage("--part must be below --parts");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Record rec;
  try {
    if (opt.workload == "exp1_unregulated") {
      perfbench::run_exp1(opt, /*regulated=*/false, rec);
    } else if (opt.workload == "exp1_hw") {
      perfbench::run_exp1(opt, /*regulated=*/true, rec);
    } else if (opt.workload == "serving_defense") {
      perfbench::run_serving(opt, rec);
    } else if (opt.workload == "certify_batch") {
      perfbench::run_certify(opt, rec);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rec.value("peak_rss_mb", perfbench::peak_rss_mb());
  rec.write_json(std::cout);
  return 0;
}

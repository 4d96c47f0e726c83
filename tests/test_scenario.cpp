// Unit tests for the scenario layer: the Spec, build() and the command-line
// Session shared by fgqos_sim and fgqos_sweep.
#include <gtest/gtest.h>

#include <vector>

#include "scenario/session.hpp"
#include "soc/presets.hpp"
#include "util/config_error.hpp"

namespace fgqos::scenario {
namespace {

/// Parses `args` (without the program name) onto `defaults`.
void parse(std::vector<const char*> args, Spec defaults) {
  args.insert(args.begin(), "test");
  const util::ArgParser parser(static_cast<int>(args.size()), args.data());
  const Session session("test", parser, std::move(defaults));
}

TEST(ScenarioSpec, PresetDefaultsToOneAggressorPerPort) {
  for (const std::string& name : soc::preset_names()) {
    const Spec spec = for_preset(name);
    EXPECT_EQ(spec.aggressors, soc::preset_by_name(name).accel_ports) << name;
  }
  EXPECT_EQ(for_preset("zcu102").aggressors, 4u);
  EXPECT_EQ(for_preset("ultra96").aggressors, 2u);
}

TEST(ScenarioSpec, CliSchemesAreExactlyNoneHwSw) {
  EXPECT_EQ(scheme_from_name("none"), Scheme::kNone);
  EXPECT_EQ(scheme_from_name("hw"), Scheme::kHw);
  EXPECT_EQ(scheme_from_name("sw"), Scheme::kSw);
  EXPECT_THROW((void)scheme_from_name("prem_tdma"), ConfigError);
  EXPECT_THROW((void)scheme_from_name("HW"), ConfigError);
}

TEST(ScenarioSession, RejectsMoreAggressorsThanPorts) {
  EXPECT_NO_THROW(parse({"--aggressors", "2"}, for_preset("ultra96")));
  EXPECT_THROW(parse({"--aggressors", "3"}, for_preset("ultra96")),
               ConfigError);
  EXPECT_THROW(parse({"--aggressors", "5"}, for_preset("zcu102")),
               ConfigError);
}

TEST(ScenarioSession, RejectsSweepKnobAboveThePortCount) {
  Spec spec;
  EXPECT_NO_THROW(apply_knob(spec, "aggressors", 4));
  EXPECT_EQ(spec.aggressors, 4u);
  EXPECT_THROW(apply_knob(spec, "aggressors", 5), ConfigError);
  EXPECT_THROW(apply_knob(spec, "aggressors", -1), ConfigError);
  EXPECT_THROW(apply_knob(spec, "bogus", 1), ConfigError);
}

TEST(ScenarioSession, SharedValidations) {
  EXPECT_THROW(parse({"--trace-filter", "qos"}, Spec{}), ConfigError);
  EXPECT_THROW(parse({"--timeseries-window-us", "10"}, Spec{}), ConfigError);
  EXPECT_THROW(parse({"--aggressor-footprint-mb", "0"}, Spec{}), ConfigError);
  EXPECT_THROW(parse({"--mapping", "bogus"}, Spec{}), ConfigError);
  EXPECT_THROW(parse({"--window-us", "-1"}, Spec{}), ConfigError);
  EXPECT_THROW(parse({"--no-such-flag"}, Spec{}), ConfigError);
}

TEST(ScenarioSession, SweepPointsSuffixPerRunFilesAndLeaveMergedOnes) {
  const char* argv[] = {"test", "--metrics-json", "out.json", "--blame-csv",
                        "blame.csv", "--journal", "j.jsonl"};
  const util::ArgParser parser(7, argv);
  const Session session("test", parser, Spec{});
  const Artifacts point = session.artifacts().for_point("budget", "400");
  EXPECT_EQ(point.metrics_json, "out.budget400.json");
  EXPECT_EQ(point.journal, "j.budget400.jsonl");
  EXPECT_TRUE(point.blame_csv.empty());   // merged by the sweep
  EXPECT_TRUE(point.telemetry.attribution);  // but still recorded per point
}

// On the 2-port presets the default aggressor count used to put two
// generators on each HP port; the second took over the port's completion
// handler and the first never completed a byte.
TEST(ScenarioBuild, EveryDefaultAggressorCompletesOnTwoPortPresets) {
  for (const char* preset : {"ultra96", "kria_k26"}) {
    Spec spec = for_preset(preset);
    spec.critical = Critical::kStream;
    Scenario run = build(spec);
    ASSERT_EQ(run.aggressors.size(), 2u) << preset;
    run.chip->run_for(sim::kPsPerMs);
    for (const wl::TrafficGen* g : run.aggressors) {
      EXPECT_GT(g->stats().completed_bytes, 0u) << preset;
    }
  }
}

TEST(ScenarioBuild, HwSchemeProgramsEveryDrivenPort) {
  Spec spec;
  spec.aggressors = 2;
  spec.scheme = Scheme::kHw;
  Scenario run = build(spec);
  EXPECT_TRUE(run.chip->qos_block(1).regulator->enabled());
  EXPECT_TRUE(run.chip->qos_block(2).regulator->enabled());
  EXPECT_FALSE(run.chip->qos_block(3).regulator->enabled());
  spec.regulate_idle_ports = true;
  Scenario all = build(spec);
  EXPECT_TRUE(all.chip->qos_block(4).regulator->enabled());
}

}  // namespace
}  // namespace fgqos::scenario

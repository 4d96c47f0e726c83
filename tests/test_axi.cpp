// Unit tests for the AXI layer: timed FIFO, address map, arbiters, ports
// and the interconnect against a scripted slave.
#include <gtest/gtest.h>

#include <vector>

#include "axi/address_map.hpp"
#include "axi/arbiter.hpp"
#include "axi/interconnect.hpp"
#include "axi/timed_fifo.hpp"
#include "util/config_error.hpp"

namespace fgqos::axi {
namespace {

// --------------------------------------------------------------------------
// TimedFifo
// --------------------------------------------------------------------------

TEST(TimedFifo, RespectsLatency) {
  TimedFifo<int> f(4, 100);
  f.push(7, 50);
  EXPECT_FALSE(f.can_pop(149));
  EXPECT_TRUE(f.can_pop(150));
  EXPECT_EQ(f.head_ready_at(), 150u);
  EXPECT_EQ(f.pop(150), 7);
  EXPECT_TRUE(f.empty());
}

TEST(TimedFifo, CapacityBackpressure) {
  TimedFifo<int> f(2, 10);
  f.push(1, 0);
  f.push(2, 0);
  EXPECT_TRUE(f.full());
}

TEST(TimedFifo, FifoOrder) {
  TimedFifo<int> f(4, 1);
  f.push(1, 0);
  f.push(2, 0);
  f.push(3, 5);
  EXPECT_EQ(f.pop(100), 1);
  EXPECT_EQ(f.pop(100), 2);
  EXPECT_EQ(f.pop(100), 3);
}

// --------------------------------------------------------------------------
// AddressMap
// --------------------------------------------------------------------------

TEST(AddressMap, LookupHitsAndMisses) {
  AddressMap m;
  m.add_region("dram", 0x0000'0000, 0x8000'0000, 0);
  m.add_region("sram", 0xF000'0000, 0x0010'0000, 1);
  ASSERT_TRUE(m.lookup(0x100).has_value());
  EXPECT_EQ(m.lookup(0x100)->name, "dram");
  EXPECT_EQ(m.lookup(0xF000'0010)->slave_index, 1u);
  EXPECT_FALSE(m.lookup(0x9000'0000).has_value());
  EXPECT_FALSE(m.lookup(0xF010'0000).has_value());
}

TEST(AddressMap, RejectsOverlap) {
  AddressMap m;
  m.add_region("a", 0x1000, 0x1000, 0);
  EXPECT_THROW(m.add_region("b", 0x1800, 0x1000, 1), ConfigError);
  EXPECT_THROW(m.add_region("c", 0x0800, 0x1000, 1), ConfigError);
  // Adjacent is fine.
  m.add_region("d", 0x2000, 0x1000, 1);
}

TEST(AddressMap, RangeLookupRejectsStraddle) {
  AddressMap m;
  m.add_region("a", 0x1000, 0x1000, 0);
  m.add_region("b", 0x2000, 0x1000, 1);
  EXPECT_TRUE(m.lookup_range(0x1F00, 0x100).has_value());
  EXPECT_FALSE(m.lookup_range(0x1F00, 0x101).has_value());
  EXPECT_FALSE(m.lookup_range(0x1000, 0).has_value());
}

// --------------------------------------------------------------------------
// Arbiters
// --------------------------------------------------------------------------

std::vector<int> run_picks(Arbiter& a, std::vector<bool> eligible, int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(a.pick(eligible, 0));
  }
  return out;
}

TEST(RoundRobinArbiter, RotatesFairly) {
  RoundRobinArbiter a;
  EXPECT_EQ(run_picks(a, {true, true, true}, 6),
            (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(RoundRobinArbiter, SkipsIneligible) {
  RoundRobinArbiter a;
  EXPECT_EQ(run_picks(a, {false, true, false}, 3),
            (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(a.pick({false, false, false}, 0), -1);
}

TEST(FixedPriorityArbiter, HighestWins) {
  FixedPriorityArbiter a({1, 5, 3});
  EXPECT_EQ(a.pick({true, true, true}, 0), 1);
  EXPECT_EQ(a.pick({true, false, true}, 0), 2);
  EXPECT_EQ(a.pick({true, false, false}, 0), 0);
}

TEST(FixedPriorityArbiter, EqualPrioritySharesRoundRobin) {
  FixedPriorityArbiter a({2, 2, 1});
  const auto picks = run_picks(a, {true, true, true}, 4);
  // Only masters 0 and 1 are picked, alternating.
  EXPECT_EQ(picks, (std::vector<int>{0, 1, 0, 1}));
}

TEST(WeightedRRArbiter, SharesProportionally) {
  WeightedRRArbiter a({3, 1});
  std::vector<int> count(2, 0);
  for (int i = 0; i < 400; ++i) {
    const int p = a.pick({true, true}, 0);
    ASSERT_GE(p, 0);
    ++count[static_cast<std::size_t>(p)];
  }
  EXPECT_NEAR(count[0], 300, 10);
  EXPECT_NEAR(count[1], 100, 10);
}

TEST(WeightedRRArbiter, WorkConserving) {
  WeightedRRArbiter a({1, 10});
  // Only the low-weight master is eligible: it still gets every grant.
  EXPECT_EQ(run_picks(a, {true, false}, 5),
            (std::vector<int>{0, 0, 0, 0, 0}));
}

TEST(WeightedRRArbiter, RejectsZeroWeight) {
  EXPECT_THROW(WeightedRRArbiter({1, 0}), ConfigError);
}

// --------------------------------------------------------------------------
// Interconnect against a scripted slave
// --------------------------------------------------------------------------

/// Slave that services every line after a fixed delay; a finished line
/// frees its slot and wakes the crossbar.
class FixedLatencySlave final : public SlaveIf {
 public:
  FixedLatencySlave(sim::Simulator& sim, ResponseSink& sink,
                    sim::TimePs latency, std::size_t capacity)
      : sim_(sim), sink_(&sink), latency_(latency), capacity_(capacity) {}

  std::size_t accepted = 0;

  [[nodiscard]] bool can_accept(const LineRequest&,
                                sim::TimePs) const override {
    return in_flight_ < capacity_;
  }
  void accept(LineRequest line, sim::TimePs now) override {
    ++accepted;
    ++in_flight_;
    sim_.schedule_at(now + latency_, [this, line]() {
      if (in_flight_-- == capacity_) {
        notify_space(sim_.now());
      }
      sink_->line_done(line, sim_.now());
    });
  }

 private:
  sim::Simulator& sim_;
  ResponseSink* sink_;
  sim::TimePs latency_;
  std::size_t capacity_;
  std::size_t in_flight_ = 0;
};

struct XbarFixture {
  sim::Simulator sim;
  sim::ClockDomain clk{"x", 1000};  // 1 GHz
  Interconnect xbar{sim, clk, InterconnectConfig{"xbar", 1}};
};

TEST(Interconnect, SingleTransactionCompletes) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.request_latency_ps = 1000;
  pc.response_latency_ps = 1000;
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 5000, 64);
  f.xbar.set_slave(slave);

  std::vector<Transaction> done;
  port.set_completion_handler(
      [&](const Transaction& t) { done.push_back(t); });
  ASSERT_TRUE(port.issue(Dir::kRead, 0x1000, 256));
  f.sim.run_for(1'000'000);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].bytes, 256u);
  EXPECT_EQ(done[0].lines_total, 4u);
  EXPECT_EQ(slave.accepted, 4u);
  // Latency >= request path + slave latency + response path.
  EXPECT_GE(done[0].latency(), 7000u);
}

TEST(Interconnect, UnalignedBurstSplitsCorrectly) {
  XbarFixture f;
  MasterPort& port = f.xbar.add_master(MasterPortConfig{});
  FixedLatencySlave slave(f.sim, f.xbar, 1000, 64);
  f.xbar.set_slave(slave);
  int done = 0;
  port.set_completion_handler([&](const Transaction& t) {
    ++done;
    // [0x1030, 0x1090) spans lines 0x1000, 0x1040, 0x1080 -> 3 lines.
    EXPECT_EQ(t.lines_total, 3u);
  });
  ASSERT_TRUE(port.issue(Dir::kWrite, 0x1030, 0x60));
  f.sim.run_for(1'000'000);
  EXPECT_EQ(done, 1);
}

TEST(Interconnect, OutstandingLimitEnforced) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.max_outstanding_reads = 2;
  pc.request_queue_depth = 8;
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 1'000'000, 64);  // slow slave
  f.xbar.set_slave(slave);
  port.set_completion_handler([](const Transaction&) {});
  EXPECT_TRUE(port.issue(Dir::kRead, 0x0, 64));
  EXPECT_TRUE(port.issue(Dir::kRead, 0x40, 64));
  EXPECT_FALSE(port.issue(Dir::kRead, 0x80, 64));  // limit hit
  EXPECT_TRUE(port.issue(Dir::kWrite, 0xC0, 64));  // writes independent
  EXPECT_EQ(port.stats().issue_rejected.value(), 1u);
}

TEST(Interconnect, RoundRobinSharesBandwidthEvenly) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.port_bandwidth_bps = 1e12;  // effectively unlimited
  MasterPort& a = f.xbar.add_master(pc);
  MasterPort& b = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 2000, 1);  // capacity 1 = bottleneck
  f.xbar.set_slave(slave);
  a.set_completion_handler([&](const Transaction&) {
    a.issue(Dir::kRead, 0x0, 64);
  });
  b.set_completion_handler([&](const Transaction&) {
    b.issue(Dir::kRead, 0x1000, 64);
  });
  a.issue(Dir::kRead, 0x0, 64);
  b.issue(Dir::kRead, 0x1000, 64);
  f.sim.run_for(10'000'000);
  const double ra = static_cast<double>(a.stats().bytes_granted.value());
  const double rb = static_cast<double>(b.stats().bytes_granted.value());
  EXPECT_GT(ra, 0);
  EXPECT_NEAR(ra / rb, 1.0, 0.1);
}

/// Gate that blocks everything while `blocked` is true.
struct ToggleGate final : TxnGate {
  bool blocked = true;
  int grants_seen = 0;
  [[nodiscard]] bool allow(const LineRequest&, sim::TimePs) const override {
    return !blocked;
  }
  void on_grant(const LineRequest&, sim::TimePs) override { ++grants_seen; }
};

TEST(Interconnect, GateBlocksAndReleases) {
  XbarFixture f;
  MasterPort& port = f.xbar.add_master(MasterPortConfig{});
  FixedLatencySlave slave(f.sim, f.xbar, 1000, 64);
  f.xbar.set_slave(slave);
  ToggleGate gate;
  port.add_gate(gate);
  int done = 0;
  port.set_completion_handler([&](const Transaction&) { ++done; });
  port.issue(Dir::kRead, 0x0, 64);
  f.sim.run_for(100'000);
  EXPECT_EQ(done, 0);  // gate shut: nothing moved
  EXPECT_EQ(gate.grants_seen, 0);
  gate.blocked = false;
  f.sim.run_for(100'000);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(gate.grants_seen, 1);
}

/// Observer counting events.
struct CountingObserver final : TxnObserver {
  int issues = 0, grants = 0, completes = 0;
  std::uint64_t grant_bytes = 0;
  void on_issue(const Transaction&, sim::TimePs) override { ++issues; }
  void on_grant(const LineRequest& l, sim::TimePs) override {
    ++grants;
    grant_bytes += l.bytes;
  }
  void on_complete(const Transaction&, sim::TimePs) override { ++completes; }
};

TEST(Interconnect, ObserverSeesAllEvents) {
  XbarFixture f;
  MasterPort& port = f.xbar.add_master(MasterPortConfig{});
  FixedLatencySlave slave(f.sim, f.xbar, 1000, 64);
  f.xbar.set_slave(slave);
  CountingObserver obs;
  port.add_observer(obs);
  port.set_completion_handler([](const Transaction&) {});
  port.issue(Dir::kRead, 0x0, 256);
  port.issue(Dir::kWrite, 0x1000, 64);
  f.sim.run_for(1'000'000);
  EXPECT_EQ(obs.issues, 2);
  EXPECT_EQ(obs.grants, 5);  // 4 + 1 lines
  EXPECT_EQ(obs.completes, 2);
  EXPECT_EQ(obs.grant_bytes, 320u);
}

TEST(Interconnect, PortBandwidthLimitsThroughput) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.port_bandwidth_bps = 1e9;  // 1 GB/s port
  pc.max_outstanding_reads = 16;
  pc.request_queue_depth = 16;
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 100, 64);  // fast slave
  f.xbar.set_slave(slave);
  port.set_completion_handler([&](const Transaction&) {
    port.issue(Dir::kRead, 0x0, 1024);
  });
  for (int i = 0; i < 8; ++i) {
    port.issue(Dir::kRead, 0x0, 1024);
  }
  const sim::TimePs horizon = 10 * sim::kPsPerUs;
  f.sim.run_for(horizon);
  const double bps = sim::bytes_per_second(
      port.stats().bytes_granted.value(), horizon);
  EXPECT_LT(bps, 1.1e9);
  EXPECT_GT(bps, 0.8e9);
}

// --------------------------------------------------------------------------
// Crossbar sleep/wake: the crossbar sleeps while no head is grantable and
// wakes on exactly the edge a crossbar ticking every cycle would grant on.
// --------------------------------------------------------------------------

TEST(InterconnectWake, SuccessorHeadIsGrantedOnItsReadyEdge) {
  XbarFixture f;  // 1 GHz: edge N at N ns
  MasterPortConfig pc;
  pc.request_latency_ps = 1000;
  pc.port_bandwidth_bps = 1e12;  // 64 ps per line: never the bottleneck
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 5000, 64);
  f.xbar.set_slave(slave);
  std::vector<Transaction> done;
  port.set_completion_handler(
      [&](const Transaction& t) { done.push_back(t); });
  ASSERT_TRUE(port.issue(Dir::kRead, 0x0, 64));  // visible at 1000
  f.sim.run_for(500);
  ASSERT_TRUE(port.issue(Dir::kRead, 0x40, 64));  // visible at 1500
  f.sim.run_for(100'000);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].granted, 1000u);
  // The second burst turns head when the first is granted but is still
  // invisible then; its grant lands on the first edge after 1500.
  EXPECT_EQ(done[1].granted, 2000u);
  // Ticks at 0 (registration), 1000 and 2000 only: in-flight lines and
  // the invisible successor keep nothing awake.
  EXPECT_EQ(f.xbar.ticks_fired(), 3u);
}

TEST(InterconnectWake, IssueBehindABlockedHeadDoesNotTickTheCrossbar) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.request_latency_ps = 1000;
  pc.port_bandwidth_bps = 1e12;
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 50'000, 1);  // one line at a time
  f.xbar.set_slave(slave);
  std::vector<Transaction> done;
  port.set_completion_handler(
      [&](const Transaction& t) { done.push_back(t); });
  ASSERT_TRUE(port.issue(Dir::kRead, 0x0, 64));
  ASSERT_TRUE(port.issue(Dir::kRead, 0x40, 64));
  f.sim.run_for(10'000);  // first line in the slave, second head blocked
  const std::uint64_t ticks = f.xbar.ticks_fired();
  ASSERT_TRUE(port.issue(Dir::kRead, 0x80, 64));
  f.sim.run_for(10'000);
  // The new burst queues behind the blocked head: nothing for the
  // crossbar to do until the slave frees its slot.
  EXPECT_EQ(f.xbar.ticks_fired(), ticks);
  f.sim.run_for(200'000);
  ASSERT_EQ(done.size(), 3u);
  // Slot freed at 51000 (inside an event, before that edge's tick): the
  // blocked head goes on that very edge, the next one 50 us later.
  EXPECT_EQ(done[1].granted, 51'000u);
  EXPECT_EQ(done[2].granted, 101'000u);
}

TEST(InterconnectWake, RateLimitedHeadIsGrantedWhenThePortFrees) {
  XbarFixture f;
  MasterPortConfig pc;
  pc.request_latency_ps = 1000;
  pc.port_bandwidth_bps = 6.4e9;  // 64 B line = 10 ns of port time
  MasterPort& port = f.xbar.add_master(pc);
  FixedLatencySlave slave(f.sim, f.xbar, 1000, 64);
  f.xbar.set_slave(slave);
  std::vector<Transaction> done;
  port.set_completion_handler(
      [&](const Transaction& t) { done.push_back(t); });
  ASSERT_TRUE(port.issue(Dir::kRead, 0x0, 64));
  ASSERT_TRUE(port.issue(Dir::kRead, 0x40, 64));
  f.sim.run_for(100'000);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].granted, 1000u);
  EXPECT_EQ(done[1].granted, 11'000u);
  EXPECT_EQ(f.xbar.ticks_fired(), 3u);
}

}  // namespace
}  // namespace fgqos::axi

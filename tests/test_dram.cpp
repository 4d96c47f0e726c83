// Unit tests for the DRAM subsystem: timing validation, address mapping,
// bank state machine, controller behaviour driven through a stub response
// sink, and the controller's sleep/wake schedule.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dram/address_mapper.hpp"
#include "dram/bank.hpp"
#include "dram/controller.hpp"
#include "soc/soc.hpp"
#include "util/config_error.hpp"
#include "workload/cpu_workloads.hpp"
#include "workload/traffic_gen.hpp"

namespace fgqos::dram {
namespace {

// --------------------------------------------------------------------------
// TimingConfig
// --------------------------------------------------------------------------

TEST(TimingConfig, DefaultsValid) {
  TimingConfig t;
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.burst_cycles(), 4u);
  EXPECT_NEAR(t.peak_bandwidth_bps(), 19.2e9, 1e6);
}

TEST(TimingConfig, RejectsBadGeometry) {
  TimingConfig t;
  t.banks = 3;
  EXPECT_THROW(t.validate(), fgqos::ConfigError);
  t = TimingConfig{};
  t.row_bytes = 32;  // smaller than burst
  EXPECT_THROW(t.validate(), fgqos::ConfigError);
  t = TimingConfig{};
  t.tREFI = 100;
  t.tRFC = 200;
  EXPECT_THROW(t.validate(), fgqos::ConfigError);
}

// --------------------------------------------------------------------------
// AddressMapper
// --------------------------------------------------------------------------

TEST(AddressMapper, BankInterleavedRotatesBanks) {
  TimingConfig t;
  AddressMapper m(t, MappingPolicy::kBankInterleaved);
  for (std::uint32_t i = 0; i < t.banks; ++i) {
    const Decoded d = m.decode(static_cast<axi::Addr>(i) * t.burst_bytes);
    EXPECT_EQ(d.bank, i);
    EXPECT_EQ(d.row, 0u);
  }
  // One full rotation later: same banks, next column.
  const Decoded d = m.decode(static_cast<axi::Addr>(t.banks) * t.burst_bytes);
  EXPECT_EQ(d.bank, 0u);
  EXPECT_EQ(d.column, 1u);
}

TEST(AddressMapper, RowBankColumnFillsRowFirst) {
  TimingConfig t;
  AddressMapper m(t, MappingPolicy::kRowBankColumn);
  const std::uint64_t bursts_per_row = t.row_bytes / t.burst_bytes;
  const Decoded first = m.decode(0);
  const Decoded last_in_row = m.decode((bursts_per_row - 1) * t.burst_bytes);
  const Decoded next_bank = m.decode(bursts_per_row * t.burst_bytes);
  EXPECT_EQ(first.bank, 0u);
  EXPECT_EQ(last_in_row.bank, 0u);
  EXPECT_EQ(next_bank.bank, 1u);
}

TEST(AddressMapper, DistinctAddressesDistinctCoordinates) {
  TimingConfig t;
  AddressMapper m(t, MappingPolicy::kBankInterleaved);
  const Decoded a = m.decode(0x100000);
  const Decoded b = m.decode(0x100000 + t.burst_bytes);
  EXPECT_FALSE(a.bank == b.bank && a.row == b.row && a.column == b.column);
}

// --------------------------------------------------------------------------
// Bank
// --------------------------------------------------------------------------

TEST(Bank, ActivateOpensRowAndSetsWindows) {
  Bank b;
  EXPECT_FALSE(b.row_open());
  b.activate(42, 100, 17, 39, 56);
  EXPECT_TRUE(b.row_open());
  EXPECT_TRUE(b.row_hit(42));
  EXPECT_FALSE(b.row_hit(43));
  EXPECT_EQ(b.cas_ready(), 117u);
  EXPECT_EQ(b.pre_ready(), 139u);
  EXPECT_EQ(b.act_ready(), 156u);
  EXPECT_EQ(b.activations(), 1u);
}

TEST(Bank, PrechargeClosesRow) {
  Bank b;
  b.activate(1, 0, 17, 39, 56);
  b.precharge(100, 17);
  EXPECT_FALSE(b.row_open());
  EXPECT_EQ(b.act_ready(), 117u);
}

TEST(Bank, ReadCasExtendsPrechargeWindow) {
  Bank b;
  b.activate(1, 0, 17, 39, 56);
  b.read_cas(35, 9);  // 35 + 9 = 44 > tRAS(39)
  EXPECT_EQ(b.pre_ready(), 44u);
}

TEST(Bank, RefreshBlocksActivation) {
  Bank b;
  b.activate(1, 0, 17, 39, 56);
  b.refresh_block(500);
  EXPECT_FALSE(b.row_open());
  EXPECT_EQ(b.act_ready(), 500u);
}

// --------------------------------------------------------------------------
// Controller through a recording sink
// --------------------------------------------------------------------------

struct RecordingSink final : axi::ResponseSink {
  std::vector<std::pair<axi::Addr, sim::TimePs>> done;
  void line_done(const axi::LineRequest& line, sim::TimePs now) override {
    done.emplace_back(line.addr, now);
  }
};

struct ControllerFixture {
  sim::Simulator sim;
  ControllerConfig cfg{};
  sim::ClockDomain clk{"d", cfg.timing.period_ps()};
  RecordingSink sink;
  Controller ctrl{sim, clk, cfg, sink};
  std::vector<std::unique_ptr<axi::Transaction>> txns;

  ControllerFixture() = default;
  explicit ControllerFixture(ControllerConfig c)
      : cfg(c), clk("d", cfg.timing.period_ps()), ctrl(sim, clk, cfg, sink) {}

  /// Bank-interleaved address of (bank, row, column).
  [[nodiscard]] axi::Addr at(std::uint32_t bank, std::uint64_t row,
                             std::uint64_t column) const {
    const std::uint64_t per_row = cfg.timing.row_bytes / cfg.timing.burst_bytes;
    return ((row * per_row + column) * cfg.timing.banks + bank) *
           cfg.timing.burst_bytes;
  }

  /// Accepts one 64 B line now.
  void send(axi::Addr addr, bool is_write) {
    ctrl.accept(line(addr, is_write), sim.now());
  }

  /// Controller cycle at which the burst of \p addr left the data bus.
  [[nodiscard]] sim::Cycles done_cycle(axi::Addr addr) const {
    for (const auto& [a, t] : sink.done) {
      if (a == addr) {
        return t / clk.period_ps();
      }
    }
    return 0;
  }

  axi::LineRequest line(axi::Addr addr, bool is_write,
                        axi::MasterId master = 0) {
    auto txn = std::make_unique<axi::Transaction>();
    txn->master = master;
    txn->dir = is_write ? axi::Dir::kWrite : axi::Dir::kRead;
    txn->addr = addr;
    txn->bytes = 64;
    txn->lines_total = 1;
    txn->lines_left = 1;
    axi::LineRequest l;
    l.txn = txn.get();
    l.addr = addr;
    l.bytes = 64;
    l.is_write = is_write;
    l.last_of_txn = true;
    txns.push_back(std::move(txn));
    return l;
  }
};

TEST(Controller, SingleReadCompletesWithReasonableLatency) {
  ControllerFixture f;
  ASSERT_TRUE(f.ctrl.can_accept(f.line(0x1000, false), 0));
  f.ctrl.accept(f.line(0x1000, false), f.sim.now());
  f.sim.run_for(sim::kPsPerUs);
  ASSERT_EQ(f.sink.done.size(), 1u);
  // Closed bank: frontend + tRCD + tCL + burst, roughly 30-45 cycles
  // at 833 ps -> expect between 25 and 100 ns.
  EXPECT_GT(f.sink.done[0].second, 25'000u);
  EXPECT_LT(f.sink.done[0].second, 100'000u);
  EXPECT_EQ(f.ctrl.stats().reads_serviced.value(), 1u);
  EXPECT_EQ(f.ctrl.stats().activations.value(), 1u);
}

TEST(Controller, RowHitFasterThanConflict) {
  ControllerFixture f;
  const TimingConfig& t = f.cfg.timing;
  // Same bank, same row (consecutive columns in interleaved mapping are
  // banks*burst apart).
  const axi::Addr a0 = 0;
  const axi::Addr a1 = static_cast<axi::Addr>(t.banks) * t.burst_bytes;
  f.ctrl.accept(f.line(a0, false), 0);
  f.sim.run_for(sim::kPsPerUs);
  f.ctrl.accept(f.line(a1, false), f.sim.now());
  f.sim.run_for(sim::kPsPerUs);
  const sim::TimePs hit_latency = f.sink.done.back().second - f.sim.now() +
                                  sim::kPsPerUs;  // completion - accept
  // Now a conflicting row in the same bank.
  const axi::Addr a2 =
      static_cast<axi::Addr>(t.banks) * t.row_bytes * 2;  // different row, bank 0
  const sim::TimePs accept_at = f.sim.now();
  f.ctrl.accept(f.line(a2, false), accept_at);
  f.sim.run_for(sim::kPsPerUs);
  const sim::TimePs conflict_latency = f.sink.done.back().second - accept_at;
  EXPECT_LT(hit_latency, conflict_latency);
  EXPECT_GE(f.ctrl.stats().conflict_precharges.value(), 1u);
}

TEST(Controller, QueueCapacityBackpressure) {
  ControllerFixture f;
  for (std::size_t i = 0; i < f.cfg.read_queue_depth; ++i) {
    auto l = f.line(static_cast<axi::Addr>(i) * 64, false);
    ASSERT_TRUE(f.ctrl.can_accept(l, 0));
    f.ctrl.accept(l, 0);
  }
  EXPECT_FALSE(f.ctrl.can_accept(f.line(0x999000, false), 0));
  // Writes use their own queue.
  EXPECT_TRUE(f.ctrl.can_accept(f.line(0x999000, true), 0));
}

TEST(Controller, AllRequestsEventuallyComplete) {
  ControllerFixture f;
  std::size_t sent = 0;
  for (int i = 0; i < 24; ++i) {
    const bool wr = (i % 3) == 0;
    f.ctrl.accept(f.line(static_cast<axi::Addr>(i) * 4096, wr), f.sim.now());
    ++sent;
    f.sim.run_for(10'000);
  }
  f.sim.run_for(10 * sim::kPsPerUs);
  EXPECT_EQ(f.sink.done.size(), sent);
  EXPECT_EQ(f.ctrl.stats().reads_serviced.value() +
                f.ctrl.stats().writes_serviced.value(),
            sent);
}

TEST(Controller, PerMasterAccounting) {
  ControllerFixture f;
  f.ctrl.accept(f.line(0x0, false, 1), 0);
  f.ctrl.accept(f.line(0x40, false, 1), 0);
  f.ctrl.accept(f.line(0x80, false, 2), 0);
  f.sim.run_for(sim::kPsPerUs);
  EXPECT_EQ(f.ctrl.master_bytes(1), 128u);
  EXPECT_EQ(f.ctrl.master_bytes(2), 64u);
  EXPECT_EQ(f.ctrl.master_bytes(7), 0u);
}

TEST(Controller, RefreshHappensPeriodically) {
  ControllerFixture f;
  // Keep the controller awake with periodic traffic across several tREFI.
  const sim::TimePs refi_ps =
      f.cfg.timing.tREFI * f.cfg.timing.period_ps();
  for (int i = 0; i < 40; ++i) {
    f.ctrl.accept(f.line(static_cast<axi::Addr>(i) * 64, false), f.sim.now());
    f.sim.run_for(refi_ps / 8);
  }
  EXPECT_GE(f.ctrl.stats().refreshes.value(), 3u);
}

TEST(Controller, WriteDrainServicesWritesUnderReadLoad) {
  ControllerFixture f;
  // Saturate the write queue past the high watermark, with reads present.
  for (std::size_t i = 0; i < f.cfg.write_queue_depth; ++i) {
    f.ctrl.accept(f.line(0x100000 + static_cast<axi::Addr>(i) * 64, true), 0);
  }
  f.ctrl.accept(f.line(0x0, false), 0);
  f.sim.run_for(10 * sim::kPsPerUs);
  EXPECT_EQ(f.ctrl.stats().writes_serviced.value(), f.cfg.write_queue_depth);
  EXPECT_EQ(f.ctrl.stats().reads_serviced.value(), 1u);
}

TEST(ControllerConfig, ValidatesWatermarks) {
  ControllerConfig c;
  c.write_low_watermark = c.write_high_watermark;
  EXPECT_THROW(c.validate(), fgqos::ConfigError);
  c = ControllerConfig{};
  c.write_high_watermark = c.write_queue_depth + 1;
  EXPECT_THROW(c.validate(), fgqos::ConfigError);
}

// --------------------------------------------------------------------------
// Command schedule. The controller sleeps until the next cycle on which a
// command could issue or a scheduling input changes; each case pins the
// exact cycles a controller ticking on every cycle issues on (DDR4-2400
// defaults, 833 ps cycles; a line accepted at t = 0 turns visible on
// cycle 25). A completion on cycle d is a CAS on d - tCL - 4 (read) or
// d - tCWL - 4 (write).
// --------------------------------------------------------------------------

TEST(ControllerSchedule, ActivateThenCasAfterTrcd) {
  ControllerFixture f;
  f.send(f.at(0, 0, 0), false);
  f.sim.run_for(sim::kPsPerUs);
  // ACT on 25, CAS on 25 + tRCD = 42.
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 0)), 42u + 17 + 4);
}

TEST(ControllerSchedule, RowConflictWaitsForTrasAndTrp) {
  ControllerFixture f;
  f.send(f.at(0, 0, 0), false);
  f.send(f.at(0, 1, 0), false);
  f.sim.run_for(sim::kPsPerUs);
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 0)), 63u);
  // PRE on 25 + tRAS = 64, ACT on 64 + tRP = 81 (= 25 + tRC), CAS on 98.
  EXPECT_EQ(f.done_cycle(f.at(0, 1, 0)), 98u + 17 + 4);
  EXPECT_EQ(f.ctrl.stats().conflict_precharges.value(), 1u);
}

TEST(ControllerSchedule, FifthActivateWaitsForTfaw) {
  ControllerFixture f;
  for (std::uint32_t b = 0; b < 5; ++b) {
    f.send(f.at(b, 0, 0), false);
  }
  f.sim.run_for(sim::kPsPerUs);
  // ACTs on 25, 29, 33, 37 (tRRD_S); CAS on 42, 46, 50, 54 (tCCD_S and
  // the data bus). The fifth ACT waits for the four-ACT window: 25 + tFAW
  // = 51, so its CAS goes on 68.
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 0)), 63u);
  EXPECT_EQ(f.done_cycle(f.at(1, 0, 0)), 67u);
  EXPECT_EQ(f.done_cycle(f.at(2, 0, 0)), 71u);
  EXPECT_EQ(f.done_cycle(f.at(3, 0, 0)), 75u);
  EXPECT_EQ(f.done_cycle(f.at(4, 0, 0)), 68u + 17 + 4);
}

TEST(ControllerSchedule, DirectionTurnaroundsTwtrAndTrtw) {
  ControllerFixture f;
  // 24 writes reach the high watermark: drain them (one row, tCCD_L
  // apart from cycle 42) until the queue is down to the low watermark.
  for (std::uint64_t col = 0; col < 24; ++col) {
    f.send(f.at(0, 0, col), true);
  }
  f.send(f.at(0, 0, 24), false);
  f.sim.run_for(2 * sim::kPsPerUs);
  // The 16th write's CAS is on 42 + 15 * 6 = 132; its burst ends on 148.
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 15)), 148u);
  // Read CAS on 148 + tWTR = 157.
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 24)), 157u + 17 + 4);
  // The read's burst ends on 178; the next write's burst may start
  // tRTW later, so its CAS goes on 178 + 8 - tCWL = 174.
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 16)), 174u + 12 + 4);
  EXPECT_EQ(f.ctrl.stats().writes_serviced.value(), 24u);
}

TEST(ControllerSchedule, RefreshClosesTheRowAQueuedConflictWaitsOn) {
  ControllerFixture f;
  const sim::TimePs p = f.clk.period_ps();
  f.sim.run_for(9300 * p);
  f.send(f.at(0, 0, 0), false);
  f.send(f.at(0, 1, 0), false);
  f.sim.run_for(sim::kPsPerUs);
  // Visible on 9325: ACT, CAS on 9342. The conflict's PRE would be legal
  // on 9364, but the refresh falls due on tREFI = 9360 and closes every
  // bank for tRFC: ACT on 9780, CAS on 9797.
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 0)), 9342u + 17 + 4);
  EXPECT_EQ(f.done_cycle(f.at(0, 1, 0)), 9797u + 17 + 4);
  EXPECT_EQ(f.ctrl.stats().refreshes.value(), 1u);
}

TEST(ControllerSchedule, StarvationGuardOvertakesAProtectedRow) {
  ControllerConfig cfg;
  cfg.starvation_cycles = 100;
  ControllerFixture f(cfg);
  const sim::TimePs p = f.clk.period_ps();
  f.send(f.at(0, 0, 0), false);
  f.send(f.at(0, 1, 0), false);  // conflict, visible on 25
  f.sim.run_for(20 * p);
  // A write hitting the open row, visible on 45: it protects row 0 from
  // the conflict's PRE but is not served while reads are queued.
  f.send(f.at(0, 0, 1), true);
  f.sim.run_for(sim::kPsPerUs);
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 0)), 63u);
  // The conflict starves on 24 + 100 + 1 = 125: PRE on 125, ACT on 142,
  // CAS on 159.
  EXPECT_EQ(f.done_cycle(f.at(0, 1, 0)), 159u + 17 + 4);
  // The write ages on 44 + 100 = 144 but the starving read goes first;
  // row 0 reopens on 181 + tRP = 198, write CAS on 215.
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 1)), 215u + 12 + 4);
}

TEST(ControllerSchedule, RefreshDivisorChangeWakesTheSleepingController) {
  ControllerConfig cfg;
  cfg.timing.tRAS = 3000;
  cfg.timing.tRC = 3100;
  ControllerFixture f(cfg);
  const sim::TimePs p = f.clk.period_ps();
  f.send(f.at(0, 0, 0), false);
  f.send(f.at(0, 1, 0), false);
  // The conflict's PRE is legal only on 25 + tRAS = 3025; the controller
  // sleeps until then. A storm arriving on 1000 moves the refresh to
  // 1000 + 9360 / 8 = 2170, which closes the row (ACT legal on 2590).
  f.sim.schedule_at(1000 * p,
                    [&f]() { f.ctrl.set_refresh_interval_divisor(8); });
  f.sim.run_for(4000 * p);
  EXPECT_EQ(f.done_cycle(f.at(0, 0, 0)), 63u);
  // ACT on 25 + tRC = 3125, CAS on 3142.
  EXPECT_EQ(f.done_cycle(f.at(0, 1, 0)), 3142u + 17 + 4);
  EXPECT_EQ(f.ctrl.stats().refreshes.value(), 1u);
  EXPECT_EQ(f.ctrl.stats().conflict_precharges.value(), 0u);
}

// --------------------------------------------------------------------------
// Wasted work on the DRAM-saturated EXP1 mix: a pointer-chase victim
// against four sequential-read DMA generators, no QoS, 1 ms. Every
// controller tick must pay for itself with a command or an accepted line;
// the crossbar sleeps while the controller's queues are full.
// --------------------------------------------------------------------------

TEST(ControllerWork, TicksAreBoundedByCommandsAndArrivals) {
  soc::Soc chip{soc::SocConfig{}};
  cpu::CoreConfig cc;
  cc.name = "critical";
  chip.add_core(cc, wl::make_pointer_chase({}));
  for (std::size_t i = 0; i < 4; ++i) {
    wl::TrafficGenConfig tg;
    tg.name = "agg" + std::to_string(i);
    tg.pattern = wl::Pattern::kSeqRead;
    tg.base = 0x8000'0000 + static_cast<axi::Addr>(i) * (64ull << 20);
    tg.footprint_bytes = 16ull << 20;
    tg.seed = 1 + i;
    chip.add_traffic_gen(i, tg);
  }
  chip.run_for(sim::kPsPerMs);

  const Controller& d = chip.dram();
  const ControllerStats& st = d.stats();
  ASSERT_GT(d.bus_utilization(chip.now()), 0.5);  // saturated
  const std::uint64_t cas =
      st.reads_serviced.value() + st.writes_serviced.value();
  const std::uint64_t accepted =
      cas + d.read_queue_size() + d.write_queue_size();
  const std::uint64_t commands = cas + st.activations.value() +
                                 st.conflict_precharges.value() +
                                 st.refreshes.value();
  EXPECT_LE(d.ticks_fired(), commands + accepted);

  const sim::Cycles xbar_cycles =
      chip.now() / chip.xbar().clock().period_ps();
  EXPECT_LT(chip.xbar().ticks_fired(), xbar_cycles / 2);
}

}  // namespace
}  // namespace fgqos::dram

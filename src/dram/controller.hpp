/// \file controller.hpp
/// \brief FR-FCFS DDR controller model.
///
/// Mid-fidelity model in the DRAMSim tradition: per-bank row state and
/// timing windows (tRCD/tRP/tRAS/tRC/tRRD/tFAW/tCCD/tRTP/tWR/tWTR/tRTW),
/// a shared command bus (one command per controller cycle), a shared data
/// bus with direction-turnaround penalties, periodic refresh, FR-FCFS
/// scheduling with a starvation guard, and write draining with
/// high/low watermarks.
///
/// The controller sleeps at command granularity: after each tick it
/// computes the earliest cycle at which a command could issue or any
/// scheduling input changes (entry visibility, bank and channel timing
/// windows, tFAW, direction turnaround, refresh, both aging thresholds)
/// and wakes itself there, so it never ticks on a cycle where nothing can
/// change. accept() wakes it at the new line's visibility, or on the next
/// edge when the line flips the drain/serve decision; a refresh-divisor
/// change wakes it at the new refresh deadline. Every decision is the one
/// a controller ticking on every cycle would make on the same cycle.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "axi/interconnect.hpp"
#include "axi/transaction.hpp"
#include "dram/address_mapper.hpp"
#include "dram/bank.hpp"
#include "dram/command_queue.hpp"
#include "dram/timing.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/trace.hpp"

namespace fgqos::dram {

/// Row management policy after a CAS completes.
enum class PagePolicy : std::uint8_t {
  /// Leave the row open (bet on locality; conflicts pay PRE+ACT).
  kOpen,
  /// Auto-precharge after each CAS unless another hit to the same row is
  /// already queued (bet on randomness; every access pays ACT).
  kClosed,
};

/// Controller-level knobs (timing lives in TimingConfig).
struct ControllerConfig {
  TimingConfig timing{};
  MappingPolicy mapping = MappingPolicy::kBankInterleaved;
  PagePolicy page_policy = PagePolicy::kOpen;
  std::size_t read_queue_depth = 32;
  std::size_t write_queue_depth = 32;
  /// Write-drain hysteresis (entries).
  std::size_t write_high_watermark = 24;
  std::size_t write_low_watermark = 8;
  /// Oldest-request age (controller cycles) beyond which row hits may no
  /// longer bypass it (FR-FCFS starvation guard).
  std::uint64_t starvation_cycles = 1200;
  /// Front-end pipeline latency from accept() to schedulability.
  sim::TimePs frontend_latency_ps = 20'000;  // 20 ns
  /// Fail hard (ConfigError) on a capacity-aliasing decode instead of
  /// counting it in AddressMapper::oob_decodes().
  bool strict_addressing = false;

  void validate() const;
};

/// Aggregate controller statistics.
struct ControllerStats {
  sim::Counter reads_serviced;
  sim::Counter writes_serviced;
  sim::Counter payload_bytes;    ///< useful bytes delivered
  sim::Counter bus_bytes;        ///< bytes moved on the data bus (bursts)
  sim::Counter activations;      ///< ACT commands (row misses)
  sim::Counter conflict_precharges;  ///< PRE issued to replace an open row
  sim::Counter refreshes;
  sim::Counter data_bus_busy_cycles;

  /// CAS issued to a row opened by an earlier request of the same stream.
  [[nodiscard]] std::uint64_t row_hits() const {
    const std::uint64_t cas = reads_serviced.value() + writes_serviced.value();
    const std::uint64_t acts = activations.value();
    return cas > acts ? cas - acts : 0;
  }
};

/// The memory controller. Accepts line requests from the interconnect and
/// reports each back through the ResponseSink at data-burst completion.
class Controller final : public sim::Clocked, public axi::SlaveIf {
 public:
  /// \param clk must have the same frequency as cfg.timing.clock_mhz.
  Controller(sim::Simulator& sim, const sim::ClockDomain& clk,
             ControllerConfig cfg, axi::ResponseSink& sink);

  [[nodiscard]] const ControllerConfig& config() const { return cfg_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] const AddressMapper& mapper() const { return mapper_; }

  /// Bytes serviced for one master id (payload).
  [[nodiscard]] std::uint64_t master_bytes(axi::MasterId m) const;

  /// Payload bytes serviced for one (master, bank) pair. Always tracked;
  /// the Soc layer decides whether to publish them as metrics.
  [[nodiscard]] std::uint64_t bank_bytes(axi::MasterId m,
                                         std::uint32_t bank) const;
  /// CAS commands issued for one (master, bank) pair.
  [[nodiscard]] std::uint64_t bank_cas(axi::MasterId m,
                                       std::uint32_t bank) const;

  /// Measured data-bus utilisation in [0,1] over the whole run.
  [[nodiscard]] double bus_utilization(sim::TimePs elapsed_ps) const;

  /// Current queue occupancies (diagnostics).
  [[nodiscard]] std::size_t read_queue_size() const { return q_.size(false); }
  [[nodiscard]] std::size_t write_queue_size() const { return q_.size(true); }
  /// Write-drain mode as of the last scheduling decision.
  [[nodiscard]] bool draining_writes() const { return draining_writes_; }

  /// Attaches the Chrome-trace sink (nullptr detaches). Each CAS data
  /// burst becomes a duration event ("rd"/"wr") and the queue occupancies
  /// counter series on a track named \p track_name.
  void set_trace(telemetry::TraceWriter* writer, const std::string& track_name);

  /// Wires the interference-attribution engine (nullptr disables; the
  /// default). When enabled, every controller cycle classifies why each
  /// visible queued line could not issue its CAS (bank conflict, bus
  /// turnaround / write-drain batching, refresh, scheduling) and charges
  /// the slice to the master occupying that resource. Cycles skipped while
  /// asleep are charged in one slice on wake-up (nothing the
  /// classification reads changed on them); the controller also wakes on
  /// the last edge of each attribution window and the first after it, so
  /// every slice lands in the window per-cycle charging would have used.
  void set_attribution(telemetry::AttributionEngine* engine);

  /// Fault seam: divides tREFI by \p divisor (>= 1), modelling a refresh
  /// storm (e.g. high-temperature 2x/4x refresh or a misbehaving
  /// controller). 1 restores the nominal schedule. Takes effect at the
  /// next refresh decision; an overdue refresh fires immediately. Wakes
  /// the controller at the new deadline when requests are queued.
  void set_refresh_interval_divisor(std::uint32_t divisor);
  [[nodiscard]] std::uint32_t refresh_interval_divisor() const {
    return refresh_divisor_;
  }

  // SlaveIf
  [[nodiscard]] bool can_accept(const axi::LineRequest& line,
                                sim::TimePs now) const override;
  void accept(axi::LineRequest line, sim::TimePs now) override;

  // Clocked
  bool tick(sim::Cycles cycle) override;

 private:
  using Cycle = Bank::Cycle;

  using Slot = RequestQueue::Slot;
  static constexpr Slot kNoSlot = RequestQueue::kNoSlot;
  static constexpr Cycle kNever = ~Cycle{0};
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  /// Cached view of one (bank, direction) FIFO of q_: its oldest entry and
  /// its oldest entry hitting the bank's open row, with their sequence
  /// numbers and first visible edges (kNoSlot / kNoSeq / kNever when
  /// absent). Lines turn visible in arrival order, so a head or hit that
  /// is not visible yet stands for every entry behind it.
  struct Lane {
    Slot head = kNoSlot;
    Slot hit = kNoSlot;
    std::uint64_t head_seq = kNoSeq;
    std::uint64_t hit_seq = kNoSeq;
    Cycle head_vis = kNever;
    Cycle hit_vis = kNever;
  };

  /// One FR-FCFS pass over the banks at cycle c, assuming nothing else
  /// changes: the first cycle a CAS (a PRE/ACT) becomes legal and the
  /// entry that would take it then. A command issues on c when it is
  /// legal on c, a CAS before a PRE/ACT.
  struct Scan {
    Cycle cas_at = kNever;
    Slot cas = kNoSlot;
    Cycle prep_at = kNever;
    Slot prep = kNoSlot;    ///< entry whose bank takes the PRE/ACT
    Slot oldest = kNoSlot;  ///< oldest visible entry of a served direction
    bool starving = false;  ///< ... and it has waited too long
  };

  void do_refresh(Cycle c);
  void note_act(Cycle c, std::uint32_t group);
  /// Earliest CAS issue cycle for direction \p write given bus state.
  [[nodiscard]] Cycle dir_cas_ready(bool write) const;
  /// Drain mode the hysteresis yields for the current write occupancy.
  [[nodiscard]] bool next_drain(bool draining) const;
  /// Which directions the scan serves at cycle \p c.
  void serve_dirs(bool draining, Cycle c, bool& reads, bool& writes) const;
  /// Rebuilds bank \p b's lanes (after its row or its queues changed).
  void refresh_lanes(std::uint32_t b);
  /// The FR-FCFS pass at cycle \p c for the given served directions.
  [[nodiscard]] Scan scan(Cycle c, bool serve_reads, bool serve_writes) const;
  /// Issues the CAS: updates bank/bus state, schedules completion.
  /// \param auto_precharge close the row right after (closed-page policy).
  void issue_cas(QueueEntry entry, Cycle c, bool auto_precharge);
  /// Issues the PRE or ACT the queued entry \p first needs.
  void issue_prep(Slot first, Cycle c);
  /// One scheduling cycle (refresh / CAS / prep); true when it issued a
  /// refresh or a CAS. Reports the scan-direction decision through
  /// \p serve_reads / \p serve_writes so the attribution pass can classify
  /// drain exclusion.
  bool schedule(Cycle c, sim::TimePs now, bool& serve_reads,
                bool& serve_writes);
  /// Computes the next cycle from \p n on that needs a tick; returns true
  /// when that is \p n itself, otherwise wakes the controller there.
  /// Pre: requests are queued.
  bool plan(Cycle n);
  /// Blame pass over every visible waiting queue entry, as of cycle \p c.
  void attribution_pass(Cycle c, sim::TimePs now, bool serve_reads,
                        bool serve_writes);

  ControllerConfig cfg_;
  AddressMapper mapper_;
  axi::ResponseSink* sink_;
  std::uint32_t prof_tag_done_ = 0;  ///< host-profiler tag, dram.line_done
  std::vector<Bank> banks_;
  RequestQueue q_;
  std::uint64_t arrival_seq_ = 0;
  bool draining_writes_ = false;
  std::vector<Lane> lanes_;  ///< [2 * bank + write]
  /// Visible edges of queued lines not yet seen visible, arrival order.
  std::deque<Cycle> arrivals_;

  // Sleep bookkeeping. awake_ mirrors a controller ticking on every cycle:
  // it keeps ticking while requests are queued, and for one more edge
  // after a CAS or refresh.
  Cycle last_tick_ = 0;
  bool awake_ = false;
  /// Serve decision holding from the edge after the last tick until the
  /// next one (charged to skipped cycles; compared by accept()).
  std::array<bool, 2> held_serve_{true, true};
  /// The plan's scan, valid for the tick on planned_ (kNever: none) while
  /// that tick still serves held_serve_ and every line accepted since is
  /// still invisible then.
  Cycle planned_ = kNever;
  Scan plan_scan_;

  // Global channel state (absolute controller cycles).
  Cycle next_act_any_ = 0;                 ///< tRRD_S
  std::vector<Cycle> next_act_group_;      ///< tRRD_L, per bank group
  std::deque<Cycle> act_history_;          ///< tFAW window
  Cycle next_cas_any_ = 0;                 ///< tCCD_S
  std::vector<Cycle> next_cas_group_;      ///< tCCD_L, per bank group
  Cycle next_read_cas_ = 0;
  Cycle next_write_cas_ = 0;
  Cycle data_bus_free_ = 0;
  Cycle next_refresh_ = 0;
  std::uint32_t refresh_divisor_ = 1;  ///< fault seam: tREFI / divisor

  ControllerStats stats_;
  std::vector<std::uint64_t> master_bytes_;
  // Per-(master, bank) accounting, flattened [m * banks + bank]; grown on
  // demand as new master ids appear.
  std::vector<std::uint64_t> bank_bytes_;
  std::vector<std::uint64_t> bank_cas_;

  telemetry::TraceWriter* trace_ = nullptr;
  telemetry::TrackId track_;

  // Interference attribution (all state dormant while attr_ == nullptr).
  telemetry::AttributionEngine* attr_ = nullptr;
  std::vector<axi::MasterId> bank_owner_;  ///< master of each bank's last ACT
  axi::MasterId bus_owner_ = telemetry::kNoOwner;  ///< last CAS issuer
  /// Masters whose CAS pushed the opposite direction's turnaround window.
  axi::MasterId read_block_owner_ = telemetry::kNoOwner;   ///< last writer
  axi::MasterId write_block_owner_ = telemetry::kNoOwner;  ///< last reader
  Cycle refresh_busy_until_ = 0;  ///< tRFC window of the last refresh
};

}  // namespace fgqos::dram

/// \file interconnect.hpp
/// \brief Crossbar connecting master ports to the memory controller.
///
/// Each cycle of its clock domain the interconnect arbitrates among master
/// ports with grantable lines and forwards up to issue_width lines to the
/// downstream slave (the DRAM controller). It also implements the response
/// path: when the controller reports the last line of a burst done, the
/// interconnect delivers the completion to the issuing port after that
/// port's response latency.
///
/// The crossbar sleeps while no waiting head can be granted. It wakes at
/// the earliest MasterPort::next_grant_at() of the heads that are
/// invisible or held by their port's rate limit (ports announce it too),
/// and on the slave's space-freed wake (SlaveIf::notify_space) for heads
/// the slave refuses. In-flight transactions keep nothing awake. Heads
/// held by a QoS gate are still polled every cycle: gates reopen on events
/// that announce nothing to the crossbar. See docs/INTERNALS.md §2.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "axi/arbiter.hpp"
#include "axi/port.hpp"
#include "axi/transaction.hpp"
#include "sim/pool.hpp"
#include "sim/simulator.hpp"

namespace fgqos::axi {

/// Downstream request consumer (implemented by dram::Controller).
class SlaveIf {
 public:
  virtual ~SlaveIf() = default;
  /// May a line be enqueued this cycle? Must be side-effect free.
  [[nodiscard]] virtual bool can_accept(const LineRequest& line,
                                        sim::TimePs now) const = 0;
  /// Enqueues the line. Pre: can_accept() returned true this cycle.
  virtual void accept(LineRequest line, sim::TimePs now) = 0;
  /// Registers the component to wake when a line this slave refused may
  /// now be accepted (a queue slot or a credit freed). Decorators forward
  /// it to the slaves they wrap. Interconnect::set_slave() registers the
  /// crossbar.
  virtual void set_space_waker(sim::Clocked* upstream) {
    space_waker_ = upstream;
  }

 protected:
  /// Wakes the registered component at its first edge at or after \p at.
  /// A slave that frees space inside its own tick at time t passes t + 1:
  /// the crossbar ticks first at equal timestamps and sees it one edge
  /// later.
  void notify_space(sim::TimePs at) const {
    if (space_waker_ != nullptr) {
      space_waker_->wake_at(at);
    }
  }

 private:
  sim::Clocked* space_waker_ = nullptr;
};

/// At what granularity the crossbar switches between masters.
enum class ArbGranularity : std::uint8_t {
  /// Re-arbitrate every line: fine interleaving (ideal crossbar).
  kLine,
  /// Stick with a master until its whole burst has been forwarded; while
  /// the burst is head-of-line blocked at the slave, other masters wait
  /// (store-and-forward bridge behaviour — long DMA bursts then delay the
  /// CPU considerably more, an interference amplifier real fabrics show).
  kTransaction,
};

/// Interconnect configuration.
struct InterconnectConfig {
  std::string name = "xbar";
  /// Lines forwarded per interconnect cycle (crossbar issue width).
  std::size_t issue_width = 2;
  ArbGranularity granularity = ArbGranularity::kLine;
};

/// The crossbar. Owns its master ports; the slave is wired externally.
class Interconnect final : public sim::Clocked, public ResponseSink {
 public:
  Interconnect(sim::Simulator& sim, const sim::ClockDomain& clk,
               InterconnectConfig cfg);

  /// Creates a new master port. Must be called before the simulation runs.
  MasterPort& add_master(MasterPortConfig cfg);

  /// Wires the downstream slave (exactly one; required before running)
  /// and registers the crossbar for its space-freed wakes.
  void set_slave(SlaveIf& slave);

  /// Replaces the arbitration policy (default: round robin).
  void set_arbiter(std::unique_ptr<Arbiter> arb);

  /// Wires the interference-attribution engine into the crossbar and all
  /// its ports (nullptr disables; the default). When enabled, every
  /// crossbar cycle classifies why each waiting head could not be granted
  /// and charges the elapsed slice to the responsible master; cycles
  /// skipped while asleep are charged in one slice on wake-up.
  void set_attribution(telemetry::AttributionEngine* engine);

  /// Fault seam on the response path: consulted once per finished line in
  /// line_done(); a non-kOkay verdict corrupts that line's response and
  /// the transaction carries the worst per-line response back to the
  /// master. Empty function (the default) means a perfect memory path.
  using ResponseFaultFn = std::function<Resp(const LineRequest&, sim::TimePs)>;
  void set_response_fault(ResponseFaultFn fn) {
    response_fault_ = std::move(fn);
  }

  [[nodiscard]] std::size_t master_count() const { return ports_.size(); }
  [[nodiscard]] MasterPort& master(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] const MasterPort& master(std::size_t i) const {
    return *ports_.at(i);
  }
  [[nodiscard]] const InterconnectConfig& config() const { return cfg_; }

  /// Total bytes granted across all ports.
  [[nodiscard]] std::uint64_t total_bytes_granted() const;

  // --- internal wiring ----------------------------------------------------

  /// Called by ports with the time their head line may next be granted;
  /// wakes the crossbar there.
  void notify_work(sim::TimePs ready_at);

  /// Next transaction id (unique per interconnect).
  TxnId next_txn_id() { return ++txn_seq_; }

  /// Arena for in-flight transactions: ports create() on issue and
  /// destroy() on completion, so the per-burst hot path never touches the
  /// global allocator.
  [[nodiscard]] sim::ObjectPool<Transaction>& txn_pool() { return txn_pool_; }

  bool tick(sim::Cycles cycle) override;
  void line_done(const LineRequest& line, sim::TimePs now) override;

 private:
  /// Per-cycle blame pass: charges every port whose head waited this
  /// cycle. \p first_granted is the first master granted this tick (-1
  /// when none) — the one that actually beat the waiters to the fabric.
  void attribution_pass(sim::TimePs now, int first_granted);
  /// Fills polls_/eligible_ for every port at \p now; true when any port
  /// is eligible for a grant.
  bool poll_ports(sim::TimePs now);
  /// After the grants of the tick at \p now, from the last poll_ports():
  /// true when the next edge needs a tick. Otherwise wakes the crossbar at
  /// the earliest time a head may turn grantable; with attribution on,
  /// also on the last edge of the current window and the first after it.
  bool keep_ticking(sim::TimePs now);

  InterconnectConfig cfg_;
  std::vector<std::unique_ptr<MasterPort>> ports_;
  std::unique_ptr<Arbiter> arbiter_;
  sim::ObjectPool<Transaction> txn_pool_;
  std::uint32_t prof_tag_deliver_ = 0;  ///< host-profiler tag, axi.deliver
  SlaveIf* slave_ = nullptr;
  TxnId txn_seq_ = 0;
  sim::Cycles last_tick_ = 0;   ///< edge of the previous tick
  /// poll_ports() result for one master.
  struct PortPoll {
    MasterPort::BlockReason reason = MasterPort::BlockReason::kEmpty;
    bool accepts = false;  ///< the slave would take the head line
  };
  std::vector<PortPoll> polls_;
  std::vector<bool> eligible_;  ///< grantable and accepted by the slave
  int locked_master_ = -1;      ///< kTransaction: burst in progress
  telemetry::AttributionEngine* attr_ = nullptr;
  ResponseFaultFn response_fault_;
  /// Master whose line most recently entered the slave; the default blame
  /// target when a grantable head stalls with no grant this cycle.
  MasterId last_accepted_master_ = telemetry::kNoOwner;
};

}  // namespace fgqos::axi

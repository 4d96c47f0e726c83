#include "dram/controller.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::dram {

void ControllerConfig::validate() const {
  timing.validate();
  config_check(read_queue_depth > 0 && write_queue_depth > 0,
               "ControllerConfig: queue depths must be > 0");
  config_check(write_high_watermark <= write_queue_depth,
               "ControllerConfig: high watermark exceeds queue depth");
  config_check(write_low_watermark < write_high_watermark,
               "ControllerConfig: watermarks must satisfy low < high");
  config_check(starvation_cycles > 0,
               "ControllerConfig: starvation_cycles must be > 0");
}

Controller::Controller(sim::Simulator& sim, const sim::ClockDomain& clk,
                       ControllerConfig cfg, axi::ResponseSink& sink)
    : sim::Clocked(sim, clk, "dram"),
      cfg_(std::move(cfg)),
      mapper_(cfg_.timing, cfg_.mapping, cfg_.strict_addressing),
      sink_(&sink),
      banks_(cfg_.timing.banks),
      q_(cfg_.read_queue_depth, cfg_.write_queue_depth, cfg_.timing.banks),
      lanes_(2 * std::size_t{cfg_.timing.banks}) {
  cfg_.validate();
  next_act_group_.assign(cfg_.timing.bank_groups, 0);
  next_cas_group_.assign(cfg_.timing.bank_groups, 0);
  config_check(clk.period_ps() == cfg_.timing.period_ps(),
               "Controller: clock domain does not match timing.clock_mhz");
  next_refresh_ = cfg_.timing.tREFI;
  prof_tag_done_ = sim.profile_tag("dram.line_done");
}

std::uint64_t Controller::master_bytes(axi::MasterId m) const {
  if (m >= master_bytes_.size()) {
    return 0;
  }
  return master_bytes_[m];
}

std::uint64_t Controller::bank_bytes(axi::MasterId m,
                                     std::uint32_t bank) const {
  const std::size_t idx =
      static_cast<std::size_t>(m) * cfg_.timing.banks + bank;
  return idx < bank_bytes_.size() ? bank_bytes_[idx] : 0;
}

std::uint64_t Controller::bank_cas(axi::MasterId m, std::uint32_t bank) const {
  const std::size_t idx =
      static_cast<std::size_t>(m) * cfg_.timing.banks + bank;
  return idx < bank_cas_.size() ? bank_cas_[idx] : 0;
}

double Controller::bus_utilization(sim::TimePs elapsed_ps) const {
  if (elapsed_ps == 0) {
    return 0.0;
  }
  const double busy_ps =
      static_cast<double>(stats_.data_bus_busy_cycles.value()) *
      static_cast<double>(cfg_.timing.period_ps());
  return busy_ps / static_cast<double>(elapsed_ps);
}

bool Controller::can_accept(const axi::LineRequest& line,
                            sim::TimePs /*now*/) const {
  return !q_.full(line.is_write);
}

void Controller::set_trace(telemetry::TraceWriter* writer,
                           const std::string& track_name) {
  trace_ = writer;
  track_ = telemetry::TrackId{};
  if (trace_ != nullptr) {
    track_ = trace_->track(telemetry::Cat::kDram, track_name);
    if (!track_.valid()) {
      trace_ = nullptr;  // dram category filtered out
    }
  }
}

void Controller::accept(axi::LineRequest line, sim::TimePs now) {
  FGQOS_ASSERT(line.bytes <= cfg_.timing.burst_bytes,
               "Controller: line larger than one burst");
  if (line.txn != nullptr && line.txn->dram_enqueued == 0) {
    line.txn->dram_enqueued = now;
  }
  QueueEntry e;
  e.where = mapper_.decode(line.addr);
  e.visible_at = now + cfg_.frontend_latency_ps;
  e.visible_edge = clock().edge_index_at_or_after(e.visible_at);
  e.visible_cycle = e.visible_at / clock().period_ps();
  e.seq = ++arrival_seq_;
  e.line = line;
  if (attr_ != nullptr) {
    // The line's queueing wait starts once the front-end pipeline makes it
    // schedulable; charged by attribution_pass(), closed at CAS issue.
    attr_->begin_wait(e.wait, e.visible_at);
  }
  const sim::TimePs visible_at = e.visible_at;
  const Cycle visible_edge = e.visible_edge;
  FGQOS_ASSERT(arrivals_.empty() || arrivals_.back() <= visible_edge,
               "Controller: accept() times went backwards");
  // The first edge whose scheduling pass sees this line in the occupancy.
  const Cycle seen =
      std::max(clock().edge_index_at_or_after(now), last_tick_ + 1);
  if (awake_ && last_tick_ + 1 < seen) {
    // A per-cycle controller ran the drain hysteresis on an edge after the
    // last tick, before this line arrived; replay that pass.
    draining_writes_ = next_drain(draining_writes_);
  }
  const std::uint32_t bank = e.where.bank;
  q_.push(std::move(e));
  refresh_lanes(bank);
  if (visible_edge <= planned_) {
    planned_ = kNever;  // the planned scan would miss this line
  }
  arrivals_.push_back(visible_edge);
  if (awake_) {
    // The occupancy feeds the drain/serve decision immediately; the line
    // itself is invisible until visible_at.
    bool reads = true;
    bool writes = true;
    serve_dirs(next_drain(draining_writes_), seen, reads, writes);
    if (reads != held_serve_[0] || writes != held_serve_[1]) {
      wake_at(now);
      return;
    }
  }
  wake_at(visible_at);
}

void Controller::do_refresh(Cycle c) {
  const Cycle ready = c + cfg_.timing.tRFC;
  for (auto& b : banks_) {
    b.refresh_block(ready);
  }
  for (std::uint32_t b = 0; b < banks_.size(); ++b) {
    refresh_lanes(b);
  }
  if (attr_ != nullptr) {
    refresh_busy_until_ = ready;
  }
  stats_.refreshes.add();
  // Catch up the schedule (idle periods may have skipped several tREFI
  // intervals; those refreshes happened while no requests were pending and
  // carry no modelled cost).
  const Cycle interval =
      std::max<Cycle>(1, cfg_.timing.tREFI / refresh_divisor_);
  while (next_refresh_ <= c) {
    next_refresh_ += interval;
  }
}

void Controller::set_refresh_interval_divisor(std::uint32_t divisor) {
  refresh_divisor_ = std::max<std::uint32_t>(1, divisor);
  // A shortened interval must take effect now, not after the previously
  // scheduled (nominal-length) gap elapses.
  const Cycle interval =
      std::max<Cycle>(1, cfg_.timing.tREFI / refresh_divisor_);
  const Cycle c = clock().edge_index_at_or_after(simulator().now());
  next_refresh_ = std::min(next_refresh_, c + interval);
  planned_ = kNever;
  if (awake_) {
    wake_at(clock().edge_time(next_refresh_));
  }
}

void Controller::note_act(Cycle c, std::uint32_t group) {
  next_act_any_ = c + cfg_.timing.tRRD_S;
  next_act_group_[group] =
      std::max(next_act_group_[group], c + cfg_.timing.tRRD_L);
  act_history_.push_back(c);
  while (act_history_.size() > 4) {
    act_history_.pop_front();
  }
}

Controller::Cycle Controller::dir_cas_ready(bool write) const {
  return write ? next_write_cas_ : next_read_cas_;
}

void Controller::issue_cas(QueueEntry entry, Cycle c, bool auto_precharge) {
  const TimingConfig& t = cfg_.timing;
  const bool is_write = entry.line.is_write;
  Bank& b = banks_[entry.where.bank];
  const std::uint32_t group = t.group_of(entry.where.bank);
  const Cycle data_start = c + (is_write ? t.tCWL : t.tCL);
  const Cycle data_end = data_start + t.burst_cycles();
  data_bus_free_ = data_end;
  stats_.data_bus_busy_cycles.add(t.burst_cycles());
  next_cas_any_ = std::max(next_cas_any_, c + t.tCCD_S);
  next_cas_group_[group] =
      std::max(next_cas_group_[group], c + t.tCCD_L);
  if (is_write) {
    b.write_cas(data_end, t.tWR);
    // Write -> read turnaround.
    next_read_cas_ = std::max(next_read_cas_, data_end + t.tWTR);
    stats_.writes_serviced.add();
  } else {
    b.read_cas(c, t.tRTP);
    // Read -> write turnaround: the write CAS must not start its burst
    // before the read burst has left the bus plus tRTW.
    const Cycle wr_earliest = data_end + t.tRTW;
    next_write_cas_ = std::max(
        next_write_cas_, wr_earliest > t.tCWL ? wr_earliest - t.tCWL : 0);
    stats_.reads_serviced.add();
  }
  if (auto_precharge) {
    // CAS-with-AP: the row closes by itself once tRTP/tWR allows; model
    // as a precharge effective at the bank's earliest legal PRE cycle.
    b.precharge(b.pre_ready(), t.tRP);
  }
  refresh_lanes(entry.where.bank);
  stats_.payload_bytes.add(entry.line.bytes);
  stats_.bus_bytes.add(t.burst_bytes);
  const axi::MasterId m = entry.line.txn->master;
  if (m >= master_bytes_.size()) {
    master_bytes_.resize(m + 1, 0);
  }
  master_bytes_[m] += entry.line.bytes;
  const std::size_t bank_idx =
      static_cast<std::size_t>(m) * t.banks + entry.where.bank;
  if (bank_idx >= bank_bytes_.size()) {
    bank_bytes_.resize(bank_idx + 1, 0);
    bank_cas_.resize(bank_idx + 1, 0);
  }
  bank_bytes_[bank_idx] += entry.line.bytes;
  bank_cas_[bank_idx] += 1;
  if (attr_ != nullptr) {
    if (entry.wait.open) {
      const sim::TimePs now_ps = simulator().now();
      attr_->end_wait(entry.wait, m, entry.line.bytes, now_ps,
                      entry.line.txn);
      entry.line.txn->attr_measured_ps += now_ps - entry.visible_at;
    }
    // This CAS now occupies the shared resources: remember who to blame
    // for the bus, and for the direction-turnaround window it just pushed.
    bus_owner_ = m;
    if (is_write) {
      read_block_owner_ = m;  // tWTR holds reads back
    } else {
      write_block_owner_ = m;  // tRTW holds writes back
    }
  }

  const sim::TimePs data_start_ps = data_start * clock().period_ps();
  const sim::TimePs done_ps = data_end * clock().period_ps();
  if (axi::Transaction* txn = entry.line.txn; txn != nullptr) {
    if (txn->dram_service_start == 0) {
      txn->dram_service_start = data_start_ps;
    }
    if (done_ps > txn->dram_service_end) {
      txn->dram_service_end = done_ps;
    }
  }
  if (trace_ != nullptr) {
    trace_->complete(track_, is_write ? "wr" : "rd", data_start_ps,
                     done_ps - data_start_ps);
    const sim::TimePs now = simulator().now();
    trace_->counter(track_, "read_q", now,
                    static_cast<double>(q_.size(false)));
    trace_->counter(track_, "write_q", now,
                    static_cast<double>(q_.size(true)));
  }
  axi::ResponseSink* sink = sink_;
  const axi::LineRequest line = entry.line;
  simulator().schedule_at(
      done_ps, [sink, line, done_ps]() { sink->line_done(line, done_ps); },
      prof_tag_done_);
}

bool Controller::next_drain(bool draining) const {
  const std::size_t writes = q_.size(true);
  if (writes >= cfg_.write_high_watermark) {
    return true;
  }
  if (writes <= cfg_.write_low_watermark) {
    return false;
  }
  return draining;
}

void Controller::serve_dirs(bool draining, Cycle c, bool& reads,
                            bool& writes) const {
  writes = draining || q_.size(false) == 0;
  reads = !draining || q_.size(true) == 0;
  // Aging in both directions bounds worst-case service:
  //  * a sustained write flood can hold the drain above the low watermark
  //    forever — aged reads re-enter the scan;
  //  * a sustained read stream can keep the write queue just below the
  //    high watermark forever (and deadlock masters waiting on write
  //    completions) — aged writes re-enter the scan.
  const auto front_aged = [&](bool write) {
    const std::vector<Slot>& d = q_.dir(write);
    if (d.empty()) {
      return false;
    }
    const QueueEntry& front = q_.at(d.front());
    return front.visible_edge <= c &&
           c >= front.visible_cycle + cfg_.starvation_cycles;
  };
  reads = reads || front_aged(false);
  writes = writes || front_aged(true);
}

void Controller::refresh_lanes(std::uint32_t b) {
  const Bank& bank = banks_[b];
  for (const bool write : {false, true}) {
    Lane& l = lanes_[2 * std::size_t{b} + write];
    l = Lane{};
    const std::vector<Slot>& fifo = q_.bank(b, write);
    if (fifo.empty()) {
      continue;
    }
    const QueueEntry& head = q_.at(fifo.front());
    l.head = fifo.front();
    l.head_seq = head.seq;
    l.head_vis = head.visible_edge;
    if (!bank.row_open()) {
      continue;
    }
    for (const Slot s : fifo) {
      const QueueEntry& e = q_.at(s);
      if (bank.row_hit(e.where.row)) {
        l.hit = s;
        l.hit_seq = e.seq;
        l.hit_vis = e.visible_edge;
        break;
      }
    }
  }
}

Controller::Scan Controller::scan(Cycle c, bool serve_reads,
                                  bool serve_writes) const {
  const TimingConfig& tm = cfg_.timing;
  const std::array<bool, 2> served{serve_reads, serve_writes};
  Scan out;
  // The oldest visible request of a served direction is the front of its
  // direction's FIFO.
  std::uint64_t oldest_seq = kNoSeq;
  for (const bool write : {false, true}) {
    const std::vector<Slot>& d = q_.dir(write);
    if (served[write] && !d.empty()) {
      const QueueEntry& e = q_.at(d.front());
      if (e.visible_edge <= c && e.seq < oldest_seq) {
        out.oldest = d.front();
        oldest_seq = e.seq;
      }
    }
  }
  // Starvation guard: when the oldest visible request has waited too long,
  // suspend row-hit bypassing on its bank (other banks keep full FR-FCFS
  // parallelism, so throughput is preserved while the oldest request's
  // service is bounded). While starving, CAS in the opposite bus
  // direction is also held back — otherwise a continuous same-direction
  // stream pushes the turnaround window (next_read/write_cas) forward
  // forever and the starving request never becomes issuable (write
  // livelock).
  int starving_bank = -1;
  bool oldest_write = false;
  if (out.oldest != kNoSlot) {
    const QueueEntry& o = q_.at(out.oldest);
    out.starving =
        c - std::min(c, o.visible_cycle) > cfg_.starvation_cycles;
    if (out.starving) {
      starving_bank = static_cast<int>(o.where.bank);
      oldest_write = o.line.is_write;
    }
  }
  // Channel-wide parts of the CAS and ACT windows.
  std::array<Cycle, 2> cas_dir{};
  for (const bool write : {false, true}) {
    const Cycle latency = write ? tm.tCWL : tm.tCL;
    const Cycle bus = data_bus_free_ > latency ? data_bus_free_ - latency : 0;
    cas_dir[write] = std::max({dir_cas_ready(write), next_cas_any_, bus});
  }
  Cycle act_any = next_act_any_;
  if (act_history_.size() >= 4) {
    act_any = std::max<Cycle>(act_any, act_history_.front() + tm.tFAW);
  }

  // Each candidate is legal from max(ready, c); keep, per command class,
  // the earliest legal cycle and its oldest candidate.
  std::uint64_t cas_seq = kNoSeq;
  std::uint64_t prep_seq = kNoSeq;
  const auto earlier = [](Cycle at, std::uint64_t seq, Cycle best_at,
                          std::uint64_t best_seq) {
    return at < best_at || (at == best_at && seq < best_seq);
  };
  std::uint32_t group = 0;  // tm.group_of(b), without a division per bank
  for (std::uint32_t b = 0; b < banks_.size();
       ++b, group = group + 1 == tm.bank_groups ? 0 : group + 1) {
    const Lane& lr = lanes_[2 * std::size_t{b}];
    const Lane& lw = lanes_[2 * std::size_t{b} + 1];
    // Visible served heads; the bank's oldest one is its prep candidate.
    const bool head_r = serve_reads && lr.head_vis <= c;
    const bool head_w = serve_writes && lw.head_vis <= c;
    if (!head_r && !head_w) {
      continue;
    }
    const bool w_first = head_w && (!head_r || lw.head_seq < lr.head_seq);
    const Lane& first = w_first ? lw : lr;
    // Visible row hits (either queue, regardless of drain mode) protect a
    // warm row from being precharged moments before they issue.
    const bool hit_r = lr.hit_vis <= c;
    const bool hit_w = lw.hit_vis <= c;
    const bool starving_here = static_cast<int>(b) == starving_bank;

    // First-ready CAS: within one (bank, direction) every hit shares the
    // timing windows, so only the oldest can be the pick. On the starving
    // bank only the starving entry itself may issue.
    const Bank& bank = banks_[b];
    const Cycle cas_bank =
        std::max({bank.cas_ready(), next_cas_group_[group], c});
    const bool cas_r =
        head_r && hit_r &&
        (!out.starving ||
         (!oldest_write && (!starving_here || lr.hit == out.oldest)));
    const bool cas_w =
        head_w && hit_w &&
        (!out.starving ||
         (oldest_write && (!starving_here || lw.hit == out.oldest)));
    const Cycle at_r = cas_r ? std::max(cas_bank, cas_dir[0]) : kNever;
    const Cycle at_w = cas_w ? std::max(cas_bank, cas_dir[1]) : kNever;
    const bool pick_w = earlier(at_w, lw.hit_seq, at_r, lr.hit_seq);
    const Cycle at_cas = pick_w ? at_w : at_r;
    const std::uint64_t seq_cas = pick_w ? lw.hit_seq : lr.hit_seq;
    if (earlier(at_cas, seq_cas, out.cas_at, cas_seq)) {
      out.cas_at = at_cas;
      cas_seq = seq_cas;
      out.cas = pick_w ? lw.hit : lr.hit;
    }

    // Prep (PRE or ACT) for the bank's oldest served entry. A row hit
    // waits on CAS timing; first-ready FR-FCFS keeps the open row alive
    // while visible row hits remain — unless this bank's oldest request
    // is starving.
    const Cycle act =
        std::max({bank.act_ready(), act_any, next_act_group_[group], c});
    const bool pre_ok = first.hit != first.head &&
                        !((hit_r || hit_w) && !starving_here);
    const Cycle at_prep = !bank.row_open()
                              ? act
                              : (pre_ok ? std::max(bank.pre_ready(), c)
                                        : kNever);
    if (earlier(at_prep, first.head_seq, out.prep_at, prep_seq)) {
      out.prep_at = at_prep;
      prep_seq = first.head_seq;
      out.prep = first.head;
    }
  }
  return out;
}

void Controller::issue_prep(Slot first, Cycle c) {
  const QueueEntry& e = q_.at(first);
  const std::uint32_t b = e.where.bank;
  Bank& bank = banks_[b];
  if (bank.row_open()) {
    bank.precharge(c, cfg_.timing.tRP);
    stats_.conflict_precharges.add();
  } else {
    bank.activate(e.where.row, c, cfg_.timing.tRCD, cfg_.timing.tRAS,
                  cfg_.timing.tRC);
    note_act(c, cfg_.timing.group_of(b));
    if (attr_ != nullptr) {
      bank_owner_[b] = e.line.txn->master;
    }
    stats_.activations.add();
  }
  refresh_lanes(b);
}

bool Controller::tick(sim::Cycles cycle) {
  const sim::TimePs now = simulator().now();
  const Cycle c = cycle;
  if (attr_ != nullptr && awake_ && c > last_tick_ + 1) {
    // Nothing the blame classification reads changed on the skipped
    // edges: charge them in one slice, as the last of them saw it.
    attribution_pass(c - 1, clock().edge_time(c - 1), held_serve_[0],
                     held_serve_[1]);
  }
  last_tick_ = c;
  // Scheduling proper lives in schedule(); splitting it out gives the
  // attribution pass a single point that runs on every tick, including the
  // refresh and CAS-issued early exits.
  bool serve_reads = true;
  bool serve_writes = true;
  const bool acted = schedule(c, now, serve_reads, serve_writes);
  if (attr_ != nullptr) {
    attribution_pass(c, now, serve_reads, serve_writes);
  }
  // A per-cycle controller also ticks the edge after a CAS or refresh with
  // empty queues: that edge may refresh, and it re-runs the hysteresis.
  awake_ = acted || !q_.empty();
  return q_.empty() ? awake_ : plan(c + 1);
}

bool Controller::schedule(Cycle c, sim::TimePs now, bool& serve_reads,
                          bool& serve_writes) {
  if (c >= next_refresh_) {
    do_refresh(c);
    return true;  // refresh occupies the command bus this cycle
  }
  // Write-drain hysteresis.
  draining_writes_ = next_drain(draining_writes_);
  serve_dirs(draining_writes_, c, serve_reads, serve_writes);
  // The last plan already scanned this cycle unless an input changed since.
  const bool reuse = planned_ == c && held_serve_[0] == serve_reads &&
                     held_serve_[1] == serve_writes;
  planned_ = kNever;
  const Scan sc = reuse ? plan_scan_ : scan(c, serve_reads, serve_writes);

  // 1. First-ready CAS: the oldest row hit whose timings allow issue now.
  if (sc.cas_at == c) {
    // Closed-page: auto-precharge unless another visible, served hit wants
    // the row.
    bool other_hit = false;
    if (cfg_.page_policy == PagePolicy::kClosed) {
      const std::uint32_t b = q_.at(sc.cas).where.bank;
      for (const bool write : {false, true}) {
        if (!(write ? serve_writes : serve_reads)) {
          continue;
        }
        for (const Slot s : q_.bank(b, write)) {
          const QueueEntry& o = q_.at(s);
          other_hit = other_hit || (s != sc.cas && o.visible_edge <= c &&
                                    banks_[b].row_hit(o.where.row));
        }
      }
    }
    const bool auto_pre =
        cfg_.page_policy == PagePolicy::kClosed && !other_hit;
    const bool was_full = q_.full(q_.at(sc.cas).line.is_write);
    issue_cas(q_.remove(sc.cas), c, auto_pre);
    if (was_full) {
      // The crossbar ticks before this controller at equal timestamps, so
      // it sees the freed slot from its next edge on.
      notify_space(now + 1);
    }
    return true;
  }
  // 2. Otherwise one prep command (PRE or ACT): the bank whose oldest
  //    served entry is oldest among the banks that can take one now
  //    (bank-level parallelism warms several banks across cycles).
  if (sc.prep_at == c) {
    issue_prep(sc.prep, c);
  }
  return false;
}

bool Controller::plan(Cycle n) {
  serve_dirs(next_drain(draining_writes_), n, held_serve_[0],
             held_serve_[1]);
  const Scan sc = scan(n, held_serve_[0], held_serve_[1]);
  // The first cycle a decision input flips (x <= n: flipped already).
  Cycle flip = kNever;
  const auto input_at = [&](Cycle x) {
    if (x > n) {
      flip = std::min(flip, x);
    }
  };
  for (const bool write : {false, true}) {
    const std::vector<Slot>& d = q_.dir(write);
    if (!d.empty()) {
      const QueueEntry& front = q_.at(d.front());
      input_at(std::max(front.visible_edge,
                        front.visible_cycle + cfg_.starvation_cycles));
    }
  }
  if (sc.oldest != kNoSlot && !sc.starving) {
    input_at(q_.at(sc.oldest).visible_cycle + cfg_.starvation_cycles + 1);
  }
  while (!arrivals_.empty() && arrivals_.front() <= n) {
    arrivals_.pop_front();
  }
  if (!arrivals_.empty()) {
    input_at(arrivals_.front());
  }
  if (attr_ != nullptr) {
    // Blame-classification inputs, and the last edge of the current
    // attribution window and the first one after it: skipped cycles are
    // charged before another component rolls the window, and the roll
    // happens on the same edge as with per-cycle charging.
    input_at(refresh_busy_until_);
    input_at(next_read_cas_);
    input_at(next_write_cas_);
    if (q_.size(false) + q_.size(true) > arrivals_.size()) {
      const sim::TimePs w = attr_->window_ps();
      const Cycle last =
          (clock().edge_time(n - 1) + w - 1) / w * w / clock().period_ps();
      flip = std::min(flip, std::max(last, n));
    }
  }
  const Cycle command = std::min(sc.cas_at, sc.prep_at);
  const Cycle wake = std::min({command, next_refresh_, flip});
  if (wake == command && wake < next_refresh_ && wake < flip) {
    // Nothing the scan reads changes before its command: the tick there
    // reuses it unless accept() intervenes.
    planned_ = wake;
    plan_scan_ = sc;
  }
  if (wake <= n) {
    return true;
  }
  wake_at(clock().edge_time(wake));
  return false;
}

void Controller::attribution_pass(Cycle c, sim::TimePs now, bool serve_reads,
                                  bool serve_writes) {
  const bool refresh_busy = c < refresh_busy_until_;
  auto pass_queue = [&](bool served, bool is_write) {
    for (const Slot s : q_.dir(is_write)) {
      QueueEntry& e = q_.at(s);
      if (e.visible_at > now || !e.wait.open) {
        continue;
      }
      const axi::MasterId victim = e.line.txn->master;
      axi::MasterId aggressor;
      telemetry::Cause cause;
      if (refresh_busy) {
        // tRFC blocks every bank; nobody's traffic is at fault.
        aggressor = telemetry::kNoOwner;
        cause = telemetry::Cause::kDramRefresh;
      } else if (!served) {
        // Direction excluded from the scan: write-drain batching (or its
        // read mirror) is bus-turnaround amortisation — the opposite
        // direction owns the bus.
        aggressor = bus_owner_;
        cause = telemetry::Cause::kDramBusTurnaround;
      } else {
        const Bank& b = banks_[e.where.bank];
        if (!b.row_open() || !b.row_hit(e.where.row)) {
          // Row closed or holding someone else's row: PRE/ACT/tRCD
          // exposure, blamed on whoever activated the bank last.
          aggressor = bank_owner_[e.where.bank];
          cause = telemetry::Cause::kDramBankConflict;
        } else if (c < dir_cas_ready(is_write)) {
          // Row ready but the direction's CAS window is pushed out by an
          // opposite-direction burst (tWTR / tRTW).
          aggressor = is_write ? write_block_owner_ : read_block_owner_;
          cause = telemetry::Cause::kDramBusTurnaround;
        } else {
          // Schedulable but lost FR-FCFS / bus occupancy this cycle.
          aggressor = bus_owner_;
          cause = telemetry::Cause::kFabricArb;
        }
      }
      attr_->charge(e.wait, victim, aggressor, cause, now, e.line.txn,
                    e.where.bank);
    }
  };
  pass_queue(serve_reads, false);
  pass_queue(serve_writes, true);
}

void Controller::set_attribution(telemetry::AttributionEngine* engine) {
  attr_ = engine;
  bank_owner_.assign(banks_.size(), telemetry::kNoOwner);
  bus_owner_ = telemetry::kNoOwner;
  read_block_owner_ = telemetry::kNoOwner;
  write_block_owner_ = telemetry::kNoOwner;
  refresh_busy_until_ = 0;
}

}  // namespace fgqos::dram

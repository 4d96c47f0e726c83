#include "axi/interconnect.hpp"

#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::axi {

Interconnect::Interconnect(sim::Simulator& sim, const sim::ClockDomain& clk,
                           InterconnectConfig cfg)
    : sim::Clocked(sim, clk, cfg.name),
      cfg_(std::move(cfg)),
      arbiter_(std::make_unique<RoundRobinArbiter>()) {
  config_check(cfg_.issue_width > 0, "Interconnect: issue_width must be > 0");
  prof_tag_deliver_ = sim.profile_tag("axi.deliver");
}

MasterPort& Interconnect::add_master(MasterPortConfig cfg) {
  const auto id = static_cast<MasterId>(ports_.size());
  ports_.push_back(std::make_unique<MasterPort>(*this, id, std::move(cfg)));
  eligible_.resize(ports_.size());
  polls_.resize(ports_.size());
  return *ports_.back();
}

void Interconnect::set_arbiter(std::unique_ptr<Arbiter> arb) {
  FGQOS_ASSERT(arb != nullptr, "Interconnect: null arbiter");
  arbiter_ = std::move(arb);
}

std::uint64_t Interconnect::total_bytes_granted() const {
  std::uint64_t total = 0;
  for (const auto& p : ports_) {
    total += p->stats().bytes_granted.value();
  }
  return total;
}

void Interconnect::set_attribution(telemetry::AttributionEngine* engine) {
  attr_ = engine;
  last_accepted_master_ = telemetry::kNoOwner;
  for (const auto& p : ports_) {
    p->set_attribution(engine);
  }
}

void Interconnect::set_slave(SlaveIf& slave) {
  slave_ = &slave;
  slave.set_space_waker(this);
}

void Interconnect::notify_work(sim::TimePs ready_at) { wake_at(ready_at); }

bool Interconnect::tick(sim::Cycles cycle) {
  FGQOS_ASSERT(slave_ != nullptr, "Interconnect: slave not wired");
  const sim::TimePs now = simulator().now();
  if (attr_ != nullptr && cycle > last_tick_ + 1) {
    // No head changed state on the skipped edges (every change wakes the
    // crossbar): charge them in one slice, as the last of them saw it.
    attribution_pass(clock().edge_time(cycle - 1), -1);
  }
  last_tick_ = cycle;
  // Single exit: the grant loop only ever breaks (never returns) so the
  // end-of-tick attribution pass runs on every tick, including the
  // locked-burst stall paths.
  int first_granted = -1;
  bool hold = false;
  bool polled = false;  // polls_ describes the state after the grants
  for (std::size_t grant = 0; grant < cfg_.issue_width && !hold; ++grant) {
    int pick = -1;
    if (locked_master_ >= 0) {
      // kTransaction: the burst in progress keeps the crossbar.
      MasterPort& p = *ports_[static_cast<std::size_t>(locked_master_)];
      switch (p.grant_block_reason(now)) {
        case MasterPort::BlockReason::kNone:
          if (!slave_->can_accept(p.peek_line(now), now)) {
            // Head-of-line blocked at the slave: hold everyone.
            hold = true;
          } else {
            pick = locked_master_;
          }
          break;
        case MasterPort::BlockReason::kRateLimit:
          // Transient pace gap within the burst: keep the lock, stall.
          hold = true;
          break;
        case MasterPort::BlockReason::kGate:
        case MasterPort::BlockReason::kEmpty:
          // The port withdrew (QoS gate shut the handshake): release so
          // a throttled burst cannot stall unrelated masters.
          locked_master_ = -1;
          break;
      }
      if (hold) {
        break;
      }
    }
    if (pick < 0) {
      polled = true;
      if (!poll_ports(now)) {
        break;
      }
      pick = arbiter_->pick(eligible_, now);
      if (pick < 0) {
        break;
      }
    }
    polled = false;
    LineRequest line =
        ports_[static_cast<std::size_t>(pick)]->commit_grant(now);
    slave_->accept(line, now);
    if (attr_ != nullptr) {
      if (first_granted < 0) {
        first_granted = pick;
      }
      last_accepted_master_ = line.txn->master;
    }
    if (cfg_.granularity == ArbGranularity::kTransaction) {
      locked_master_ = line.last_of_txn ? -1 : pick;
    }
  }
  if (attr_ != nullptr) {
    attribution_pass(now, first_granted);
  }
  if (!polled) {
    poll_ports(now);
  }
  return keep_ticking(now);
}

bool Interconnect::poll_ports(sim::TimePs now) {
  bool any = false;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    MasterPort& p = *ports_[i];
    const MasterPort::BlockReason reason = p.grant_block_reason(now);
    // The slave must also have room for this specific line. A
    // rate-limited head is asked too: keep_ticking() needs the answer.
    const bool ask = reason == MasterPort::BlockReason::kNone ||
                     (reason == MasterPort::BlockReason::kRateLimit &&
                      attr_ == nullptr);
    const bool accepts = ask && slave_->can_accept(p.peek_line(now), now);
    polls_[i] = {reason, accepts};
    eligible_[i] = reason == MasterPort::BlockReason::kNone && accepts;
    any = any || eligible_[i];
  }
  return any;
}

bool Interconnect::keep_ticking(sim::TimePs now) {
  sim::TimePs next = sim::kTimeNever;
  bool waiting = false;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    MasterPort& p = *ports_[i];
    const PortPoll& poll = polls_[i];
    switch (poll.reason) {
      case MasterPort::BlockReason::kRateLimit:
        // While the slave refuses the head line, the port freeing up
        // changes nothing: the slave's space-freed wake decides. Blame
        // (self -> fabric_arb) and a held lock still see the port free.
        if (attr_ == nullptr && locked_master_ != static_cast<int>(i) &&
            !poll.accepts) {
          break;
        }
        [[fallthrough]];
      case MasterPort::BlockReason::kEmpty:
        // Ports announce this time too, but wake_at() absorbs an
        // announcement made while the crossbar was due earlier.
        next = std::min(next, p.next_grant_at());
        break;
      case MasterPort::BlockReason::kGate:
        // Gates reopen on events that announce nothing to the crossbar.
        return true;
      case MasterPort::BlockReason::kNone:
        if (poll.accepts) {
          return true;  // lost arbitration or issue width this cycle
        }
        // Slave backpressure: the slave wakes us when space frees. A gate
        // that shuts meanwhile would release a transaction lock or move
        // the head's blame to the port itself, so gated ports keep
        // polling where either matters.
        if (p.has_gates() &&
            (attr_ != nullptr || locked_master_ == static_cast<int>(i))) {
          return true;
        }
        break;
    }
    waiting = waiting || (p.attr_wait().open && p.attr_wait().last <= now);
  }
  if (next != sim::kTimeNever) {
    wake_at(next);
  }
  if (attr_ != nullptr && waiting) {
    // Last edge of the current attribution window, then the first after
    // it: skipped cycles are charged before another component rolls the
    // window, and the roll happens on the same edge as per-cycle charging.
    const sim::TimePs w = attr_->window_ps();
    const sim::TimePs last = (now + w - 1) / w * w / clock().period_ps() *
                             clock().period_ps();
    wake_at(last > now ? last : now + 1);
  }
  return false;
}

void Interconnect::attribution_pass(sim::TimePs now, int first_granted) {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    MasterPort& p = *ports_[i];
    telemetry::WaitState& w = p.attr_wait();
    if (!w.open || w.last > now) {
      continue;  // no head, or the head is not visible yet
    }
    const auto victim = static_cast<MasterId>(i);
    switch (p.grant_block_reason(now)) {
      case MasterPort::BlockReason::kEmpty:
        break;  // unreachable while the wait is open and started
      case MasterPort::BlockReason::kRateLimit:
      case MasterPort::BlockReason::kGate:
        // The port's own data-path pacing or its own QoS gate: self.
        attr_->charge(w, victim, victim, telemetry::Cause::kSelf, now,
                      p.attr_head(now));
        break;
      case MasterPort::BlockReason::kNone: {
        // Grantable but not granted: lost arbitration / issue width /
        // downstream backpressure. Blame whoever got the fabric instead.
        const MasterId aggressor =
            first_granted >= 0 ? static_cast<MasterId>(first_granted)
                               : last_accepted_master_;
        attr_->charge(w, victim, aggressor, telemetry::Cause::kFabricArb, now,
                      p.attr_head(now));
        break;
      }
    }
  }
}

void Interconnect::line_done(const LineRequest& line, sim::TimePs now) {
  Transaction* txn = line.txn;
  FGQOS_ASSERT(txn != nullptr && txn->lines_left > 0,
               "line_done: bad transaction state");
  if (response_fault_) {
    const Resp r = response_fault_(line, now);
    if (r > txn->resp) {
      txn->resp = r;
    }
  }
  --txn->lines_left;
  if (txn->lines_left > 0) {
    return;
  }
  MasterPort& port = *ports_.at(txn->master);
  const sim::TimePs deliver = now + port.config().response_latency_ps;
  simulator().schedule_at(
      deliver, [&port, txn, deliver]() { port.complete_txn(*txn, deliver); },
      prof_tag_deliver_);
}

}  // namespace fgqos::axi

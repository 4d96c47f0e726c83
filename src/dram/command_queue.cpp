#include "dram/command_queue.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/config_error.hpp"

namespace fgqos::dram {

namespace {

void erase_slot(std::vector<RequestQueue::Slot>& v, RequestQueue::Slot s) {
  const auto it = std::find(v.begin(), v.end(), s);
  FGQOS_ASSERT(it != v.end(), "RequestQueue: slot not indexed");
  v.erase(it);
}

}  // namespace

RequestQueue::RequestQueue(std::size_t read_capacity,
                           std::size_t write_capacity, std::uint32_t banks)
    : capacity_{read_capacity, write_capacity},
      bank_(2 * std::size_t{banks}) {
  config_check(read_capacity > 0 && write_capacity > 0,
               "RequestQueue: capacity must be > 0");
}

void RequestQueue::push(QueueEntry entry) {
  const bool write = entry.line.is_write;
  FGQOS_ASSERT(!full(write), "RequestQueue: push on full queue");
  // Slots are created on first use (a cheap constructor matters to the
  // many short simulations of a search) and recycled after.
  Slot s = static_cast<Slot>(slots_.size());
  if (free_.empty()) {
    slots_.push_back(std::move(entry));
  } else {
    s = free_.back();
    free_.pop_back();
    slots_[s] = std::move(entry);
  }
  bank_[2 * std::size_t{slots_[s].where.bank} + write].push_back(s);
  dir_[write].push_back(s);
}

QueueEntry RequestQueue::remove(Slot slot) {
  QueueEntry e = std::move(slots_[slot]);
  erase_slot(bank_[2 * std::size_t{e.where.bank} + e.line.is_write], slot);
  erase_slot(dir_[e.line.is_write], slot);
  free_.push_back(slot);
  return e;
}

}  // namespace fgqos::dram

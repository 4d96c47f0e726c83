/// \file command_queue.hpp
/// \brief Bounded request store scanned by the FR-FCFS scheduler.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "axi/transaction.hpp"
#include "dram/address_mapper.hpp"
#include "sim/time.hpp"
#include "telemetry/attribution.hpp"

namespace fgqos::dram {

/// One pending line request plus its decoded coordinates.
struct QueueEntry {
  axi::LineRequest line;
  Decoded where;
  sim::TimePs visible_at = 0;  ///< front-end pipeline delay
  sim::Cycles visible_edge = 0;   ///< first controller edge >= visible_at
  sim::Cycles visible_cycle = 0;  ///< visible_at / period (aging base)
  std::uint64_t seq = 0;       ///< arrival order (FCFS tie-break)
  /// Queueing-delay blame bookkeeping (open only when attribution is on).
  telemetry::WaitState wait;
};

/// Read and write request queues with per-bank FIFO indices. Entries live
/// in fixed slots; two arrival-ordered views index them: one per direction
/// (capacity, drain hysteresis, aging) and one per (bank, direction), so
/// the scheduler reads each bank's oldest candidates without sorting the
/// whole queue. Removal is arbitrary (FR-FCFS is not head-of-line).
class RequestQueue {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  RequestQueue(std::size_t read_capacity, std::size_t write_capacity,
               std::uint32_t banks);

  [[nodiscard]] bool full(bool write) const {
    return dir_[write].size() >= capacity_[write];
  }
  [[nodiscard]] std::size_t size(bool write) const {
    return dir_[write].size();
  }
  [[nodiscard]] bool empty() const {
    return dir_[0].empty() && dir_[1].empty();
  }

  /// Stores \p entry. Pre: !full(entry.line.is_write).
  void push(QueueEntry entry);
  /// Removes the entry in \p slot and returns it.
  QueueEntry remove(Slot slot);

  [[nodiscard]] QueueEntry& at(Slot slot) { return slots_[slot]; }
  [[nodiscard]] const QueueEntry& at(Slot slot) const { return slots_[slot]; }

  /// Slots of one direction, oldest first.
  [[nodiscard]] const std::vector<Slot>& dir(bool write) const {
    return dir_[write];
  }
  /// Slots of one direction targeting bank \p b, oldest first.
  [[nodiscard]] const std::vector<Slot>& bank(std::uint32_t b,
                                              bool write) const {
    return bank_[2 * std::size_t{b} + write];
  }

 private:
  std::array<std::size_t, 2> capacity_;
  std::vector<QueueEntry> slots_;
  std::vector<Slot> free_;
  std::array<std::vector<Slot>, 2> dir_;
  std::vector<std::vector<Slot>> bank_;  ///< [2 * bank + write]
};

}  // namespace fgqos::dram

// Flat deadline tracking for EC block reassembly timers.
//
// The receiver NACKs blocks whose reassembly deadline passes. Blocks
// complete nearly in order and only a window's worth are ever pending, so a
// red-black tree (std::map) on the per-packet path is pure overhead: node
// allocation per incomplete block, pointer chasing per lookup. This is a
// flat array kept sorted by block id (insertion is almost always a
// push_back; out-of-order inserts shift a handful of tail entries), which
// preserves the std::map iteration order the NACK schedule was tuned on and
// reuses its capacity for the receiver's life. Its store comes from the
// receiver's slab pool, so flow churn recycles it instead of allocating.
#pragma once

#include <cstdint>

#include "core/ring.hpp"
#include "sim/time.hpp"

namespace uno {

class DeadlineRing {
 public:
  struct Entry {
    std::uint32_t block;
    Time deadline;
  };

  /// Storage from `pool` (the heap when null).
  explicit DeadlineRing(SlabPool* pool = nullptr) : entries_(pool) {}

  /// Insert `block` or update its deadline. Keeps entries sorted by block.
  void set(std::uint32_t block, Time deadline) {
    std::size_t i = entries_.size();
    for (; i > 0; --i) {
      Entry& e = entries_[i - 1];
      if (e.block == block) {
        e.deadline = deadline;
        return;
      }
      if (e.block < block) break;
    }
    entries_.insert(i, Entry{block, deadline});
  }

  /// Drop `block` if pending.
  void erase(std::uint32_t block) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].block == block) {
        entries_.erase(i);
        return;
      }
    }
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Earliest pending deadline, or kTimeInfinity when none.
  Time earliest() const {
    Time t = kTimeInfinity;
    for (std::size_t i = 0; i < entries_.size(); ++i)
      t = entries_[i].deadline < t ? entries_[i].deadline : t;
    return t;
  }

  /// Visit expired entries in block order; `fn(block)` returns the new
  /// deadline for that block (re-arm semantics of the NACK retry schedule).
  template <typename Fn>
  void expire(Time now, Fn&& fn) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      if (e.deadline > now) continue;
      e.deadline = fn(e.block);
    }
  }

 private:
  PodRing<Entry> entries_;
};

}  // namespace uno

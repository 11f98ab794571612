// Deterministic discrete-event scheduler: the simulated cluster's Executor.
//
// Events at equal virtual times run in scheduling order (FIFO), so runs are
// fully reproducible. Tests and benches drive it with RunFor/RunUntil/
// RunUntilIdle.
//
// Implementation: a pooled 4-ary heap. Each pending event's callback lives in
// a reusable Slot (pool + free list); the heap entries carry (when, seq, slot)
// by value, so ordering comparisons touch only contiguous heap memory — no
// slot dereference — and the 4-ary shape halves the depth of a binary heap
// while keeping a node's children in 1–2 cache lines. The (when, seq) order
// is exactly the seed implementation's, so equal-time FIFO and every
// deterministic timeline are preserved. Cancel() is O(1): it disarms the slot
// and destroys the callback in place, leaving a tombstone entry in the heap
// that is discarded when it surfaces (or swept early by Compact() once
// tombstones reach half the heap). Callbacks are move-only UniqueFn values
// stored inline in the slot, so the schedule/run cycle does not heap-allocate
// in the common case. TimerIds encode (generation << 32 | slot + 1);
// generations bump on slot reuse so a stale Cancel() of a fired timer returns
// false instead of killing the slot's new tenant.
//
// A slot may name an Owner (a simulated process): the owner's log identity is
// installed around the callback, and CancelOwned() disarms every timer the
// owner has pending, so a killed process needs no timer bookkeeping of its
// own.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/executor.h"

namespace itv::sim {

class Scheduler : public Executor {
 public:
  Scheduler() = default;

  // What owned timers are grouped by; see ScheduleOwned().
  struct Owner {
    // Installed as CurrentLogIdentity() around each owned callback.
    const std::string* log_identity = nullptr;
  };

  Time Now() const override { return now_; }

  TimerId ScheduleAt(Time when, UniqueFn fn) override;
  bool Cancel(TimerId id) override;

  // ScheduleAt() for a timer that belongs to `owner`: it runs under the
  // owner's log identity, and CancelOwned(owner) cancels it.
  TimerId ScheduleOwned(Time when, UniqueFn fn, const Owner* owner);
  // Cancels every pending timer of `owner`. O(pending events); meant for
  // process teardown, which is rare.
  void CancelOwned(const Owner* owner);

  // Runs events until (and including) virtual time `deadline`.
  void RunUntil(Time deadline);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Runs until no events remain. `max_events` guards against ping-pong loops
  // (periodic timers make true idleness rare; prefer RunFor); exhausting it
  // logs a warning and returns with events still pending.
  void RunUntilIdle(uint64_t max_events = 10000000);

  // Runs exactly one event if any is pending; returns false when empty.
  bool Step();

  size_t pending_events() const { return live_; }
  uint64_t executed_events() const { return executed_; }
  // Cancelled entries still occupying heap positions (observability/tests).
  size_t tombstone_entries() const { return dead_; }
  // Times the tombstone sweep ran (observability/tests).
  uint64_t compactions() const { return compactions_; }

 private:
  struct Slot {
    uint32_t generation = 0;
    bool armed = false;  // false: free, or a cancelled tombstone.
    // Fills the padding before the 16-byte-aligned UniqueFn; meaningful only
    // while armed.
    const Owner* owner = nullptr;
    UniqueFn fn;
  };
  // Every pending event holds a slot: a field that grows Slot must be a
  // deliberate choice that also updates this bound.
  static_assert(sizeof(Slot) <= 160, "Scheduler::Slot grew past 160 bytes");

  // Heap entries are self-contained 16-byte values: comparisons never touch
  // the slot pool. seq lives in the high 40 bits of seq_slot and the slot
  // index in the low 24, so comparing seq_slot compares seq first — and seqs
  // are unique, so the slot bits never decide an ordering.
  struct HeapEntry {
    int64_t when_ns;
    uint64_t seq_slot;

    uint32_t slot() const { return static_cast<uint32_t>(seq_slot & 0xffffff); }
  };
  static constexpr uint64_t kMaxSeq = uint64_t{1} << 40;
  static constexpr uint32_t kMaxSlots = 1u << 24;

  // True if `a` fires strictly before `b`.
  static bool FiresBefore(const HeapEntry& a, const HeapEntry& b) {
    if (a.when_ns != b.when_ns) {
      return a.when_ns < b.when_ns;
    }
    return a.seq_slot < b.seq_slot;
  }

  // Slots live in fixed-size chunks: growing the pool never move-relocates
  // existing slots (and their UniqueFns), and references stay stable.
  static constexpr size_t kChunkShift = 10;  // 1024 slots per chunk.
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  Slot& SlotAt(uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  // Removes and returns the heap top.
  HeapEntry PopTop();

  // Disarms an armed slot, leaving its heap entry as a tombstone.
  void Disarm(uint32_t index);

  // Returns the slot to the pool with a bumped generation.
  void FreeSlot(uint32_t index);

  // Rebuilds the heap without tombstones, releasing their slots.
  void Compact();

  // Pops the earliest entry; runs it unless it is a tombstone.
  void RunOne();

  Time now_;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  size_t live_ = 0;   // Armed (pending, uncancelled) events.
  size_t dead_ = 0;   // Tombstones still in heap_.
  size_t slot_count_ = 0;
  uint64_t compactions_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap ordered by (when, seq).
};

}  // namespace itv::sim

#endif  // SRC_SIM_SCHEDULER_H_

#include "src/sim/scheduler.h"

#include <utility>

#include "src/common/logging.h"

namespace itv::sim {

namespace {
// TimerId layout: generation in the high 32 bits, slot index + 1 in the low
// 32 (the +1 keeps kInvalidTimerId = 0 unambiguous).
constexpr TimerId MakeTimerId(uint32_t generation, uint32_t slot) {
  return (static_cast<TimerId>(generation) << 32) |
         (static_cast<TimerId>(slot) + 1);
}

constexpr size_t kArity = 4;
}  // namespace

TimerId Scheduler::ScheduleAt(Time when, UniqueFn fn) {
  return ScheduleOwned(when, std::move(fn), nullptr);
}

TimerId Scheduler::ScheduleOwned(Time when, UniqueFn fn, const Owner* owner) {
  ITV_CHECK(fn != nullptr);
  ITV_CHECK(next_seq_ < kMaxSeq);
  if (when < now_) {
    when = now_;  // The past is the present for late schedulers.
  }
  uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    ITV_CHECK(slot_count_ < kMaxSlots);
    index = static_cast<uint32_t>(slot_count_++);
    if ((index >> kChunkShift) >= chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
  }
  Slot& slot = SlotAt(index);
  slot.armed = true;
  slot.owner = owner;
  slot.fn = std::move(fn);
  heap_.push_back(HeapEntry{when.nanos(), (next_seq_++ << 24) | index});
  SiftUp(heap_.size() - 1);
  ++live_;
  return MakeTimerId(slot.generation, index);
}

bool Scheduler::Cancel(TimerId id) {
  if (id == kInvalidTimerId) {
    return false;
  }
  uint32_t index = static_cast<uint32_t>((id & 0xffffffffu) - 1);
  uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (index >= slot_count_) {
    return false;
  }
  Slot& slot = SlotAt(index);
  if (!slot.armed || slot.generation != generation) {
    return false;
  }
  Disarm(index);
  return true;
}

void Scheduler::CancelOwned(const Owner* owner) {
  // Collect first: a Disarm() may compact, which reorders the heap (but only
  // frees slots that were already disarmed, never the ones collected here).
  std::vector<uint32_t> owned;
  for (const HeapEntry& entry : heap_) {
    const Slot& slot = SlotAt(entry.slot());
    if (slot.armed && slot.owner == owner) {
      owned.push_back(entry.slot());
    }
  }
  for (uint32_t index : owned) {
    Disarm(index);
  }
}

void Scheduler::Disarm(uint32_t index) {
  // O(1): disarm and destroy the callback; the heap entry stays behind as a
  // tombstone until it surfaces or the sweep below reclaims it.
  Slot& slot = SlotAt(index);
  slot.armed = false;
  slot.fn.Reset();
  --live_;
  ++dead_;
  if (dead_ * 2 >= heap_.size()) {
    Compact();
  }
}

void Scheduler::SiftUp(size_t pos) {
  HeapEntry moving = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) / kArity;
    if (!FiresBefore(moving, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = moving;
}

void Scheduler::SiftDown(size_t pos) {
  HeapEntry moving = heap_[pos];
  size_t size = heap_.size();
  for (;;) {
    size_t first_child = kArity * pos + 1;
    if (first_child >= size) {
      break;
    }
    size_t last_child = first_child + kArity;
    if (last_child > size) {
      last_child = size;
    }
    size_t best = first_child;
    for (size_t child = first_child + 1; child < last_child; ++child) {
      if (FiresBefore(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!FiresBefore(heap_[best], moving)) {
      break;
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = moving;
}

Scheduler::HeapEntry Scheduler::PopTop() {
  HeapEntry top = heap_[0];
  HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    SiftDown(0);
  }
  return top;
}

void Scheduler::FreeSlot(uint32_t index) {
  Slot& slot = SlotAt(index);
  slot.armed = false;
  slot.fn.Reset();
  ++slot.generation;  // Stale TimerIds for this slot stop matching.
  free_slots_.push_back(index);
}

void Scheduler::Compact() {
  size_t kept = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    if (SlotAt(heap_[i].slot()).armed) {
      heap_[kept++] = heap_[i];
    } else {
      FreeSlot(heap_[i].slot());
    }
  }
  heap_.resize(kept);
  // Floyd heapify: O(n), and (when, seq) is a total order so the result is
  // independent of the pre-sweep layout -- determinism is unaffected.
  if (kept > 1) {
    for (size_t i = (kept - 2) / kArity + 1; i-- > 0;) {
      SiftDown(i);
    }
  }
  dead_ = 0;
  ++compactions_;
}

void Scheduler::RunOne() {
  HeapEntry top = PopTop();
  Slot& slot = SlotAt(top.slot());
  if (!slot.armed) {
    --dead_;
    FreeSlot(top.slot());
    return;  // Cancelled.
  }
  UniqueFn fn = std::move(slot.fn);
  const Owner* owner = slot.owner;
  // Release the slot before running: the callback may schedule (reusing this
  // slot) or attempt a stale Cancel() of its own id (generation mismatch).
  --live_;
  FreeSlot(top.slot());
  now_ = Time::FromNanos(top.when_ns);
  ++executed_;
  if (owner != nullptr) {
    ScopedLogIdentity scoped(owner->log_identity);
    fn();
  } else {
    fn();
  }
}

void Scheduler::RunUntil(Time deadline) {
  while (!heap_.empty() && heap_[0].when_ns <= deadline.nanos()) {
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Scheduler::RunUntilIdle(uint64_t max_events) {
  uint64_t start = executed_;
  while (!heap_.empty()) {
    if (executed_ - start >= max_events) {
      ITV_LOG(Warn) << "RunUntilIdle exhausted its event budget (" << max_events
                    << " events); " << live_ << " still pending at t="
                    << now_.nanos() << "ns";
      return;
    }
    RunOne();
  }
}

bool Scheduler::Step() {
  while (!heap_.empty()) {
    if (!SlotAt(heap_[0].slot()).armed) {
      HeapEntry dead = PopTop();  // Skip cancelled without counting as a step.
      --dead_;
      FreeSlot(dead.slot());
      continue;
    }
    RunOne();
    return true;
  }
  return false;
}

}  // namespace itv::sim

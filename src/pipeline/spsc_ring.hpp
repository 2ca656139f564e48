// Fixed-capacity single-producer / single-consumer ring queue.
//
// The stage-handoff primitive of the observation pipeline (ROADMAP
// "Pipeline architecture"): the dispatching thread pushes observations,
// one worker drains them in batches. Wait-free on both sides — one
// release store per operation, no CAS, no locks — with the head/tail
// indices on separate cache lines so producer and consumer do not
// false-share. Capacity is rounded up to a power of two so the slot
// index is a mask, not a modulo.
//
// Contract: exactly one producer thread calls try_push and exactly one
// consumer thread calls try_pop. A full ring rejects the push (the
// producer applies backpressure by yielding); nothing is dropped.
//
// Handoff is by COPY-assignment on both sides, deliberately: a slot's
// heap buffers (e.g. an Observation's AS-path vector)
// are written only by the producer and reused push after push, and the
// consumer's out-slot buffers likewise — so in steady state neither side
// allocates and no buffer is ever freed on a thread other than the one
// that allocated it (no cross-thread allocator churn).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace artemis::pipeline {

/// One polite spin iteration for ring-full / ring-empty waits: a pause
/// instruction where the ISA has one (cheaper and friendlier to the
/// sibling hyperthread than sched_yield).
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity)
      : mask_(std::bit_ceil(min_capacity < 2 ? std::size_t{2} : min_capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. Copy-assigns `value` into the slot (recycling the
  /// slot's buffers); returns false when the ring is full.
  bool try_push(const T& value) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) return false;
    slots_[head & mask_] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Copy-assigns the oldest element into `out` (recycling
  /// `out`'s buffers, leaving the slot's for the producer); false when
  /// empty.
  bool try_pop(T& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return false;
    out = slots_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Snapshot; exact only when called from the producer or consumer.
  std::size_t size() const {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_acquire));
  }
  bool empty() const { return size() == 0; }

  // ---- sleep/wake hooks for a futex-style wait policy --------------------
  //
  // The ring itself never blocks; these expose the head/tail sequence
  // counters so a caller can sleep on "nothing changed yet" via
  // std::atomic::wait (a futex on Linux, no allocation, no mutex). The
  // protocol is the standard one: snapshot the counter, re-check the ring,
  // then wait for the counter to move past the snapshot. Notifies are only
  // needed when the other side might be sleeping — busy-poll callers skip
  // them entirely and the push/pop hot path stays syscall-free.

  std::uint64_t head_seq() const { return head_.load(std::memory_order_acquire); }
  std::uint64_t tail_seq() const { return tail_.load(std::memory_order_acquire); }

  /// Consumer: blocks until the producer moves head past `seen`.
  void wait_head_changed(std::uint64_t seen) const { head_.wait(seen, std::memory_order_acquire); }
  /// Producer: blocks until the consumer moves tail past `seen`.
  void wait_tail_changed(std::uint64_t seen) const { tail_.wait(seen, std::memory_order_acquire); }

  /// Producer, after try_push, when the consumer may be sleeping.
  void notify_head() { head_.notify_all(); }
  /// Consumer, after try_pop, when the producer may be sleeping.
  void notify_tail() { tail_.notify_all(); }

 private:
  std::size_t mask_;
  std::vector<T> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< written by producer
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< written by consumer
};

}  // namespace artemis::pipeline

// Direct unit tests for the pipeline's ring primitives: SpscRing (the
// per-element handoff) and BatchRing (the batch-granular slot pool).
// The pipeline suites exercise them end to end; these pin the primitive
// contracts one by one — capacity rounding, wrap-around at the
// power-of-two boundary, full-ring backpressure, buffer recycling (no
// cross-thread free), and the futex-policy sleep/wake protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/batch_ring.hpp"
#include "pipeline/observation_batch.hpp"
#include "pipeline/spsc_ring.hpp"
#include "pipeline/wait_policy.hpp"

namespace artemis::pipeline {
namespace {

// ---------------------------------------------------------------- SpscRing

TEST(SpscRingUnitTest, CapacityRounding) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);    // floor is 2
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);    // exact power stays
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(9).capacity(), 16u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingUnitTest, WrapAroundAtPowerOfTwoBoundary) {
  // Drive the head/tail sequence well past several multiples of the
  // capacity with a staggered fill level, so every slot index is used at
  // every offset relative to the mask.
  SpscRing<std::uint64_t> ring(8);
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  std::uint64_t out = 0;
  for (int round = 0; round < 100; ++round) {
    const int fill = 1 + round % static_cast<int>(ring.capacity());
    for (int i = 0; i < fill; ++i) ASSERT_TRUE(ring.try_push(next_push++));
    for (int i = 0; i < fill; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_EQ(out, next_pop++);
    }
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(next_push, next_pop);
}

TEST(SpscRingUnitTest, FullRingRejectsWithoutDamage) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_EQ(ring.size(), 4u);
  // Backpressure: the rejected pushes must not disturb queued elements.
  EXPECT_FALSE(ring.try_push(100));
  EXPECT_FALSE(ring.try_push(101));
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRingUnitTest, SlotBuffersAreRecycledByCopyAssign) {
  // The handoff contract: push copy-assigns INTO the slot, pop copy-
  // assigns OUT of it — heap buffers stay owned by their original side,
  // so nothing is freed cross-thread. Observable single-threaded effect:
  // a slot's string keeps its capacity across a pop/push cycle, and the
  // consumer's out-buffer keeps its capacity across pops.
  SpscRing<std::string> ring(2);
  const std::string big(512, 'x');
  ASSERT_TRUE(ring.try_push(big));
  std::string out;
  out.reserve(1024);
  const std::size_t out_cap = out.capacity();
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, big);
  EXPECT_GE(out.capacity(), out_cap);  // copy-assign reused out's buffer
  // The slot now holds a 512-char buffer; a shorter push must fit into it
  // without the ring ever destroying the slot element.
  ASSERT_TRUE(ring.try_push(std::string("short")));
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, "short");
}

TEST(SpscRingUnitTest, FutexHooksWakeConsumerOnPush) {
  SpscRing<int> ring(8);
  constexpr int kCount = 20000;
  std::vector<int> received;
  received.reserve(kCount);
  std::thread consumer([&] {
    int value = 0;
    while (static_cast<int>(received.size()) < kCount) {
      if (ring.try_pop(value)) {
        received.push_back(value);
        ring.notify_tail();
        continue;
      }
      // The futex wait protocol: snapshot, re-check, sleep on the
      // snapshot. A push between snapshot and wait moves head, so the
      // wait returns immediately — no lost wake-up.
      const std::uint64_t seen = ring.head_seq();
      if (ring.try_pop(value)) {
        received.push_back(value);
        ring.notify_tail();
        continue;
      }
      ring.wait_head_changed(seen);
    }
  });
  for (int i = 0; i < kCount; ++i) {
    while (!ring.try_push(int{i})) {
      const std::uint64_t seen = ring.tail_seq();
      if (ring.try_push(int{i})) break;
      ring.wait_tail_changed(seen);
    }
    ring.notify_head();
  }
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) ASSERT_EQ(received[i], i);
}

// --------------------------------------------------------------- BatchRing

TEST(BatchRingTest, DepthClampAndPreReservedSlots) {
  BatchRing tiny(0, 0);
  EXPECT_EQ(tiny.depth(), 2u);          // floor is 2 slots
  EXPECT_EQ(tiny.batch_capacity(), 1u); // and 1-observation batches
  BatchRing ring(8, 128, WaitPolicy::kFutex);
  EXPECT_EQ(ring.depth(), 8u);
  EXPECT_EQ(ring.batch_capacity(), 128u);
  EXPECT_EQ(ring.policy(), WaitPolicy::kFutex);
  EXPECT_TRUE(ring.all_recycled());
}

TEST(BatchRingTest, PublishTakeIsFifoAtBatchGranularity) {
  BatchRing ring(4, 16);
  std::atomic<bool> stop{false};
  for (int round = 0; round < 50; ++round) {
    for (int b = 0; b < 3; ++b) {
      ObservationBatch* batch = ring.try_acquire();
      ASSERT_NE(batch, nullptr);
      for (int i = 0; i < b + 1; ++i) {
        batch->emplace_back().vantage =
            static_cast<std::uint32_t>(round * 10 + b);
      }
      ring.publish(batch);
    }
    for (int b = 0; b < 3; ++b) {
      ObservationBatch* batch = ring.take(stop);
      ASSERT_NE(batch, nullptr);
      ASSERT_EQ(batch->size(), static_cast<std::size_t>(b + 1));
      EXPECT_EQ((*batch)[0].vantage, static_cast<std::uint32_t>(round * 10 + b));
      ring.release(batch);
    }
  }
  EXPECT_TRUE(ring.all_recycled());
}

TEST(BatchRingTest, PoolExhaustionBackpressuresAcquire) {
  BatchRing ring(3, 4);
  std::vector<ObservationBatch*> held;
  for (int i = 0; i < 3; ++i) {
    ObservationBatch* batch = ring.try_acquire();
    ASSERT_NE(batch, nullptr);
    held.push_back(batch);
  }
  // Every slot is in flight: the pool is the backpressure bound.
  EXPECT_EQ(ring.try_acquire(), nullptr);
  EXPECT_FALSE(ring.all_recycled());
  // Publishing does not mint slots; only release() recycles.
  ring.publish(held.back());
  held.pop_back();
  EXPECT_EQ(ring.try_acquire(), nullptr);
  std::atomic<bool> stop{false};
  ObservationBatch* taken = ring.take(stop);
  ASSERT_NE(taken, nullptr);
  ring.release(taken);
  EXPECT_NE(ring.try_acquire(), nullptr);
  // (held batches intentionally leak back on destruction — the pool owns
  // the memory, not the handles.)
}

TEST(BatchRingTest, SlotsRecycleThroughThePoolNotTheAllocator) {
  // Pointer identity across laps: the same pool slots keep coming back,
  // cleared but with their element storage intact — the zero-allocation
  // steady state and the no-cross-thread-free guarantee in one property.
  BatchRing ring(2, 8);
  std::set<ObservationBatch*> seen;
  std::set<const feeds::Observation*> element_storage;
  std::atomic<bool> stop{false};
  for (int lap = 0; lap < 20; ++lap) {
    ObservationBatch* batch = ring.acquire();
    seen.insert(batch);
    batch->emplace_back().source = feeds::intern_source("recycled-source-string");
    element_storage.insert(&(*batch)[0]);
    ring.publish(batch);
    ObservationBatch* taken = ring.take(stop);
    ASSERT_EQ(taken, batch);  // FIFO of one
    ASSERT_EQ(taken->size(), 1u);
    ring.release(taken);
  }
  // Exactly the two pool slots cycled, and each slot's element storage
  // stayed at a stable address across every clear() — no reallocation.
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(element_storage.size(), 2u);
  EXPECT_TRUE(ring.all_recycled());
}

TEST(BatchRingTest, TakeDrainsPublishedBatchesBeforeHonoringStop) {
  BatchRing ring(4, 4);
  ObservationBatch* batch = ring.try_acquire();
  ASSERT_NE(batch, nullptr);
  batch->emplace_back();
  ring.publish(batch);
  std::atomic<bool> stop{true};  // stop already set when take() is called
  ObservationBatch* taken = ring.take(stop);
  ASSERT_NE(taken, nullptr);  // the published batch still comes out
  ring.release(taken);
  EXPECT_EQ(ring.take(stop), nullptr);  // then — and only then — nullptr
  EXPECT_TRUE(ring.all_recycled());
}

TEST(BatchRingTest, FutexPolicyCrossThreadTransfer) {
  // Producer and consumer on separate threads under the futex policy:
  // both sides sleep (pool exhaustion on one, empty ring on the other)
  // and must wake each other without losing a batch or an ordering.
  BatchRing futex_ring(2, 4, WaitPolicy::kFutex);  // tiny pool: maximal sleeping
  constexpr std::uint32_t kBatches = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::uint32_t> received;
  received.reserve(kBatches);
  std::thread consumer([&] {
    for (;;) {
      ObservationBatch* batch = futex_ring.take(stop);
      if (batch == nullptr) return;
      ASSERT_EQ(batch->size(), 1u);
      received.push_back((*batch)[0].vantage);
      futex_ring.release(batch);
    }
  });
  for (std::uint32_t i = 0; i < kBatches; ++i) {
    ObservationBatch* batch = futex_ring.acquire();  // sleeps when exhausted
    batch->emplace_back().vantage = i;
    futex_ring.publish(batch);
  }
  stop.store(true, std::memory_order_release);
  futex_ring.wake_consumer();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kBatches));
  for (std::uint32_t i = 0; i < kBatches; ++i) ASSERT_EQ(received[i], i);
  EXPECT_TRUE(futex_ring.all_recycled());
}

TEST(BatchRingTest, WakeConsumerUnblocksFutexSleeper) {
  BatchRing ring(2, 4, WaitPolicy::kFutex);
  std::atomic<bool> stop{false};
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    EXPECT_EQ(ring.take(stop), nullptr);  // sleeps until woken post-stop
    returned.store(true, std::memory_order_release);
  });
  // Give the consumer time to reach the futex wait, then stop+wake.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  ring.wake_consumer();
  consumer.join();
  EXPECT_TRUE(returned.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace artemis::pipeline

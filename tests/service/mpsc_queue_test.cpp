// mpsc_queue tests: FIFO semantics, exact bounded-backpressure behavior,
// payload lifetime, the consumer's wait (no lost wakeup), and a
// multi-producer stress that checks every pushed item is popped exactly
// once and in per-producer order.  The stress runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/mpsc_queue.h"

namespace bpntt::service {
namespace {

TEST(MpscQueue, FifoWithinCapacity) {
  mpsc_queue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(int(i)));
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));  // empty again
}

TEST(MpscQueue, CapacityIsExact) {
  for (const std::size_t cap : {1u, 3u, 8u, 1000u}) {
    mpsc_queue<int> q(cap);
    EXPECT_EQ(q.capacity(), cap);
    for (std::size_t i = 0; i < cap; ++i) ASSERT_TRUE(q.try_push(1)) << cap;
    EXPECT_FALSE(q.try_push(1)) << "a queue of " << cap << " takes no more than " << cap;
  }
  EXPECT_THROW(mpsc_queue<int>(0), std::invalid_argument);
}

TEST(MpscQueue, FullRingRejectsUntilAPopFreesASlot) {
  mpsc_queue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(int(i)));
  EXPECT_FALSE(q.try_push(99));
  EXPECT_FALSE(q.empty());

  int out = -1;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(q.try_push(99));  // the freed slot is reusable
  for (const int want : {1, 2, 3, 99}) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, WrapsAroundManyLaps) {
  mpsc_queue<int> q(4);
  int out = -1;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.try_push(int(i)));
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(MpscQueue, PopReleasesThePayloadImmediately) {
  // The queue must not keep a popped payload alive — the service's
  // submissions hold tickets and session refs.
  mpsc_queue<std::shared_ptr<int>> q(4);
  auto p = std::make_shared<int>(42);
  ASSERT_TRUE(q.try_push(std::shared_ptr<int>(p)));
  EXPECT_EQ(p.use_count(), 2);
  std::shared_ptr<int> out;
  ASSERT_TRUE(q.try_pop(out));
  out.reset();
  EXPECT_EQ(p.use_count(), 1) << "the ring must not retain a popped payload";
}

TEST(MpscQueue, MoveOnlyPayloadsWork) {
  mpsc_queue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.try_push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

// A wait whose timeout the test would notice: each test below must return
// long before it lapses.
constexpr std::chrono::seconds kLongWait{30};

std::chrono::steady_clock::duration time_to_wait(mpsc_queue<int>& q) {
  const auto t0 = std::chrono::steady_clock::now();
  q.wait_for(kLongWait);
  return std::chrono::steady_clock::now() - t0;
}

TEST(MpscQueue, WaitForReturnsAtOnceWhenAnItemWasPushedBeforeTheWait) {
  // The lost-wakeup case: the push lands between the consumer's last empty
  // try_pop and its sleep.  The wait must see the item, not sleep it out.
  mpsc_queue<int> q(4);
  int out = -1;
  EXPECT_FALSE(q.try_pop(out));
  ASSERT_TRUE(q.try_push(7));
  EXPECT_LT(time_to_wait(q), std::chrono::seconds(5));
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 7);
}

TEST(MpscQueue, WaitForReturnsAtOnceWhenWakeWasCalledBeforeTheWait) {
  mpsc_queue<int> q(4);
  q.wake();
  EXPECT_LT(time_to_wait(q), std::chrono::seconds(5));
  // The wake is consumed: an empty queue with no new wake waits the
  // timeout out.
  const auto t0 = std::chrono::steady_clock::now();
  q.wait_for(std::chrono::milliseconds(20));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(20));
}

TEST(MpscQueue, WaitForEndsWhenAnotherThreadPushesOrWakes) {
  mpsc_queue<int> q(4);
  for (const bool push : {true, false}) {
    std::thread other([&q, push] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (push) {
        ASSERT_TRUE(q.try_push(1));
      } else {
        q.wake();
      }
    });
    EXPECT_LT(time_to_wait(q), std::chrono::seconds(5)) << (push ? "push" : "wake");
    other.join();
    int out = -1;
    EXPECT_EQ(q.try_pop(out), push);
  }
}

TEST(MpscQueue, ManyProducersOneConsumerLosesNothing) {
  // Encode (producer, sequence) into each item; the consumer must see every
  // item exactly once and each producer's items in its push order, through
  // a ring far smaller than the item count (constant wrap pressure).
  constexpr unsigned kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  mpsc_queue<std::uint64_t> q(64);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        std::uint64_t item = (std::uint64_t(p) << 32) | i;
        while (!q.try_push(std::move(item))) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t popped = 0;
  while (popped < kProducers * kPerProducer) {
    std::uint64_t item = 0;
    if (!q.try_pop(item)) {
      std::this_thread::yield();
      continue;
    }
    ++popped;
    const auto p = static_cast<unsigned>(item >> 32);
    const std::uint64_t seq = item & 0xffffffffULL;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(seq, next_seq[p]) << "producer " << p << " item out of order or lost";
    ++next_seq[p];
  }
  for (auto& t : producers) t.join();

  std::uint64_t leftover = 0;
  EXPECT_FALSE(q.try_pop(leftover)) << "more items popped out than were pushed";
  for (unsigned p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

}  // namespace
}  // namespace bpntt::service

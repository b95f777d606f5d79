// trace_recorder semantics: one bounded ring of exact capacity that drops
// its *oldest* event when full (with an exact events_dropped count), a
// monotonic virtual-time watermark, and every member safe from any thread.
// The concurrent suite runs under TSan in CI — a data race between
// producers, the counter probes, snapshot_events() and clear() fails the
// build.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/trace.h"

namespace bpntt::telemetry {
namespace {

trace_event at(u64 ts) {
  return {.ts = ts, .dur = 0, .a = 0, .track = 0, .arg = 0, .op = trace_op::ntt_forward};
}

TEST(TraceRecorder, CapacityIsExact) {
  for (const std::size_t cap : {1u, 5u, 8u}) {
    trace_recorder rec(cap);
    EXPECT_EQ(rec.capacity(), cap);
    for (u64 ts = 0; ts < 3 * cap; ++ts) rec.record(at(ts));
    const auto events = rec.snapshot_events();
    ASSERT_EQ(events.size(), cap);
    for (std::size_t i = 0; i < cap; ++i) EXPECT_EQ(events[i].ts, 2 * cap + i) << cap;
    EXPECT_EQ(rec.events_dropped(), 2 * cap);
  }
  EXPECT_THROW(trace_recorder(0), std::invalid_argument);
}

TEST(TraceRecorder, OverflowDropsOldestAndCountsExactly) {
  trace_recorder rec(8);
  for (u64 ts = 0; ts < 12; ++ts) rec.record(at(ts));
  EXPECT_EQ(rec.events_recorded(), 12u);
  EXPECT_EQ(rec.events_dropped(), 4u);
  const auto events = rec.snapshot_events();
  ASSERT_EQ(events.size(), 8u);
  // ts 0..3 were overwritten; the retained window is the newest 8, ts-sorted.
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].ts, 4 + i);
}

TEST(TraceRecorder, SnapshotIsNonDestructiveAndClearKeepsCounters) {
  trace_recorder rec(16);
  for (u64 ts = 0; ts < 5; ++ts) rec.record(at(ts));
  EXPECT_EQ(rec.snapshot_events().size(), 5u);
  EXPECT_EQ(rec.snapshot_events().size(), 5u);  // exporting does not consume
  rec.clear();
  EXPECT_TRUE(rec.snapshot_events().empty());
  EXPECT_EQ(rec.events_recorded(), 5u);  // cumulative counters survive clear()
  EXPECT_EQ(rec.events_dropped(), 0u);
}

TEST(TraceRecorder, WatermarkIsMonotonic) {
  trace_recorder rec(4);
  EXPECT_EQ(rec.watermark(), 0u);
  rec.set_watermark(10);
  rec.set_watermark(3);  // regressions are ignored, not applied
  EXPECT_EQ(rec.watermark(), 10u);
  rec.set_watermark(11);
  EXPECT_EQ(rec.watermark(), 11u);
}

TEST(TraceRecorder, SnapshotMergesProducersSortedByTimestamp) {
  trace_recorder rec(64);
  // Two producers with interleaved virtual timestamps, joined before the
  // snapshot so it holds every event.
  std::thread even([&] {
    for (u64 ts = 0; ts < 32; ts += 2) rec.record(at(ts));
  });
  std::thread odd([&] {
    for (u64 ts = 1; ts < 32; ts += 2) rec.record(at(ts));
  });
  even.join();
  odd.join();
  const auto events = rec.snapshot_events();
  ASSERT_EQ(events.size(), 32u);
  for (u64 ts = 0; ts < 32; ++ts) EXPECT_EQ(events[ts].ts, ts);
}

TEST(TraceRecorder, ConcurrentRecordingIsRaceFreeAndLossless) {
  // 8 producers x 1000 events into a ring that holds exactly all of them:
  // every event lands, none drop, while a monitor thread hammers the
  // any-thread probes.
  constexpr unsigned kThreads = 8;
  constexpr u64 kPerThread = 1000;
  trace_recorder rec(kThreads * kPerThread);
  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)rec.events_recorded();
      (void)rec.events_dropped();
      (void)rec.watermark();
    }
  });
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (u64 i = 0; i < kPerThread; ++i) {
        rec.record(at(i));
        rec.set_watermark(i);
      }
    });
  }
  for (auto& th : producers) th.join();
  stop.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(rec.events_recorded(), kThreads * kPerThread);
  EXPECT_EQ(rec.events_dropped(), 0u);
  EXPECT_EQ(rec.snapshot_events().size(), kThreads * kPerThread);
  EXPECT_EQ(rec.watermark(), kPerThread - 1);
}

TEST(TraceRecorder, SnapshotAndClearAlongsideProducersAreRaceFree) {
  // 4 producers record while another thread snapshots and clears: every
  // snapshot is a ts-sorted window no larger than the ring, and the
  // cumulative counters still count every event.
  constexpr unsigned kThreads = 4;
  constexpr u64 kPerThread = 5000;
  constexpr std::size_t kCapacity = 512;
  trace_recorder rec(kCapacity);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto events = rec.snapshot_events();
      EXPECT_LE(events.size(), kCapacity);
      EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                                 [](const trace_event& a, const trace_event& b) {
                                   return a.ts < b.ts;
                                 }));
      rec.clear();
    }
  });
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (u64 i = 0; i < kPerThread; ++i) rec.record(at(i));
    });
  }
  for (auto& th : producers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(rec.events_recorded(), kThreads * kPerThread);
  EXPECT_LE(rec.snapshot_events().size(), kCapacity);
  // The ring is left whole: a fresh window fills to capacity and drops
  // exactly what overflows it.
  rec.clear();
  const u64 dropped_before = rec.events_dropped();
  for (u64 ts = 0; ts < kCapacity + 3; ++ts) rec.record(at(ts));
  EXPECT_EQ(rec.snapshot_events().size(), kCapacity);
  EXPECT_EQ(rec.events_dropped() - dropped_before, 3u);
}

}  // namespace
}  // namespace bpntt::telemetry

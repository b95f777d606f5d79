// metrics_registry semantics: one registration per name with stable
// references, zero-valued reads for absent names, and the single JSON
// document bench artifacts embed.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace bpntt::telemetry {
namespace {

TEST(MetricsRegistry, ASecondRegistrationOfANameThrows) {
  metrics_registry reg;
  counter& a = reg.make_counter("svc.submitted");
  EXPECT_THROW(reg.make_counter("svc.submitted"), std::logic_error);
  a.add(3);
  a.add();
  EXPECT_EQ(reg.counter_value("svc.submitted"), 4u);
  EXPECT_EQ(reg.find_counter("svc.submitted"), &a) << "the failed registration kept the cell";
}

TEST(MetricsRegistry, OneNameOneKind) {
  metrics_registry reg;
  reg.make_counter("x");
  EXPECT_THROW(reg.make_gauge("x"), std::logic_error);
  EXPECT_THROW(reg.make_real("x"), std::logic_error);
  EXPECT_THROW(reg.make_histogram("x"), std::logic_error);
  // The failed registrations must not have minted instruments.
  EXPECT_EQ(reg.find_gauge("x"), nullptr);
  EXPECT_EQ(reg.find_real("x"), nullptr);
  EXPECT_EQ(reg.find_histogram("x"), nullptr);
  EXPECT_NE(reg.find_counter("x"), nullptr);
}

TEST(MetricsRegistry, FindAndValueReadsDoNotCreate) {
  metrics_registry reg;
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
  EXPECT_EQ(reg.gauge_value("absent"), 0u);
  EXPECT_EQ(reg.real_value("absent"), 0.0);
  // The reads above must not have registered anything.
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
}

TEST(MetricsRegistry, GaugeSetMaxIsAHighWaterMark) {
  metrics_registry reg;
  gauge& g = reg.make_gauge("makespan");
  g.set(5);
  g.set_max(3);  // below the water line: ignored
  EXPECT_EQ(g.value(), 5u);
  g.set_max(9);
  EXPECT_EQ(g.value(), 9u);
  g.set(2);  // plain set still overwrites
  EXPECT_EQ(g.value(), 2u);
}

TEST(MetricsRegistry, RealAccumAccumulates) {
  metrics_registry reg;
  real_accum& r = reg.make_real("energy_nj");
  r.add(1.5);
  r.add(2.25);
  EXPECT_DOUBLE_EQ(r.value(), 3.75);
  EXPECT_DOUBLE_EQ(reg.real_value("energy_nj"), 3.75);
}

TEST(MetricsRegistry, HistogramCellSnapshotsTheDistribution) {
  metrics_registry reg;
  histogram_cell& h = reg.make_histogram("latency_ns");
  for (u64 ns = 1; ns <= 100; ++ns) h.record(ns);
  const latency_histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 100u);
  EXPECT_GE(snap.quantile_ns(0.50), 50u);  // bucket upper bounds
  EXPECT_GE(snap.max_ns(), 100u);
}

TEST(MetricsRegistry, ToJsonSerializesEverySection) {
  metrics_registry reg;
  reg.make_counter("svc.completed").add(3);
  reg.make_gauge("runtime.wall_cycles").set(7);
  reg.make_real("runtime.energy_nj").add(2.5);
  reg.make_histogram("svc.latency_ns").record(42);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"svc.completed\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"runtime.wall_cycles\":7"), std::string::npos);
  EXPECT_NE(json.find("\"reals\":{"), std::string::npos);
  EXPECT_NE(json.find("\"runtime.energy_nj\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"svc.latency_ns\":{\"count\":1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsRegistry, ConcurrentRegistrationAndUpdatesAreRaceFree) {
  // Each thread registers its own name while every thread bumps the shared
  // instruments, registered once, through their references; the registry
  // must lose no increments.  TSan certifies the locking in CI.
  metrics_registry reg;
  counter& shared = reg.make_counter("shared.counter");
  histogram_cell& hist = reg.make_histogram("shared.hist");
  constexpr unsigned kThreads = 8;
  constexpr u64 kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      counter& own = reg.make_counter("own." + std::to_string(t));
      for (u64 i = 0; i < kPerThread; ++i) {
        shared.add();
        own.add();
        hist.record(i + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter_value("shared.counter"), kThreads * kPerThread);
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter_value("own." + std::to_string(t)), kPerThread);
  }
  EXPECT_EQ(reg.find_histogram("shared.hist")->snapshot().count(), kThreads * kPerThread);
}

}  // namespace
}  // namespace bpntt::telemetry

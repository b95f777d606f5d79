// bpntt::telemetry::metrics_registry — one named home for every counter,
// gauge and distribution the stack publishes.
//
// Before this module each layer kept private tallies and every snapshot
// surface (context::stats(), service_stats, bench JSON writers) copied
// them field by field — a counter added in one place could silently read
// zero in another.  The registry inverts that: instruments are *registered
// once at construction* (make_counter("runtime.jobs_submitted"), ...) and
// the owning layer holds a stable reference it updates on the hot path;
// snapshots and JSON artifacts are derived views over the single store.
//
//   telemetry::metrics_registry reg;
//   auto& submitted = reg.make_counter("service.submitted");
//   submitted.add();                        // lock-free, any thread
//   auto& latency = reg.make_histogram("service.latency_ns");
//   latency.record(ns);
//   std::string doc = reg.to_json();        // {"counters":{...},...}
//
// One owner per instrument: each name is registered exactly once, by the
// object that bumps it, and a second make_* of a name — of any kind —
// throws std::logic_error.
//
// Instrument semantics:
//   counter    — monotonically increasing u64 (relaxed atomic add).
//   gauge      — last-written u64, plus set_max() for high-water marks
//                (the virtual-timeline makespan is a gauge, not a counter).
//   real_accum — accumulating double (energy totals); C++20 atomic
//                fetch_add(double).
//   histogram  — a quarter-octave latency_histogram behind a per-cell
//                mutex (recording is a lock + O(1) bucket increment; the
//                cell lock is never held across user code).
//
// Threading contract: make_* registration is mutex-guarded and may run
// from any thread; the returned references are stable for the registry's
// lifetime (cells are heap-allocated, the map only holds pointers).
// Updates through counter/gauge/real references are lock-free;
// histogram_cell::record takes the cell's own mutex.  Snapshots (value
// reads, to_json) are safe from any thread and see each instrument's
// latest relaxed value — coherent enough for monitoring, not a
// linearizable cross-instrument cut.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "telemetry/histogram.h"

namespace bpntt::telemetry {

using u64 = std::uint64_t;

class counter {
 public:
  void add(u64 n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] u64 value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

class gauge {
 public:
  void set(u64 v) noexcept { v_.store(v, std::memory_order_relaxed); }
  // Monotonic high-water update (CAS loop; lock-free).
  void set_max(u64 v) noexcept {
    u64 cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] u64 value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

class real_accum {
 public:
  void add(double d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// A latency_histogram behind its own mutex, so concurrent recorders (pool
// threads, the service drainer, client threads) can share one distribution.
class histogram_cell {
 public:
  void record(u64 ns) noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    h_.record_ns(ns);
  }
  [[nodiscard]] latency_histogram snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return h_;
  }

 private:
  mutable std::mutex mu_;
  latency_histogram h_;
};

class metrics_registry {
 public:
  metrics_registry() = default;
  metrics_registry(const metrics_registry&) = delete;
  metrics_registry& operator=(const metrics_registry&) = delete;

  // Register a new instrument.  A name that is already registered, as any
  // kind, throws std::logic_error (one name, one owner).
  counter& make_counter(const std::string& name);
  gauge& make_gauge(const std::string& name);
  real_accum& make_real(const std::string& name);
  histogram_cell& make_histogram(const std::string& name);

  // Lookup without creation (nullptr when absent) — for snapshot readers
  // that must not mint instruments as a side effect.
  [[nodiscard]] const counter* find_counter(const std::string& name) const;
  [[nodiscard]] const gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const real_accum* find_real(const std::string& name) const;
  [[nodiscard]] const histogram_cell* find_histogram(const std::string& name) const;

  // Convenience value reads: the instrument's current value, or 0 when the
  // name was never registered.
  [[nodiscard]] u64 counter_value(const std::string& name) const;
  [[nodiscard]] u64 gauge_value(const std::string& name) const;
  [[nodiscard]] double real_value(const std::string& name) const;

  // One JSON document over everything registered, name-sorted:
  //   {"counters":{...},"gauges":{...},"reals":{...},
  //    "histograms":{"name":{"count":N,"p50_ns":..,"p95_ns":..,
  //                          "p99_ns":..,"max_ns":..},...}}
  [[nodiscard]] std::string to_json() const;

 private:
  // Throws unless `name` is free in every instrument map.
  void claim_name(const std::string& name) const;

  mutable std::mutex mu_;  // guards the maps; instrument updates never take it
  std::map<std::string, std::unique_ptr<counter>> counters_;
  std::map<std::string, std::unique_ptr<gauge>> gauges_;
  std::map<std::string, std::unique_ptr<real_accum>> reals_;
  std::map<std::string, std::unique_ptr<histogram_cell>> histograms_;
};

}  // namespace bpntt::telemetry

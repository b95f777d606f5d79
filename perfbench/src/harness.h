// Shared plumbing of the repository benchmark: run options, the metric
// report, correctness books, host-clock spans, order statistics, and the
// metering backend the traced runs put between a context and its real
// backend.
//
// Everything here lives outside the library: spans are recorded around calls
// into each module's public functions, never inside them, so the library
// under test is byte-for-byte the code the tests build.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/backend.h"
#include "runtime/context.h"

namespace perfbench {

using u64 = std::uint64_t;
using steady = std::chrono::steady_clock;

struct run_options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory the traced run writes its Chrome trace into.
  std::string trace_dir = ".bench_build/traces";
};

// Metrics in insertion order; main() prints them as the result line.
class report {
 public:
  struct entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  // Human-readable annotation printed beside a metric (percentile, base...).
  void note(const std::string& name, const std::string& text);
  // A value set earlier (0 when absent).
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] const std::vector<entry>& entries() const noexcept { return entries_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& notes() const noexcept {
    return notes_;
  }

 private:
  std::vector<entry> entries_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// Units attempted and failed (failed covers wrong outputs, failed jobs and
// rejected submissions alike).  Thread-safe.
class books {
 public:
  void attempt() noexcept { attempted_.fetch_add(1, std::memory_order_relaxed); }
  // Count one failed unit and keep the first few reasons for the log.
  void fail(const std::string& why);
  [[nodiscard]] u64 attempted() const noexcept { return attempted_.load(); }
  [[nodiscard]] u64 failed() const noexcept { return failed_.load(); }
  [[nodiscard]] std::vector<std::string> reasons() const;

 private:
  std::atomic<u64> attempted_{0};
  std::atomic<u64> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

[[nodiscard]] double ms_between(steady::time_point a, steady::time_point b) noexcept;
// CPU time of the whole process (every thread), in ms.  Time a co-tenant
// holds the core does not count, nor does time spent blocked.
[[nodiscard]] double process_cpu_ms() noexcept;
// Host speed probe: CPU time (ms) of a fixed integer kernel on the calling
// thread.  It calls no library code, so it changes only with the host.
[[nodiscard]] double host_probe_ms() noexcept;
// host_probe_ms() on every CPU the process may use, all at once (one
// thread pinned to each); the mean.
[[nodiscard]] double host_probe_all_ms();
// host_probe_ms() on the reference host (a 4-core x86 VM) at full speed.
inline constexpr double kProbeRefMs = 1.56;
// Restricts the calling thread, and every thread it starts while this
// lives, to the CPU it runs on now; restores the previous affinity of the
// calling thread on destruction.
class cpu_pin {
 public:
  cpu_pin() noexcept;
  ~cpu_pin();
  cpu_pin(const cpu_pin&) = delete;
  cpu_pin& operator=(const cpu_pin&) = delete;

 private:
  cpu_set_t prev_{};
  bool pinned_ = false;
};
// A 1 ns timer slack for the calling thread only.  The benchmark's
// open-loop client uses it so its sleeps end on time; the library's threads
// keep the default slack, so the cost of their timed waits shows.
void fine_timer_slack() noexcept;
[[nodiscard]] double median(std::vector<double> v);

// The tail: p75 over every unit, or p50 when fewer than ten samples lie
// beyond p75.  Capped at p75 on purpose: past it the host, not the program,
// sets the value.  Across ten seeds of service_mix, the quartile spread
// (IQR / median) was 0.11 for p75, 0.16 for p90, 0.26 for p95 and 1.6 for
// p99; the other percentiles are printed beside it.
struct tail_stat {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
[[nodiscard]] tail_stat tail_of(std::vector<double> v);

// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// Closed-loop driver: call `unit(i)` back to back until `seconds` have
// passed and at least `min_units` ran; returns each unit's latency (ms) as
// the unit itself measured it.
std::vector<double> closed_loop(double seconds, std::size_t min_units,
                                const std::function<double(u64)>& unit);

// Run `setup` `times` times and return the median seconds.  Each call
// builds and warms a fresh instance, replacing the previous one, so the
// last one is what the measured loop uses.
double median_setup_s(int times, const std::function<void()>& setup);

// latency_ms_p50 and latency_ms_tail over every unit the run measured;
// `clock` names what the latencies were timed with.
void report_latency(report& r, const std::vector<double>& units, const std::string& clock);
// The outcome metrics every run reports.
void report_outcome(report& r, const books& b);

// Host-clock spans recorded by the benchmark around calls into each layer.
// Spans of one unit share its id; a span's layer names the module whose
// public function it times.  Bounded: past kMaxSpans further spans are
// dropped.
class span_log {
 public:
  static constexpr std::size_t kMaxSpans = 50'000;

  struct span {
    const char* layer;
    const char* name;
    double start_us;
    double dur_us;
    u64 unit;
    unsigned tid;
  };

  void record(const char* layer, const char* name, steady::time_point start,
              steady::time_point end, u64 unit);
  [[nodiscard]] std::vector<span> snapshot() const;
  // Chrome trace-event "X" rows (comma-separated, no brackets) on process
  // `pid`, one thread row per recording thread.
  [[nodiscard]] std::string chrome_events(unsigned pid) const;

 private:
  [[nodiscard]] unsigned thread_index();

  steady::time_point epoch_ = steady::now();
  mutable std::mutex mu_;
  std::vector<span> spans_;
  std::vector<std::thread::id> threads_;
};

// RAII span: records [construction, destruction) into a log (no-op when the
// log is null, which is how untraced runs skip the clock reads).
class scoped_span {
 public:
  scoped_span(span_log* log, const char* layer, const char* name, u64 unit)
      : log_(log), layer_(layer), name_(name), unit_(unit) {
    if (log_ != nullptr) start_ = steady::now();
  }
  ~scoped_span() {
    if (log_ != nullptr) log_->record(layer_, name_, start_, steady::now(), unit_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_log* log_;
  const char* layer_;
  const char* name_;
  u64 unit_;
  steady::time_point start_;
};

// A backend decorator: forwards every dispatch to the real backend, records
// one host span per call, and sums the calls' op_stats and host time.  It
// changes no output and no modelled cycle (the residency manager, executor
// and recorder the context attaches are handed through on first use).
class metered_backend final : public bpntt::runtime::backend {
 public:
  metered_backend(std::unique_ptr<bpntt::runtime::backend> inner, span_log* spans);

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bpntt::runtime::backend_caps capabilities() const override {
    return inner_->capabilities();
  }
  bpntt::runtime::batch_result run_ntt(const std::vector<std::vector<u64>>& polys,
                                       bpntt::core::transform_dir dir,
                                       const bpntt::runtime::dispatch_hints& hints) override;
  bpntt::runtime::batch_result run_polymul(const std::vector<bpntt::core::polymul_pair>& pairs,
                                           const bpntt::runtime::dispatch_hints& hints) override;
  bpntt::runtime::batch_result run_rescale(
      const std::vector<bpntt::runtime::rns_rescale_job>& jobs,
      const bpntt::runtime::dispatch_hints& hints) override;
  bpntt::runtime::batch_result run_base_extend(
      const std::vector<bpntt::runtime::rns_base_extend_job>& jobs,
      const bpntt::runtime::dispatch_hints& hints) override;
  [[nodiscard]] std::size_t retarget_cache_size() const override {
    return inner_->retarget_cache_size();
  }

  // The unit id stamped on backend spans (closed-loop workloads set it per
  // unit; dispatches run on pool threads that cannot see the caller).
  void set_unit(u64 unit) noexcept { unit_.store(unit, std::memory_order_relaxed); }

  struct totals {
    bpntt::sram::op_stats stats;
    double host_ms = 0.0;
  };
  [[nodiscard]] totals snapshot() const;

 private:
  void attach_inner();
  template <typename Run>
  bpntt::runtime::batch_result metered(const char* name, Run&& run);

  std::unique_ptr<bpntt::runtime::backend> inner_;
  span_log* spans_;
  std::once_flag attached_;
  std::atomic<u64> unit_{0};
  mutable std::mutex mu_;
  totals totals_;
};

// What a traced workload pass observed about its own units; turned into the
// workload-driven per-layer metrics (op mix, runtime counters, residency,
// trace overhead) by report_workload_layers.
struct workload_trace {
  double units = 0.0;                             // traced units
  bpntt::runtime::scheduler_stats before, after;  // context counters around them
  metered_backend::totals ops_before;             // meter at the first traced unit
  metered_backend::totals ops_exact;              // ... after the fixed exact prefix
  metered_backend::totals ops_after;              // ... after the last traced unit
  double exact_units = 0.0;
  double traced_ms_total = 0.0;                   // summed unit latencies
  double traced_p50_ms = 0.0;
  double untraced_p50_ms = 0.0;
  bpntt::runtime::context::trace_probe trace;
};
void report_workload_layers(report& r, const workload_trace& t);

// Export a traced run: `write` stores the library's Chrome trace at the
// path this returns (<trace_dir>/<workload>-seed<seed>.json), then the
// benchmark's host-clock spans are merged in (process "host clock"), so
// Perfetto shows the virtual array timeline and host time side by side.
std::string export_trace(const run_options& o, const std::function<void(const std::string&)>& write,
                         const span_log& spans);

}  // namespace perfbench

#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void report::set(const std::string& name, double value, const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void report::note(const std::string& name, const std::string& text) {
  notes_.emplace_back(name, text);
}

double report::value(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

void books::fail(const std::string& why) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (reasons_.size() < 8) reasons_.push_back(why);
}

std::vector<std::string> books::reasons() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reasons_;
}

double ms_between(steady::time_point a, steady::time_point b) noexcept {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double process_cpu_ms() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

void fine_timer_slack() noexcept { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

double host_probe_ms() noexcept {
  std::array<u64, 512> rows{};
  timespec t0{}, t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  for (u64 r = 0; r < 4000; ++r) {
    for (unsigned j = 0; j < rows.size(); ++j) {
      const u64 x = rows[j] ^ rows[(j + 1) % rows.size()];
      rows[j] = ((x << 7) | (x >> 57)) + j * r;
    }
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  static std::atomic<u64> sink;
  sink.store(rows[3], std::memory_order_relaxed);
  return static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e3 +
         static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-6;
}

double host_probe_all_ms() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return host_probe_ms();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<double> ms(cpus.size());
  std::vector<std::thread> probes;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    probes.emplace_back([&, i] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      sched_setaffinity(0, sizeof one, &one);
      ms[i] = host_probe_ms();
    });
  }
  for (auto& t : probes) t.join();
  double sum = 0.0;
  for (const double m : ms) sum += m;
  return ms.empty() ? host_probe_ms() : sum / static_cast<double>(ms.size());
}

cpu_pin::cpu_pin() noexcept {
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof prev_, &prev_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

cpu_pin::~cpu_pin() {
  if (pinned_) sched_setaffinity(0, sizeof prev_, &prev_);
}

namespace {

// Nearest-rank quantile, p in [0, 1].
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

tail_stat tail_of(std::vector<double> v) {
  tail_stat t;
  t.samples = v.size();
  // Samples strictly above the nearest-rank p75.
  const auto rank = static_cast<std::size_t>(std::ceil(0.75 * static_cast<double>(v.size())));
  if (v.size() - rank >= 10) {
    t.percentile = 75.0;
    t.value = quantile(std::move(v), 0.75);
  } else {
    t.value = median(std::move(v));
  }
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<double> closed_loop(double seconds, std::size_t min_units,
                                const std::function<double(u64)>& unit) {
  std::vector<double> ms;
  const auto stop = steady::now() + std::chrono::duration<double>(seconds);
  for (u64 i = 0; ms.size() < min_units || steady::now() < stop; ++i) ms.push_back(unit(i));
  return ms;
}

double median_setup_s(int times, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < times; ++i) {
    const auto t0 = steady::now();
    setup();
    s.push_back(ms_between(t0, steady::now()) / 1e3);
  }
  return median(std::move(s));
}

void report_latency(report& r, const std::vector<double>& units, const std::string& clock) {
  const std::string of = std::to_string(units.size()) + " units, " + clock;
  r.set("latency_ms_p50", median(units), "ms");
  r.note("latency_ms_p50", "p50 of " + of);
  const tail_stat t = tail_of(units);
  r.set("latency_ms_tail", t.value, "ms");
  char pcts[160];
  std::snprintf(pcts, sizeof pcts, "; p75 %.4g, p90 %.4g, p95 %.4g, p99 %.4g ms",
                quantile(units, 0.75), quantile(units, 0.90), quantile(units, 0.95),
                quantile(units, 0.99));
  char pct[16];
  std::snprintf(pct, sizeof pct, "p%g", t.percentile);
  r.note("latency_ms_tail", pct + (" of " + of) + pcts);
}

void report_outcome(report& r, const books& b) {
  const double attempted = static_cast<double>(std::max<u64>(b.attempted(), 1));
  r.set("ok_ratio", (attempted - static_cast<double>(b.failed())) / attempted, "ratio");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

unsigned span_log::thread_index() {
  const auto id = std::this_thread::get_id();
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i] == id) return static_cast<unsigned>(i);
  }
  threads_.push_back(id);
  return static_cast<unsigned>(threads_.size() - 1);
}

void span_log::record(const char* layer, const char* name, steady::time_point start,
                      steady::time_point end, u64 unit) {
  const double start_us = std::chrono::duration<double, std::micro>(start - epoch_).count();
  const double dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= kMaxSpans) return;
  spans_.push_back({layer, name, start_us, dur_us, unit, thread_index()});
}

std::vector<span_log::span> span_log::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::string span_log::chrome_events(unsigned pid) const {
  const auto spans = snapshot();
  std::ostringstream os;
  os.precision(15);
  os << R"({"ph":"M","name":"process_name","pid":)" << pid
     << R"(,"tid":0,"args":{"name":"host clock: benchmark spans in us"}})";
  for (const auto& s : spans) {
    os << R"(,{"ph":"X","cat":")" << s.layer << R"(","name":")" << s.name << R"(","pid":)"
       << pid << R"(,"tid":)" << s.tid << R"(,"ts":)" << s.start_us << R"(,"dur":)" << s.dur_us
       << R"(,"args":{"unit":)" << s.unit << "}}";
  }
  return os.str();
}

metered_backend::metered_backend(std::unique_ptr<bpntt::runtime::backend> inner, span_log* spans)
    : inner_(std::move(inner)), spans_(spans) {}

void metered_backend::attach_inner() {
  // The context attaches its executor, residency manager and recorder to
  // this decorator at construction, before any dispatch; hand them on once.
  std::call_once(attached_, [&] {
    inner_->attach_executor(pool_);
    inner_->attach_residency(resman_);
    inner_->attach_recorder(recorder_);
  });
}

template <typename Run>
bpntt::runtime::batch_result metered_backend::metered(const char* name, Run&& run) {
  attach_inner();
  const auto t0 = steady::now();
  auto r = run();
  const auto t1 = steady::now();
  if (spans_ != nullptr) spans_->record("backend", name, t0, t1, unit_.load());
  std::lock_guard<std::mutex> lk(mu_);
  totals_.stats += r.stats;
  totals_.host_ms += ms_between(t0, t1);
  return r;
}

bpntt::runtime::batch_result metered_backend::run_ntt(
    const std::vector<std::vector<u64>>& polys, bpntt::core::transform_dir dir,
    const bpntt::runtime::dispatch_hints& hints) {
  return metered("run_ntt", [&] { return inner_->run_ntt(polys, dir, hints); });
}

bpntt::runtime::batch_result metered_backend::run_polymul(
    const std::vector<bpntt::core::polymul_pair>& pairs,
    const bpntt::runtime::dispatch_hints& hints) {
  return metered("run_polymul", [&] { return inner_->run_polymul(pairs, hints); });
}

bpntt::runtime::batch_result metered_backend::run_rescale(
    const std::vector<bpntt::runtime::rns_rescale_job>& jobs,
    const bpntt::runtime::dispatch_hints& hints) {
  return metered("run_rescale", [&] { return inner_->run_rescale(jobs, hints); });
}

bpntt::runtime::batch_result metered_backend::run_base_extend(
    const std::vector<bpntt::runtime::rns_base_extend_job>& jobs,
    const bpntt::runtime::dispatch_hints& hints) {
  return metered("run_base_extend", [&] { return inner_->run_base_extend(jobs, hints); });
}

metered_backend::totals metered_backend::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return totals_;
}

void report_workload_layers(report& r, const workload_trace& t) {
  const auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };
  const auto d = [](u64 after, u64 before) { return static_cast<double>(after - before); };
  const auto& e0 = t.ops_before.stats;
  const auto& ex = t.ops_exact.stats;
  const auto& e1 = t.ops_after.stats;
  // The op mix over the fixed exact prefix: a count that repeats exactly
  // for a seed, so two builds compare it exactly.
  r.set("sram.ops.binary", per(d(ex.binary_ops, e0.binary_ops), t.exact_units), "count");
  r.set("sram.ops.pair", per(d(ex.pair_ops, e0.pair_ops), t.exact_units), "count");
  r.set("sram.ops.copy", per(d(ex.copy_ops, e0.copy_ops), t.exact_units), "count");
  r.set("sram.ops.shift", per(d(ex.shift_ops, e0.shift_ops), t.exact_units), "count");
  r.set("sram.ops.check", per(d(ex.check_ops, e0.check_ops), t.exact_units), "count");
  r.set("sram.lossless_violations",
        d(e1.lossless_shift_violations, e0.lossless_shift_violations), "count");
  r.set("sram.sim_ops_per_s",
        per(d(e1.total_array_ops(), e0.total_array_ops()), t.traced_ms_total / 1e3), "1/s");

  const auto& s0 = t.before;
  const auto& s1 = t.after;
  r.set("runtime.batches", per(d(s1.batches, s0.batches), t.units), "count");
  r.set("runtime.groups", per(d(s1.groups, s0.groups), t.units), "count");
  r.set("runtime.waves", per(d(s1.waves, s0.waves), t.units), "count");
  const double hits = d(s1.operand_cache_hits, s0.operand_cache_hits);
  const double lookups = hits + d(s1.operand_cache_misses, s0.operand_cache_misses);
  r.set("runtime.residency.hit_ratio", per(hits, lookups), "ratio");
  r.set("runtime.residency.lookups", per(lookups, t.units), "count");
  r.note("runtime.residency.hit_ratio", "base: runtime.residency.lookups per unit");
  r.set("runtime.residency.moves", per(d(s1.residency_moves, s0.residency_moves), t.units),
        "count");
  r.set("runtime.residency.evictions",
        per(d(s1.residency_evictions, s0.residency_evictions), t.units), "count");
  r.set("runtime.residency.rows_peak", static_cast<double>(s1.resident_rows_peak), "rows");
  r.set("runtime.residency.affinity_hits",
        per(d(s1.residency_affinity_hits, s0.residency_affinity_hits), t.units), "count");
  r.set("runtime.groups_merged", per(d(s1.groups_merged, s0.groups_merged), t.units), "count");
  r.set("runtime.preemption_yields",
        per(d(s1.preemption_yields, s0.preemption_yields), t.units), "count");
  r.set("runtime.deadline_misses", per(d(s1.deadline_misses, s0.deadline_misses), t.units),
        "count");

  r.set("telemetry.trace_overhead", per(t.traced_p50_ms, t.untraced_p50_ms), "ratio");
  r.set("telemetry.events_recorded", static_cast<double>(t.trace.events_recorded), "count");
  r.set("telemetry.events_dropped", static_cast<double>(t.trace.events_dropped), "count");
}

namespace {

void merge_host_spans(const std::string& path, const span_log& spans) {
  std::string doc;
  {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("perfbench: cannot read trace " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    doc = ss.str();
  }
  // The library writes {"displayTimeUnit":...,"traceEvents":[...]}; splice
  // the host rows in before the array's closing bracket.
  const auto close = doc.rfind(']');
  if (close == std::string::npos) throw std::runtime_error("perfbench: malformed trace " + path);
  const bool empty = doc.find_last_not_of(" \n\r\t", close - 1) == doc.rfind('[', close);
  doc.insert(close, (empty ? "" : ",") + spans.chrome_events(/*pid=*/1000));
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("perfbench: cannot write trace " + path);
  out << doc;
}

}  // namespace

std::string export_trace(const run_options& o, const std::function<void(const std::string&)>& write,
                         const span_log& spans) {
  std::filesystem::create_directories(o.trace_dir);
  const std::string path =
      o.trace_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
  write(path);
  merge_host_spans(path, spans);
  return path;
}

}  // namespace perfbench

// End-to-end virtual-timeline tracing: a deterministic contended workload
// on the sram backend, traced, exported as Chrome trace-event JSON, and
// cross-checked against the scheduler's own accounting — the reconstructed
// makespan (max span end across bank rows) must equal stats().wall_cycles
// *exactly*, because spans are stamped from the same frontier arithmetic.
// Also pins the disabled path: a context without with_tracing() holds no
// recorder and records zero events across a full workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "nttmath/primes.h"
#include "runtime/context.h"
#include "telemetry/trace.h"

namespace bpntt::runtime {
namespace {

runtime_options small_sram() {
  return runtime_options()
      .with_ring(32, 3137, 13)
      .with_backend(backend_kind::sram)
      .with_array(64, 39)
      .with_subarrays(4);
}

std::vector<u64> random_poly(u64 n, u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> p(n);
  for (auto& c : p) c = rng.below(q);
  return p;
}

bool is_span(telemetry::trace_op op) {
  switch (op) {
    case telemetry::trace_op::ntt_forward:
    case telemetry::trace_op::ntt_inverse:
    case telemetry::trace_op::polymul:
    case telemetry::trace_op::rescale:
    case telemetry::trace_op::base_extend:
      return true;
    default:
      return false;
  }
}

// Two priority-distinct streams contending for both banks, flushed
// back-to-back so their dispatch groups queue against each other.
void run_contended(context& ctx, unsigned rounds) {
  common::xoshiro256ss rng(7);
  for (unsigned round = 0; round < rounds; ++round) {
    auto hi = ctx.stream({.priority = 2});
    auto lo = ctx.stream({.priority = 0});
    for (unsigned i = 0; i < 6; ++i) {
      hi.submit(ntt_job{.coeffs = random_poly(32, 3137, rng)});
      lo.submit(ntt_job{.coeffs = random_poly(32, 3137, rng)});
    }
    hi.flush();
    lo.flush();
    ctx.sync();
    hi.close();
    lo.close();
  }
}

// Structural JSON check: balanced braces/brackets outside strings, with
// escape handling — catches a truncated or unbalanced document without
// pulling in a JSON library.
bool json_is_balanced(const std::string& doc) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : doc) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

std::size_t count_of(const std::string& doc, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceExport, DisabledTracingRecordsZeroEventsAcrossAFullWorkload) {
  context ctx(small_sram().with_topology(2, 1, 2));
  run_contended(ctx, 2);
  const auto probe = ctx.trace_stats();
  EXPECT_FALSE(probe.enabled);
  EXPECT_EQ(probe.events_recorded, 0u);
  EXPECT_EQ(probe.events_dropped, 0u);
  EXPECT_EQ(ctx.tracer(), nullptr);  // zero-cost by absence: no recorder at all
  std::ostringstream os;
  EXPECT_THROW(ctx.export_trace(os), std::logic_error);
}

TEST(TraceExport, ReconstructedMakespanEqualsWallCyclesExactly) {
  context ctx(small_sram().with_topology(2, 1, 2).with_tracing());
  run_contended(ctx, 3);
  ASSERT_NE(ctx.tracer(), nullptr);
  const auto events = ctx.tracer()->snapshot_events();
  u64 makespan = 0;
  std::size_t spans = 0;
  for (const auto& e : events) {
    if (!is_span(e.op)) continue;
    ++spans;
    EXPECT_LT(e.track, telemetry::kTrackScheduler);  // spans ride bank rows
    makespan = std::max(makespan, e.ts + e.dur);
  }
  EXPECT_GT(spans, 0u);
  // Spans are stamped from the scheduler's bank frontiers, so the trace
  // reconstructs the virtual-timeline makespan exactly — not approximately.
  EXPECT_EQ(makespan, ctx.stats().wall_cycles);
  const auto probe = ctx.trace_stats();
  EXPECT_TRUE(probe.enabled);
  EXPECT_GT(probe.events_recorded, 0u);
  EXPECT_EQ(probe.events_dropped, 0u);
}

TEST(TraceExport, StatsSnapshotIsAViewOverTheRegistry) {
  context ctx(small_sram().with_topology(2, 1, 2));
  run_contended(ctx, 2);
  const scheduler_stats s = ctx.stats();
  const auto& reg = ctx.metrics();
  // stats() assembles its snapshot from the registry instruments, so the
  // two surfaces can never disagree once the context is quiescent.
  EXPECT_EQ(reg.counter_value("runtime.jobs_submitted"), s.jobs_submitted);
  EXPECT_EQ(reg.counter_value("runtime.jobs_completed"), s.jobs_completed);
  EXPECT_EQ(reg.counter_value("runtime.groups"), s.groups);
  EXPECT_EQ(reg.counter_value("runtime.batches"), s.batches);
  EXPECT_EQ(reg.gauge_value("runtime.wall_cycles"), s.wall_cycles);
  EXPECT_EQ(reg.counter_value("cache.hits"), s.operand_cache_hits);
  EXPECT_EQ(reg.counter_value("cache.misses"), s.operand_cache_misses);
  EXPECT_GT(s.jobs_completed, 0u);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"runtime.jobs_completed\":" + std::to_string(s.jobs_completed)),
            std::string::npos);
}

TEST(TraceExport, ExportedJsonIsSchemaValidChromeTrace) {
  context ctx(small_sram().with_topology(2, 1, 2).with_tracing());
  run_contended(ctx, 2);
  std::ostringstream os;
  ctx.export_trace(os);
  const std::string doc = os.str();

  // Envelope + structure.
  EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(doc.substr(doc.size() - 3), "]}\n");
  EXPECT_TRUE(json_is_balanced(doc));

  // Every emitted event carries a phase, and every phase is one of the
  // four this exporter speaks (X span, i instant, C counter, M metadata).
  const std::size_t n_events = count_of(doc, "\"ph\":");
  EXPECT_GT(n_events, 0u);
  EXPECT_EQ(count_of(doc, "\"ph\":\"X\"") + count_of(doc, "\"ph\":\"i\"") +
                count_of(doc, "\"ph\":\"C\"") + count_of(doc, "\"ph\":\"M\""),
            n_events);

  // Span rows ("X") match the recorder's span events one-to-one per bank,
  // and each carries a ts + dur extent.
  std::size_t recorded_spans = 0;
  for (const auto& e : ctx.tracer()->snapshot_events()) {
    if (is_span(e.op)) ++recorded_spans;
  }
  EXPECT_EQ(count_of(doc, "\"ph\":\"X\""), recorded_spans);
  EXPECT_EQ(count_of(doc, "\"dur\":"), recorded_spans);
  EXPECT_GT(count_of(doc, "\"ph\":\"i\""), 0u);  // lifecycle instants
  EXPECT_GT(count_of(doc, "\"ph\":\"C\""), 0u);  // counter tracks
  EXPECT_GT(count_of(doc, "\"ph\":\"M\""), 0u);  // pid/tid naming metadata

  // The pid/tid naming rows: channels as processes, banks as threads, and
  // the synthetic tracks behind them.
  EXPECT_NE(doc.find("channel 0"), std::string::npos);
  EXPECT_NE(doc.find("channel 1"), std::string::npos);
  EXPECT_NE(doc.find("bank 0"), std::string::npos);
  EXPECT_NE(doc.find("bank 1"), std::string::npos);
  EXPECT_NE(doc.find("\"scheduler\""), std::string::npos);
  EXPECT_NE(doc.find("\"operand cache\""), std::string::npos);
  EXPECT_NE(doc.find("\"backend\""), std::string::npos);
  EXPECT_NE(doc.find("\"service\""), std::string::npos);
  EXPECT_NE(doc.find("queue_depth"), std::string::npos);
}

TEST(TraceExport, ExportToPathMatchesStreamExport) {
  context ctx(small_sram().with_topology(2, 1, 2).with_tracing());
  run_contended(ctx, 1);
  std::ostringstream os;
  ctx.export_trace(os);
  const std::string path = testing::TempDir() + "bpntt_trace_export_test.json";
  ctx.export_trace(path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream file_contents;
  file_contents << in.rdbuf();
  EXPECT_EQ(file_contents.str(), os.str());
  EXPECT_THROW(ctx.export_trace("/nonexistent-dir/trace.json"), std::runtime_error);
}

// A backend whose transforms wait at a gate until released, so a test can
// hold a job in flight.
class gated_backend final : public backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "gated"; }
  [[nodiscard]] backend_caps capabilities() const override { return {}; }
  batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir,
                       const dispatch_hints&) override {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return released_; });
    return {.outputs = polys, .waves = 1};
  }
  batch_result run_polymul(const std::vector<core::polymul_pair>&,
                           const dispatch_hints&) override {
    throw std::logic_error("unreachable");
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(TraceExport, ExportRefusesWhileJobsAreQueuedOrInFlight) {
  auto owned = std::make_unique<gated_backend>();
  auto* gate = owned.get();
  context ctx(small_sram().with_tracing(), std::move(owned));
  common::xoshiro256ss rng(5);
  const auto id = ctx.submit(ntt_job{.coeffs = random_poly(32, 3137, rng)});
  std::ostringstream os;
  EXPECT_THROW(ctx.export_trace(os), std::logic_error) << "a queued job";

  ctx.flush();
  EXPECT_THROW(ctx.export_trace(os), std::logic_error) << "a job in flight";
  const std::string path = testing::TempDir() + "bpntt_trace_export_refused.json";
  EXPECT_THROW(ctx.export_trace(path), std::logic_error);
  EXPECT_FALSE(std::ifstream(path).good()) << "a refused export creates no file";

  gate->release();
  ctx.sync();
  EXPECT_NO_THROW(ctx.export_trace(os));
  EXPECT_EQ(ctx.wait(id).status, job_status::ok);
}

TEST(TraceExport, HostCrtDispatchesStampABackendBatch) {
  // Rescale and base-extend dispatches run on the host, in the backend base
  // class; they stamp one backend_batch instant each, like the transforms.
  context ctx(small_sram().with_tracing());
  const u64 limb = math::first_k_ntt_primes(12, 32, 1, true).front();
  auto limbs = ctx.rns_stream(limb);
  common::xoshiro256ss rng(6);
  for (int i = 0; i < 2; ++i) {
    (void)limbs.submit(rns_rescale_job{.prime = limb,
                                       .drop_prime = 3137,
                                       .x = random_poly(32, limb, rng),
                                       .dropped = random_poly(32, 3137, rng)});
  }
  (void)limbs.submit(rns_base_extend_job{
      .prime = limb, .source_primes = {3137}, .residues = {random_poly(32, 3137, rng)}});
  limbs.flush();
  ctx.sync();
  ASSERT_EQ(ctx.stats().batches, 2u);  // one rescale and one base-extend dispatch
  std::vector<u64> batch_jobs;
  for (const auto& e : ctx.tracer()->snapshot_events()) {
    if (e.op == telemetry::trace_op::backend_batch) {
      EXPECT_EQ(e.track, telemetry::kTrackBackend);
      batch_jobs.push_back(e.arg);
    }
  }
  std::sort(batch_jobs.begin(), batch_jobs.end());
  EXPECT_EQ(batch_jobs, (std::vector<u64>{1, 2}));
}

}  // namespace
}  // namespace bpntt::runtime

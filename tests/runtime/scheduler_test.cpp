// Scheduler-module tests: the extracted absolute-deadline clamp's
// boundaries, cross-stream batching (merged dispatch with strictly lower
// makespan and bit-identical outputs, per-tenant result distribution,
// merge-eligibility rules), and budget-based preemptive yielding (a
// chunked bulk group gives its banks to an arriving finite-deadline tenant
// between chunks, pinned by a deterministic trace where preemptive EDF
// strictly beats non-preemptive EDF on deadline misses).
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "runtime/context.h"
#include "runtime/scheduler.h"

namespace bpntt::runtime {
namespace {

runtime_options small_sram() {
  return runtime_options()
      .with_ring(32, 193, 9)
      .with_backend(backend_kind::sram)
      .with_array(64, 36)
      .with_subarrays(4);
}

std::vector<u64> random_poly(u64 n, u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> p(n);
  for (auto& c : p) c = rng.below(q);
  return p;
}

// ---- the extracted absolute-deadline clamp ----------------------------------

TEST(AbsoluteDeadline, ZeroBudgetMeansNoDeadline) {
  EXPECT_EQ(absolute_deadline(0, 0), dispatch_group::no_deadline);
  EXPECT_EQ(absolute_deadline(123456, 0), dispatch_group::no_deadline);
  EXPECT_EQ(absolute_deadline(~0ULL, 0), dispatch_group::no_deadline);
}

TEST(AbsoluteDeadline, FiniteBudgetIsFrontierPlusBudget) {
  EXPECT_EQ(absolute_deadline(0, 1), 1u);
  EXPECT_EQ(absolute_deadline(100, 50), 150u);
  EXPECT_EQ(absolute_deadline(1ULL << 40, 1ULL << 20), (1ULL << 40) + (1ULL << 20));
}

TEST(AbsoluteDeadline, OverflowSaturatesToLargestFiniteDeadline) {
  // ref + budget wraps: the deadline must stay *finite* (no_deadline - 1),
  // never the no-deadline sentinel — an astronomic budget still beats "no
  // deadline at all" under EDF.
  EXPECT_EQ(absolute_deadline(1, ~0ULL), dispatch_group::no_deadline - 1);
  EXPECT_EQ(absolute_deadline(~0ULL - 5, 10), dispatch_group::no_deadline - 1);
  EXPECT_EQ(absolute_deadline(~0ULL, ~0ULL), dispatch_group::no_deadline - 1);
}

TEST(AbsoluteDeadline, ExactSentinelBoundaryStaysFinite) {
  // ref + budget lands exactly on the sentinel (no overflow): clamp to the
  // largest finite value.
  EXPECT_EQ(absolute_deadline(0, ~0ULL), dispatch_group::no_deadline - 1);
  EXPECT_EQ(absolute_deadline(1, ~0ULL - 1), dispatch_group::no_deadline - 1);
  // One below the sentinel is representable as-is.
  EXPECT_EQ(absolute_deadline(0, dispatch_group::no_deadline - 1),
            dispatch_group::no_deadline - 1);
}

// ---- scriptable backend for deterministic traces ----------------------------

// Cost-model backend (the edf-test idiom): no bank map, so every group
// contends on the scheduler's single pseudo-resource and dispatch order is
// the pick order.  Cost is either fixed per dispatch (merging amortizes
// dispatches -> lower makespan) or per job (chunking splits a bulk group's
// wall-clock -> preemption window).  The first dispatch can block until
// release() so contending groups pile up in the ready queue first.
class trace_backend final : public backend {
 public:
  struct config {
    u64 cost_per_dispatch = 0;  // added once per non-empty dispatch
    u64 cost_per_job = 0;       // added per job in the dispatch
    bool block_first = false;
  };
  explicit trace_backend(config c) : cfg_(c) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "trace"; }
  [[nodiscard]] backend_caps capabilities() const override {
    backend_caps caps;
    caps.polymul = true;
    return caps;
  }

  batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir,
                       const dispatch_hints& hints) override {
    maybe_block();
    record(hints, polys.size());
    batch_result r;
    r.outputs = polys;  // echo: output identity pins result routing
    r.waves = polys.empty() ? 0 : 1;
    r.wall_cycles = cost(polys.size());
    return r;
  }
  batch_result run_polymul(const std::vector<core::polymul_pair>& pairs,
                           const dispatch_hints& hints) override {
    maybe_block();
    record(hints, pairs.size());
    batch_result r;
    for (const auto& pr : pairs) r.outputs.push_back(pr.a);
    r.waves = pairs.empty() ? 0 : 1;
    r.wall_cycles = cost(pairs.size());
    return r;
  }

  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }
  // (stream id, batch size) per dispatch, in dispatch order.
  [[nodiscard]] std::vector<std::pair<unsigned, std::size_t>> dispatches() const {
    std::lock_guard<std::mutex> lk(mu_);
    return dispatches_;
  }

 private:
  [[nodiscard]] u64 cost(std::size_t jobs) const noexcept {
    return jobs == 0 ? 0 : cfg_.cost_per_dispatch + cfg_.cost_per_job * jobs;
  }
  void maybe_block() {
    std::unique_lock<std::mutex> lk(mu_);
    if (!cfg_.block_first || blocked_once_) return;
    blocked_once_ = true;
    cv_.wait(lk, [&] { return released_; });
  }
  void record(const dispatch_hints& hints, std::size_t jobs) {
    std::lock_guard<std::mutex> lk(mu_);
    dispatches_.emplace_back(hints.stream, jobs);
  }

  config cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_once_ = false;
  bool released_ = false;
  std::vector<std::pair<unsigned, std::size_t>> dispatches_;
};

// ---- cross-stream batching ---------------------------------------------------

// Three contended tenants behind a blocker, fixed cost per dispatch.
// Returns (stats, per-job outputs keyed by submission order, dispatches).
struct merge_trace_result {
  scheduler_stats stats;
  std::vector<std::vector<u64>> outputs;  // one polynomial per job, trace order
  std::vector<std::pair<unsigned, std::size_t>> dispatches;
};

merge_trace_result run_merge_trace(bool merge_on) {
  trace_backend::config cfg;
  cfg.cost_per_dispatch = 1000;
  cfg.block_first = true;
  auto owned = std::make_unique<trace_backend>(cfg);
  auto* rec = owned.get();
  auto opts = small_sram().with_threads(2);
  opts.merge_streams = merge_on;
  context ctx(std::move(opts), std::move(owned));
  common::xoshiro256ss rng(91);  // same seed both runs: identical inputs

  std::vector<job_id> ids;
  (void)ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  ctx.flush();  // the blocker: holds the pseudo-resource in the backend

  std::vector<stream> streams;
  for (int t = 0; t < 3; ++t) {
    streams.push_back(ctx.stream({}));
    for (int j = 0; j < 2; ++j) {
      ids.push_back(streams.back().submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
    }
    streams.back().flush();  // three compatible groups pile up in ready order
  }
  rec->release();
  ctx.sync();

  merge_trace_result out;
  out.stats = ctx.stats();
  for (const job_id id : ids) {
    auto r = ctx.try_wait(id);
    EXPECT_TRUE(r.has_value());
    EXPECT_EQ(r->status, job_status::ok);
    out.outputs.push_back(r->outputs.at(0));
  }
  out.dispatches = rec->dispatches();
  return out;
}

TEST(CrossStreamBatching, MergesContendedGroupsCuttingMakespanWithIdenticalOutputs) {
  const auto unmerged = run_merge_trace(false);
  const auto merged = run_merge_trace(true);

  // Off: the blocker plus one dispatch per tenant group, back to back on
  // the shared resource.  Counters stay zero — the legacy scheduler.
  EXPECT_EQ(unmerged.stats.groups_merged, 0u);
  EXPECT_EQ(unmerged.dispatches.size(), 4u);
  EXPECT_EQ(unmerged.stats.wall_cycles, 4000u);

  // On: the first tenant group absorbs the other two ready groups — one
  // merged dispatch carrying all six jobs after the blocker.
  EXPECT_EQ(merged.stats.groups_merged, 2u);
  ASSERT_EQ(merged.dispatches.size(), 2u);
  EXPECT_EQ(merged.dispatches[1].second, 6u) << "all three tenants share one dispatch";
  EXPECT_EQ(merged.stats.wall_cycles, 2000u);
  EXPECT_LT(merged.stats.wall_cycles, unmerged.stats.wall_cycles)
      << "merged dispatch must strictly lower the contended makespan";

  // Batching moves work, never results: every tenant's jobs come back
  // bit-identical, routed to the same ids.
  EXPECT_EQ(merged.outputs, unmerged.outputs);
  EXPECT_EQ(merged.stats.jobs_completed, unmerged.stats.jobs_completed);
  EXPECT_EQ(merged.stats.deadline_misses, 0u);
}

TEST(CrossStreamBatching, MergedOutputsBitIdenticalOnTheSramBackend) {
  // Same workload through the real in-SRAM model with merging off and on:
  // wait() must hand back byte-identical polynomials either way.
  const auto run = [](bool merge_on) {
    auto opts = small_sram().with_threads(2);
    opts.merge_streams = merge_on;
    context ctx(std::move(opts));
    common::xoshiro256ss rng(92);
    auto s1 = ctx.stream({});
    auto s2 = ctx.stream({});
    std::vector<job_id> ids;
    for (int j = 0; j < 3; ++j) {
      ids.push_back(s1.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
      ids.push_back(s2.submit(
          polymul_job{random_poly(32, 193, rng), random_poly(32, 193, rng)}));
    }
    ctx.flush();  // both groups admitted before any scheduling decision
    std::vector<std::vector<std::vector<u64>>> outs;
    for (const job_id id : ids) outs.push_back(ctx.wait(id).outputs);
    return std::make_pair(std::move(outs), ctx.stats());
  };

  const auto [plain, plain_stats] = run(false);
  const auto [merged, merged_stats] = run(true);
  EXPECT_EQ(plain, merged);
  EXPECT_EQ(plain_stats.groups_merged, 0u);
  EXPECT_GT(merged_stats.groups_merged, 0u) << "the contended flush must actually merge";
}

// ---- budget-based preemptive yielding ---------------------------------------

// The acceptance trace: a no-deadline bulk tenant (8 jobs, 1000 cycles
// each) starts first and holds the shared resource; a deadline tenant
// (budget 4000, measured from its flush at vtime 0) arrives while the bulk
// group's first dispatch is still in the backend.
//   Non-preemptive (chunk_budget 0): the bulk dispatch is indivisible —
//     the tenant starts at 8000 and finishes at 9000, a miss.
//   Preemptive (chunk_budget 2): the bulk group yields after its first
//     two-job chunk (end 2000); the tenant finishes at 3000, a meet, and
//     the bulk remainder resumes.
struct preempt_trace_result {
  scheduler_stats stats;
  std::vector<std::pair<unsigned, std::size_t>> dispatches;
  bool tenant_missed = false;
};

preempt_trace_result run_preempt_trace(u64 bulk_chunk_budget) {
  trace_backend::config cfg;
  cfg.cost_per_job = 1000;
  cfg.block_first = true;
  auto owned = std::make_unique<trace_backend>(cfg);
  auto* rec = owned.get();
  context ctx(small_sram().with_schedule(schedule_policy::edf).with_threads(2),
              std::move(owned));
  common::xoshiro256ss rng(95);

  auto bulk = ctx.stream({.chunk_budget = bulk_chunk_budget});
  std::vector<job_id> bulk_ids;
  for (int j = 0; j < 8; ++j) {
    bulk_ids.push_back(bulk.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
  }
  bulk.flush();  // first chunk enters the backend and blocks

  auto urgent = ctx.stream({.deadline_cycles = 4000});
  const job_id urgent_id = urgent.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  urgent.flush();  // arrives mid-execution; EDF orders it before the bulk
  rec->release();
  ctx.sync();

  preempt_trace_result out;
  out.stats = ctx.stats();
  out.dispatches = rec->dispatches();
  const auto r = ctx.try_wait(urgent_id);
  EXPECT_TRUE(r.has_value());
  out.tenant_missed = r->deadline_missed;
  for (const job_id id : bulk_ids) {
    const auto br = ctx.try_wait(id);
    EXPECT_TRUE(br.has_value());
    EXPECT_EQ(br->status, job_status::ok);
  }
  return out;
}

TEST(PreemptiveYield, PreemptiveEdfStrictlyBeatsNonPreemptiveEdfOnMisses) {
  const auto nonpreempt = run_preempt_trace(/*bulk_chunk_budget=*/0);
  const auto preempt = run_preempt_trace(/*bulk_chunk_budget=*/2);

  // Indivisible bulk dispatch: the tenant overruns its budget.
  EXPECT_EQ(nonpreempt.stats.preemption_yields, 0u);
  EXPECT_EQ(nonpreempt.stats.deadline_misses, 1u);
  EXPECT_TRUE(nonpreempt.tenant_missed);

  // Chunked bulk dispatch: exactly one yield hands the resource over.
  EXPECT_EQ(preempt.stats.preemption_yields, 1u);
  EXPECT_EQ(preempt.stats.deadline_misses, 0u);
  EXPECT_FALSE(preempt.tenant_missed);
  EXPECT_LT(preempt.stats.deadline_misses, nonpreempt.stats.deadline_misses)
      << "preemptive EDF must strictly reduce misses on this trace";

  // Dispatch shape: bulk chunk, the preempting tenant, then the remainder
  // in chunks — the tenant's dispatch is second, not fifth.
  ASSERT_EQ(preempt.dispatches.size(), 5u);
  EXPECT_EQ(preempt.dispatches[0].second, 2u);
  EXPECT_EQ(preempt.dispatches[1].second, 1u) << "the deadline tenant preempts after chunk 1";
  ASSERT_EQ(nonpreempt.dispatches.size(), 2u);
  EXPECT_EQ(nonpreempt.dispatches[0].second, 8u) << "without a budget the bulk runs whole";
}

TEST(PreemptiveYield, ChunkBudgetAloneDoesNotChangeResultsOrMissAccounting) {
  // No contender arrives: a chunked group runs its chunks back to back with
  // no yields, and outputs match the unchunked run bit-for-bit.
  const auto run = [](u64 budget) {
    auto opts = small_sram().with_threads(2);
    context ctx(std::move(opts));
    common::xoshiro256ss rng(96);
    auto s = ctx.stream({.chunk_budget = budget});
    std::vector<job_id> ids;
    for (int j = 0; j < 5; ++j) {
      ids.push_back(s.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
    }
    s.flush();
    std::vector<std::vector<std::vector<u64>>> outs;
    for (const job_id id : ids) outs.push_back(ctx.wait(id).outputs);
    return std::make_pair(std::move(outs), ctx.stats());
  };

  const auto [whole, whole_stats] = run(0);
  const auto [chunked, chunked_stats] = run(2);
  EXPECT_EQ(whole, chunked);
  EXPECT_EQ(chunked_stats.preemption_yields, 0u);
  EXPECT_EQ(chunked_stats.deadline_misses, 0u);
  EXPECT_GT(chunked_stats.batches, whole_stats.batches)
      << "the budget must actually split the dispatch";
}

}  // namespace
}  // namespace bpntt::runtime

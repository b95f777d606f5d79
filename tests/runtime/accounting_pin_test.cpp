// Accounting pin: the runtime's scheduler counters and per-job accounting
// under *combinations* of the scheduling knobs — cross-stream merging on and
// off, chunk budget 0 and 2, priority and EDF — on one fixed mixed workload.
// Every figure below was recorded from the runtime and is asserted exactly
// (energy to 1e-9 relative), so any change to dispatch order, chunk
// boundaries, yield points, merge membership or deadline judgement shows up
// as a diff here even when outputs stay bit-identical.
//
// Determinism: with_threads(1) serializes every dispatch group on one pool
// worker, and the workload is submitted whole and released by a single
// flush, so every scheduling pass after the flush runs on that worker in a
// fixed order.  Aging limit 1 makes passed-over groups outrank running ones,
// which is what produces yields and merges on this small trace.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "nttmath/primes.h"
#include "runtime/context.h"

namespace bpntt::runtime {
namespace {

constexpr u64 kOrder = 32;
constexpr u64 kRingQ = 3137;

u64 limb_prime() { return math::first_k_ntt_primes(12, kOrder, 1, true).front(); }

std::vector<u64> random_poly(u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> p(kOrder);
  for (auto& c : p) c = rng.below(q);
  return p;
}

struct pin_config {
  bool merge = false;
  u64 budget = 0;
  schedule_policy sched = schedule_policy::priority;
};

runtime_options pin_options(const pin_config& c) {
  auto opts = runtime_options()
                  .with_ring(kOrder, kRingQ, 13)
                  .with_backend(backend_kind::sram)
                  .with_array(64, 39)
                  .with_banks(2)
                  .with_threads(1)
                  .with_schedule(c.sched, /*aging=*/1);
  if (c.merge) opts.with_cross_stream_batching();
  return opts;
}

// What one run leaves behind: the counters and, in submission order, each
// job's accounting.
struct pin_result {
  scheduler_stats stats;
  std::vector<job_result> jobs;
};

// One flush over the default stream (plain transforms and products), a
// budgeted deadline stream on the context ring, and a budgeted limb stream
// carrying rescale and base-extend jobs as well.
pin_result run_pinned_workload(context& ctx, u64 budget) {
  const u64 limb = limb_prime();
  auto plain = ctx.stream({.priority = 2, .deadline_cycles = 60'000, .chunk_budget = budget});
  auto limbs = ctx.stream(
      {.priority = 1, .deadline_cycles = 30'000, .ring_q = limb, .chunk_budget = budget});
  common::xoshiro256ss rng(4242);
  std::vector<job_id> ids;
  for (int i = 0; i < 2; ++i) {
    ids.push_back(ctx.submit(ntt_job{.coeffs = random_poly(kRingQ, rng)}));
  }
  ids.push_back(ctx.submit(
      ntt_job{.dir = transform_dir::inverse, .coeffs = random_poly(kRingQ, rng)}));
  ids.push_back(ctx.submit(polymul_job{random_poly(kRingQ, rng), random_poly(kRingQ, rng)}));

  for (int i = 0; i < 3; ++i) {
    ids.push_back(plain.submit(ntt_job{.coeffs = random_poly(kRingQ, rng)}));
  }
  for (int i = 0; i < 2; ++i) {
    ids.push_back(plain.submit(
        ntt_job{.dir = transform_dir::inverse, .coeffs = random_poly(kRingQ, rng)}));
  }
  for (int i = 0; i < 2; ++i) {
    ids.push_back(plain.submit(polymul_job{random_poly(kRingQ, rng), random_poly(kRingQ, rng)}));
  }
  ids.push_back(plain.submit(rns_rescale_job{.prime = kRingQ,
                                             .drop_prime = limb,
                                             .x = random_poly(kRingQ, rng),
                                             .dropped = random_poly(limb, rng)}));
  ids.push_back(plain.submit(rns_base_extend_job{
      .prime = kRingQ, .source_primes = {limb}, .residues = {random_poly(limb, rng)}}));

  for (int i = 0; i < 2; ++i) {
    ids.push_back(limbs.submit(ntt_job{.coeffs = random_poly(limb, rng)}));
  }
  ids.push_back(limbs.submit(
      ntt_job{.dir = transform_dir::inverse, .coeffs = random_poly(limb, rng)}));
  for (int i = 0; i < 2; ++i) {
    ids.push_back(limbs.submit(polymul_job{random_poly(limb, rng), random_poly(limb, rng)}));
  }
  for (int i = 0; i < 2; ++i) {
    ids.push_back(limbs.submit(rns_rescale_job{.prime = limb,
                                               .drop_prime = kRingQ,
                                               .x = random_poly(limb, rng),
                                               .dropped = random_poly(kRingQ, rng),
                                               .congruence = 2}));
  }
  ids.push_back(limbs.submit(rns_base_extend_job{
      .prime = limb, .source_primes = {kRingQ}, .residues = {random_poly(kRingQ, rng)}}));
  ctx.sync();
  pin_result out;
  out.stats = ctx.stats();
  for (const job_id id : ids) {
    auto r = ctx.try_wait(id);
    if (!r) ADD_FAILURE() << "job " << id << " still pending after sync()";
    out.jobs.push_back(r ? std::move(*r) : job_result{});
  }
  return out;
}

// One job's accounting, compactly: finish_cycles / jobs_in_batch, then "!"
// for a deadline miss and "x" for a failed job.
std::string job_key(const job_result& r) {
  std::string k = std::to_string(r.finish_cycles) + "/" + std::to_string(r.jobs_in_batch);
  if (r.deadline_missed) k += "!";
  if (r.status == job_status::failed) k += "x";
  return k;
}

std::string jobs_key(const std::vector<job_result>& jobs) {
  std::string k;
  for (const auto& r : jobs) k += (k.empty() ? "" : " ") + job_key(r);
  return k;
}

struct pinned {
  u64 batches, waves, groups, groups_merged, preemption_yields, wall_cycles, deadline_misses;
  double energy_nj;
  const char* jobs;
};

void expect_pinned(const pin_result& got, const pinned& want, const std::string& label) {
  const auto& s = got.stats;
  EXPECT_EQ(s.batches, want.batches) << label;
  EXPECT_EQ(s.waves, want.waves) << label;
  EXPECT_EQ(s.groups, want.groups) << label;
  EXPECT_EQ(s.groups_merged, want.groups_merged) << label;
  EXPECT_EQ(s.preemption_yields, want.preemption_yields) << label;
  EXPECT_EQ(s.wall_cycles, want.wall_cycles) << label;
  EXPECT_EQ(s.deadline_misses, want.deadline_misses) << label;
  EXPECT_NEAR(s.energy_nj, want.energy_nj, 1e-9 * std::fabs(want.energy_nj)) << label;
  EXPECT_EQ(jobs_key(got.jobs), want.jobs) << label;
  // Print the run's figures on a mismatch, ready to compare line by line.
  if (::testing::Test::HasFailure()) {
    std::printf("%s: {%llu, %llu, %llu, %llu, %llu, %llu, %llu, %.17g,\n \"%s\"}\n",
                label.c_str(), static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.waves),
                static_cast<unsigned long long>(s.groups),
                static_cast<unsigned long long>(s.groups_merged),
                static_cast<unsigned long long>(s.preemption_yields),
                static_cast<unsigned long long>(s.wall_cycles),
                static_cast<unsigned long long>(s.deadline_misses), s.energy_nj,
                jobs_key(got.jobs).c_str());
  }
}

struct pin_case {
  pin_config config;
  pinned want;
};

std::string label_of(const pin_config& c) {
  return std::string(c.merge ? "merge" : "solo") + "/budget" + std::to_string(c.budget) + "/" +
         (c.sched == schedule_policy::edf ? "edf" : "priority");
}

TEST(AccountingPin, KnobCombinationsOnTheSramBackend) {
  const pin_case cases[] = {
      {{.merge = false, .budget = 0, .sched = schedule_policy::priority},
       {13, 14, 3, 0, 0, 228200, 10, 23.794909440008816,
        "131180/2 131180/2 154465/1 228200/1 17719/3 17719/3 17719/3 39747/2 39747/2 "
        "111898/2! 111898/2! 111898/1! 111898/1! 19036/2 19036/2 42086/1! 95218/2! 95218/2! "
        "95218/2! 95218/2! 95218/1!"}},
      {{.merge = false, .budget = 0, .sched = schedule_policy::edf},
       {13, 14, 3, 0, 0, 228200, 10, 23.794909440008816,
        "131180/2 131180/2 154465/1 228200/1 17719/3 17719/3 17719/3 39747/2 39747/2 "
        "111898/2! 111898/2! 111898/1! 111898/1! 19036/2 19036/2 42086/1! 95218/2! 95218/2! "
        "95218/2! 95218/2! 95218/1!"}},
      {{.merge = false, .budget = 2, .sched = schedule_policy::priority},
       {14, 15, 3, 0, 2, 248796, 13, 25.221404560018605,
        "38408/2 38408/2 61693/1 133346/1 19126/2 19126/2 151623/1! 175097/2! 175097/2! "
        "248796/2! 248796/2! 248796/1! 248796/1! 19036/2 19036/2 156396/1! 209528/2! "
        "209528/2! 209528/2! 209528/2! 209528/1!"}},
      {{.merge = false, .budget = 2, .sched = schedule_policy::edf},
       {14, 15, 3, 0, 2, 248796, 13, 25.221404560018605,
        "38408/2 38408/2 61693/1 133346/1 19126/2 19126/2 151623/1! 175097/2! 175097/2! "
        "248796/2! 248796/2! 248796/1! 248796/1! 19036/2 19036/2 156396/1! 209528/2! "
        "209528/2! 209528/2! 209528/2! 209528/1!"}},
      {{.merge = true, .budget = 0, .sched = schedule_policy::priority},
       {10, 11, 3, 1, 0, 206375, 12, 16.880875159981731,
        "19282/5 19282/5 41331/3 111157/3 19282/5 19282/5 19282/5 41331/3 41331/3 111157/3! "
        "111157/3! 111157/1! 111157/1! 130193/2! 130193/2! 153243/1! 206375/2! 206375/2! "
        "206375/2! 206375/2! 206375/1!"}},
      {{.merge = true, .budget = 0, .sched = schedule_policy::edf},
       {13, 14, 3, 0, 0, 228200, 10, 23.794909440008816,
        "131180/2 131180/2 154465/1 228200/1 17719/3 17719/3 17719/3 39747/2 39747/2 "
        "111898/2! 111898/2! 111898/1! 111898/1! 19036/2 19036/2 42086/1! 95218/2! 95218/2! "
        "95218/2! 95218/2! 95218/1!"}},
      {{.merge = true, .budget = 2, .sched = schedule_policy::priority},
       {10, 11, 3, 1, 0, 206375, 12, 16.880875159981731,
        "19282/5 19282/5 41331/3 111157/3 19282/5 19282/5 19282/5 41331/3 41331/3 111157/3! "
        "111157/3! 111157/1! 111157/1! 130193/2! 130193/2! 153243/1! 206375/2! 206375/2! "
        "206375/2! 206375/2! 206375/1!"}},
      {{.merge = true, .budget = 2, .sched = schedule_policy::edf},
       {11, 12, 3, 1, 2, 204932, 10, 16.872596539982705,
        "36875/3 36875/3 58924/3 128750/3 19126/2 19126/2 36875/3 58924/3 58924/3 128750/3! "
        "128750/3! 128750/1! 128750/1! 19036/2 19036/2 151800/1! 204932/2! 204932/2! "
        "204932/2! 204932/2! 204932/1!"}},
  };
  for (const pin_case& pc : cases) {
    context ctx(pin_options(pc.config));
    expect_pinned(run_pinned_workload(ctx, pc.config.budget), pc.want, label_of(pc.config));
  }
}

// Back-to-back flushes: each round flushes stream A alone, syncs, then
// flushes A and B together and syncs again, on a 2-bank device where A sits
// on bank 0 and B on bank 1.  The second flush merges B into A's dispatch
// only when A's earlier group has already released bank 0, so every count
// below depends on sync() returning after the release, not merely after
// the last job completed.  Pinned at 1 and 4 pool threads: the figures
// must not depend on pool timing.
TEST(AccountingPin, BackToBackFlushesScheduleOnReleasedBanks) {
  constexpr unsigned kRounds = 300;
  for (const unsigned threads : {1u, 4u}) {
    context ctx(runtime_options()
                    .with_ring(kOrder, kRingQ, 13)
                    .with_backend(backend_kind::sram)
                    .with_array(64, 39)
                    .with_banks(2)
                    .with_threads(threads)
                    .with_cross_stream_batching());
    auto a = ctx.stream();
    auto b = ctx.stream();
    ASSERT_EQ(a.bank_set(), std::vector<unsigned>{0u});
    ASSERT_EQ(b.bank_set(), std::vector<unsigned>{1u});
    common::xoshiro256ss rng(77);
    for (unsigned round = 0; round < kRounds; ++round) {
      (void)a.submit(ntt_job{.coeffs = random_poly(kRingQ, rng)});
      ctx.flush();
      ctx.sync();
      (void)a.submit(ntt_job{.coeffs = random_poly(kRingQ, rng)});
      (void)b.submit(ntt_job{.coeffs = random_poly(kRingQ, rng)});
      ctx.flush();
      ctx.sync();
    }
    const scheduler_stats s = ctx.stats();
    const std::string label = std::to_string(threads) + " threads";
    EXPECT_EQ(s.groups, 3u * kRounds) << label;
    EXPECT_EQ(s.groups_merged, kRounds) << label;
    EXPECT_EQ(s.batches, 2u * kRounds) << label;
    EXPECT_EQ(s.wall_cycles, 11'497'245u) << label;
    EXPECT_EQ(s.jobs_completed, 3u * kRounds) << label;
  }
}

// A stub whose third dispatch throws: the failed dispatch's jobs fail, every
// sibling dispatch still completes, and the counters account only for the
// dispatches that ran.  Every dispatch costs 100 cycles plus 10 per job.
// The failed dispatch merges two streams' jobs (2 + 1); each failed job
// reports all 3, as a completed job of a merged dispatch does.
class failing_backend final : public backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "stub"; }
  [[nodiscard]] backend_caps capabilities() const override {
    backend_caps caps;
    caps.polymul = true;
    caps.bank_lanes = {4, 4};
    return caps;
  }
  batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir,
                       const dispatch_hints&) override {
    return echo(polys);
  }
  batch_result run_polymul(const std::vector<core::polymul_pair>& pairs,
                           const dispatch_hints&) override {
    std::vector<std::vector<u64>> as;
    for (const auto& p : pairs) as.push_back(p.a);
    return echo(as);
  }
  batch_result run_rescale(const std::vector<rns_rescale_job>& jobs,
                           const dispatch_hints&) override {
    std::vector<std::vector<u64>> xs;
    for (const auto& j : jobs) xs.push_back(j.x);
    return echo(xs);
  }
  batch_result run_base_extend(const std::vector<rns_base_extend_job>& jobs,
                               const dispatch_hints&) override {
    std::vector<std::vector<u64>> rs;
    for (const auto& j : jobs) rs.push_back(j.residues.front());
    return echo(rs);
  }

 private:
  batch_result echo(const std::vector<std::vector<u64>>& polys) {
    if (++dispatches_ == 3) throw std::runtime_error("stub backend: third dispatch fails");
    batch_result r;
    r.outputs = polys;
    r.wall_cycles = 100 + 10 * polys.size();
    r.stats.cycles = r.wall_cycles;
    r.stats.energy_pj = 1000.0 * static_cast<double>(polys.size());
    r.waves = 1;
    return r;
  }
  std::atomic<unsigned> dispatches_{0};
};

TEST(AccountingPin, StubBackendWithOneThrowingDispatch) {
  const pin_config config{.merge = true, .budget = 2, .sched = schedule_policy::edf};
  context ctx(pin_options(config), std::make_unique<failing_backend>());
  const pinned want = {
      10, 10, 3, 1, 2, 1060, 0, 18,
      "0/3x 0/3x 250/3 380/3 120/2 120/2 0/3x 250/3 250/3 380/3 380/3 490/1 600/1 120/2 "
      "120/2 710/1 830/2 830/2 950/2 950/2 1060/1"};
  expect_pinned(run_pinned_workload(ctx, config.budget), want, "stub/" + label_of(config));
}

}  // namespace
}  // namespace bpntt::runtime

#include "runtime/context.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/xoshiro.h"
#include "crypto/rlwe.h"
#include "nttmath/ntt.h"
#include "nttmath/poly.h"

namespace bpntt::runtime {
namespace {

// Small ring on a small array so every scheduling path stays fast: 4 lanes
// per subarray, 3 compute subarrays per bank.
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

TEST(RuntimeContext, SubmitWaitRoundTripsEveryJob) {
  context ctx(small_sram());
  const auto& p = ctx.options().params;
  const math::ntt_tables tables(p.n, p.q, true);
  common::xoshiro256ss rng(1);

  std::vector<job_id> ids;
  std::vector<std::vector<u64>> inputs;
  for (unsigned i = 0; i < 2 * ctx.wave_width() + 5; ++i) {  // 2 full waves + ragged tail
    inputs.push_back(random_poly(p.n, p.q, rng));
    ids.push_back(ctx.submit(ntt_job{.coeffs = inputs.back()}));
  }
  EXPECT_EQ(ctx.pending(), ids.size());

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto r = ctx.wait(ids[i]);
    auto expect = inputs[i];
    math::ntt_forward(expect, tables);
    ASSERT_EQ(r.outputs.size(), 1u);
    ASSERT_EQ(r.outputs[0], expect) << "job " << i;
    EXPECT_EQ(r.jobs_in_batch, ids.size());
    EXPECT_GT(r.wall_cycles, 0u);
  }
  EXPECT_EQ(ctx.pending(), 0u);
  EXPECT_EQ(ctx.stats().jobs_completed, ids.size());
  EXPECT_EQ(ctx.stats().batches, 1u);  // one flush, one kind: one dispatch
}

TEST(RuntimeContext, WaitConsumesAndRejectsUnknownIds) {
  context ctx(small_sram());
  common::xoshiro256ss rng(2);
  const auto id = ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  // The three wait() failure modes carry distinct messages: unknown id,
  // already-claimed result, and (tested with the stub backend below) a
  // failed dispatch.
  EXPECT_THROW((void)ctx.wait(0), std::out_of_range);  // 0 is never issued
  try {
    (void)ctx.wait(id + 1);  // never submitted
    FAIL() << "unknown id must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "runtime: unknown job id");
  }
  (void)ctx.wait(id);
  try {
    (void)ctx.wait(id);  // already claimed
    FAIL() << "claimed id must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "runtime: job result already claimed");
  }
}

TEST(RuntimeContext, FlushPartitionsByKindAndDirection) {
  context ctx(small_sram());
  const auto& p = ctx.options().params;
  common::xoshiro256ss rng(3);
  // Interleave forward transforms, inverse transforms and ring products:
  // one flush must produce exactly three dispatches.
  for (int i = 0; i < 3; ++i) {
    (void)ctx.submit(ntt_job{.coeffs = random_poly(p.n, p.q, rng)});
    (void)ctx.submit(
        ntt_job{.dir = transform_dir::inverse, .coeffs = random_poly(p.n, p.q, rng)});
    (void)ctx.submit(polymul_job{.a = random_poly(p.n, p.q, rng),
                                 .b = random_poly(p.n, p.q, rng)});
  }
  ctx.flush();  // async: schedules and returns
  EXPECT_EQ(ctx.pending(), 0u);
  ctx.sync();  // block until the executor drained the dispatches
  EXPECT_EQ(ctx.stats().batches, 3u);
  EXPECT_EQ(ctx.stats().jobs_completed, 9u);
  EXPECT_EQ(ctx.stats().jobs_in_flight, 0u);
}

TEST(RuntimeContext, ForwardThenInverseRestoresInput) {
  context ctx(small_sram());
  const auto& p = ctx.options().params;
  common::xoshiro256ss rng(4);
  const auto input = random_poly(p.n, p.q, rng);
  const auto fwd = ctx.wait(ctx.submit(ntt_job{.coeffs = input}));
  const auto back = ctx.wait(
      ctx.submit(ntt_job{.dir = transform_dir::inverse, .coeffs = fwd.outputs[0]}));
  EXPECT_EQ(back.outputs[0], input);
}

TEST(RuntimeContext, PolymulMatchesSchoolbook) {
  context ctx(small_sram());
  const auto& p = ctx.options().params;
  common::xoshiro256ss rng(5);
  const auto a = random_poly(p.n, p.q, rng);
  const auto b = random_poly(p.n, p.q, rng);
  const auto r = ctx.wait(ctx.submit(polymul_job{.a = a, .b = b}));
  EXPECT_EQ(r.outputs[0], math::schoolbook_negacyclic(a, b, p.q));
}

TEST(RuntimeContext, RlweJobDecryptsAndIsSeedDeterministic) {
  context ctx(small_sram());
  const crypto::rlwe_client client(crypto::runtime_ring(ctx.options()),
                                   crypto::batch_polymul_on(ctx, ctx.stream()));
  const auto& p = ctx.options().params;
  common::xoshiro256ss rng(6);
  std::vector<u64> message(p.n);
  for (auto& m : message) m = rng.below(2);

  const auto r1 = client.run({{.message = message, .seed = 77}}).front();
  EXPECT_EQ(r1.decrypted, message);  // decrypt round-trip
  EXPECT_GT(ctx.stats().wall_cycles, 0u);

  // Same seed, same backend: bit-identical ciphertext.  Different seed:
  // fresh randomness.
  const auto r2 = client.run({{.message = message, .seed = 77}}).front();
  EXPECT_EQ(r1.ct.u, r2.ct.u);
  EXPECT_EQ(r1.ct.v, r2.ct.v);
  const auto r3 = client.run({{.message = message, .seed = 78}}).front();
  EXPECT_NE(r1.ct.u, r3.ct.u);
}

TEST(RuntimeContext, SubmitValidatesJobsAgainstRingAndBackend) {
  context ctx(small_sram());
  common::xoshiro256ss rng(7);
  // Wrong length and non-canonical coefficients.
  EXPECT_THROW((void)ctx.submit(ntt_job{.coeffs = std::vector<u64>(16, 0)}),
               std::invalid_argument);
  EXPECT_THROW((void)ctx.submit(ntt_job{.coeffs = std::vector<u64>(32, 193)}),
               std::invalid_argument);
  // Polymul needs 2n <= data_rows: shrink the array so it no longer fits.
  context tight(runtime_options(small_sram()).with_array(32, 36));
  EXPECT_THROW((void)tight.submit(polymul_job{.a = random_poly(32, 193, rng),
                                              .b = random_poly(32, 193, rng)}),
               std::invalid_argument);
  // R-LWE needs a full negacyclic NTT ring.
  context kyber(runtime_options()
                    .with_ring(256, 3329, 13, /*incomplete=*/true)
                    .with_backend(backend_kind::reference));
  EXPECT_THROW(crypto::rlwe_client(crypto::runtime_ring(kyber.options()),
                                   crypto::batch_polymul_on(kyber, kyber.stream())),
               std::invalid_argument);
}

TEST(RuntimeContext, MultiBankShardingKeepsJobOrder) {
  auto opts = small_sram().with_banks(3);
  context ctx(opts);
  const auto& p = ctx.options().params;
  const math::ntt_tables tables(p.n, p.q, true);
  common::xoshiro256ss rng(8);
  // 3 banks x 12 lanes = 36-wide waves; 40 jobs exercises the round-robin
  // block assignment plus a ragged tail on bank 0.
  EXPECT_EQ(ctx.wave_width(), 36u);
  std::vector<std::vector<u64>> inputs;
  for (unsigned i = 0; i < 40; ++i) {
    inputs.push_back(random_poly(p.n, p.q, rng));
    (void)ctx.submit(ntt_job{.coeffs = inputs.back()});
  }
  const auto results = ctx.wait_all();
  ASSERT_EQ(results.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto expect = inputs[i];
    math::ntt_forward(expect, tables);
    ASSERT_EQ(results[i].outputs[0], expect) << "job " << i;
  }
  EXPECT_EQ(ctx.stats().batches, 1u);
  EXPECT_EQ(ctx.stats().waves, 4u);  // blocks of 12: banks get 2+1+1 waves
}

TEST(RuntimeContext, BackendsReportTheirIdentity) {
  context sram(small_sram());
  EXPECT_EQ(sram.active_backend().name(), "sram");
  EXPECT_GT(sram.wave_width(), 0u);

  context cpu(runtime_options(small_sram()).with_backend(backend_kind::cpu));
  EXPECT_EQ(cpu.active_backend().name(), "cpu");
  EXPECT_EQ(cpu.wave_width(), 0u);  // unbounded batches

  context ref(runtime_options(small_sram()).with_backend(backend_kind::reference));
  EXPECT_EQ(ref.active_backend().name(), "reference");
}

TEST(RuntimeContext, ReferenceBackendIsFree) {
  context ctx(runtime_options(small_sram()).with_backend(backend_kind::reference));
  common::xoshiro256ss rng(9);
  const auto r = ctx.wait(ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
  EXPECT_EQ(r.wall_cycles, 0u);
  EXPECT_EQ(r.op_stats.energy_pj, 0.0);
}

TEST(RuntimeContext, CpuBackendNeverReportsZeroCyclesForNonEmptyBatches) {
  // A tiny batch can finish inside one clock tick; the backend clamps to
  // one core cycle so throughput/energy division stays well-defined.
  context ctx(runtime_options(small_sram()).with_backend(backend_kind::cpu));
  common::xoshiro256ss rng(10);
  const auto r = ctx.wait(ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
  EXPECT_GE(r.wall_cycles, 1u);
  EXPECT_GT(r.op_stats.energy_pj, 0.0);
}

TEST(RuntimeContext, AsyncFlushReturnsBeforeResultsAndWaitBlocks) {
  auto opts = small_sram().with_banks(2).with_threads(4);
  context ctx(opts);
  EXPECT_EQ(ctx.executor_threads(), 4u);
  const auto& p = ctx.options().params;
  common::xoshiro256ss rng(11);
  std::vector<job_id> ids;
  for (unsigned i = 0; i < 30; ++i) {
    ids.push_back(ctx.submit(ntt_job{.coeffs = random_poly(p.n, p.q, rng)}));
  }
  ctx.flush();
  EXPECT_EQ(ctx.pending(), 0u);  // handed to the executor
  for (const auto id : ids) {
    const auto r = ctx.wait(id);  // blocks on the per-job completion state
    EXPECT_EQ(r.status, job_status::ok);
  }
  const auto s = ctx.stats();
  EXPECT_EQ(s.jobs_completed, ids.size());
  EXPECT_EQ(s.jobs_in_flight, 0u);
  EXPECT_EQ(s.jobs_failed, 0u);
}

// ---- Stub backends: failure injection and contract checks ------------------

// A scriptable backend: echoes inputs, optionally throwing on transforms or
// returning a short output vector.
class scripted_backend final : public backend {
 public:
  enum class mode { echo, throw_on_ntt, short_outputs };
  explicit scripted_backend(mode m) : mode_(m) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "stub"; }
  [[nodiscard]] backend_caps capabilities() const override {
    backend_caps caps;
    caps.polymul = true;
    return caps;
  }

  batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir,
                       const dispatch_hints&) override {
    if (mode_ == mode::throw_on_ntt) {
      throw std::runtime_error("stub backend: transform unit on fire");
    }
    batch_result r;
    r.outputs = polys;
    if (mode_ == mode::short_outputs && !r.outputs.empty()) r.outputs.pop_back();
    r.waves = polys.empty() ? 0 : 1;
    return r;
  }
  batch_result run_polymul(const std::vector<core::polymul_pair>& pairs,
                           const dispatch_hints&) override {
    batch_result r;
    for (const auto& pr : pairs) r.outputs.push_back(pr.a);
    r.waves = pairs.empty() ? 0 : 1;
    return r;
  }

 private:
  mode mode_;
};

context stub_context(scripted_backend::mode m) {
  return context(small_sram(), std::make_unique<scripted_backend>(m));
}

TEST(RuntimeContext, BackendThrowFailsOnlyItsOwnDispatch) {
  auto ctx = stub_context(scripted_backend::mode::throw_on_ntt);
  common::xoshiro256ss rng(12);
  const auto ntt1 = ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  const auto ntt2 = ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  const auto mul1 = ctx.submit(
      polymul_job{.a = random_poly(32, 193, rng), .b = random_poly(32, 193, rng)});
  ctx.sync();

  // Sibling dispatch (the polymul group) survives the ntt group's failure.
  const auto ok = ctx.wait(mul1);
  EXPECT_EQ(ok.status, job_status::ok);
  ASSERT_EQ(ok.outputs.size(), 1u);

  // The failed jobs surface the backend's real error — not the old
  // "job result already claimed" misreport.
  try {
    (void)ctx.wait(ntt1);
    FAIL() << "failed job must throw job_failed_error";
  } catch (const job_failed_error& e) {
    EXPECT_EQ(e.id(), ntt1);
    EXPECT_NE(std::string(e.what()).find("transform unit on fire"), std::string::npos);
  }
  // try_wait reports the same failure through job_result instead of throwing.
  const auto failed = ctx.try_wait(ntt2);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status, job_status::failed);
  EXPECT_NE(failed->error.find("transform unit on fire"), std::string::npos);
  EXPECT_TRUE(failed->outputs.empty());

  const auto s = ctx.stats();
  EXPECT_EQ(s.jobs_failed, 2u);
  EXPECT_EQ(s.jobs_completed, 1u);
  EXPECT_EQ(s.jobs_in_flight, 0u);
}

TEST(RuntimeContext, WaitAllReportsFailedJobsThroughJobResult) {
  auto ctx = stub_context(scripted_backend::mode::throw_on_ntt);
  common::xoshiro256ss rng(13);
  (void)ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  (void)ctx.submit(
      polymul_job{.a = random_poly(32, 193, rng), .b = random_poly(32, 193, rng)});
  const auto all = ctx.wait_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].status, job_status::failed);  // submission order: the ntt job
  EXPECT_NE(all[0].error.find("transform unit on fire"), std::string::npos);
  EXPECT_EQ(all[1].status, job_status::ok);
}

TEST(RuntimeContext, FailedJobsOfAMergedDispatchReportTheWholeDispatch) {
  // Two streams of 2 and 3 transforms flushed together ride one merged
  // dispatch; when it throws, every failed job reports the dispatch's 5
  // jobs, as a completed job of the same dispatch would.
  context ctx(small_sram().with_cross_stream_batching(),
              std::make_unique<scripted_backend>(scripted_backend::mode::throw_on_ntt));
  common::xoshiro256ss rng(14);
  auto a = ctx.stream();
  auto b = ctx.stream();
  std::vector<job_id> ids;
  for (int i = 0; i < 2; ++i) ids.push_back(a.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
  for (int i = 0; i < 3; ++i) ids.push_back(b.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
  ctx.sync();
  ASSERT_EQ(ctx.stats().groups_merged, 1u);
  for (const job_id id : ids) {
    const auto r = ctx.try_wait(id);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, job_status::failed);
    EXPECT_EQ(r->jobs_in_batch, 5u) << "job " << id;
  }
}

TEST(RuntimeContext, ShortBackendResultFailsLoudlyInsteadOfMisrouting) {
  auto ctx = stub_context(scripted_backend::mode::short_outputs);
  common::xoshiro256ss rng(14);
  std::vector<job_id> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
  }
  ctx.sync();
  for (const auto id : ids) {
    const auto r = ctx.try_wait(id);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, job_status::failed);
    EXPECT_NE(r->error.find("backend returned 2 outputs for a dispatch of 3 jobs"),
              std::string::npos)
        << r->error;
  }
}

TEST(RuntimeContext, TryWaitProbesWithoutBlockingOrFlushing) {
  context ctx(small_sram());
  common::xoshiro256ss rng(15);
  const auto id = ctx.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  EXPECT_THROW((void)ctx.try_wait(id + 1), std::out_of_range);
  // Still queued: try_wait neither blocks nor triggers the flush.
  EXPECT_FALSE(ctx.try_wait(id).has_value());
  EXPECT_EQ(ctx.pending(), 1u);
  ctx.sync();
  const auto r = ctx.try_wait(id);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, job_status::ok);
  EXPECT_THROW((void)ctx.try_wait(id), std::out_of_range);  // claimed
}

TEST(RuntimeContext, OversizedPoolIsRejectedBeforeAnyThreadSpawns) {
  // Both constructors vet the pool size up front — an absurd with_threads()
  // must throw invalid_argument, not attempt the spawn first.
  EXPECT_THROW(context(small_sram().with_threads(300)), std::invalid_argument);
  EXPECT_THROW(context(small_sram().with_threads(300),
                       std::make_unique<scripted_backend>(scripted_backend::mode::echo)),
               std::invalid_argument);
}

TEST(RuntimeContext, RlweJobsShareStagedProductBatches) {
  // Three R-LWE requests run together: the keygen products run as one
  // dispatch, the encrypt products as one, the decrypt products as one — 3
  // batches, not 4 per request — and outputs stay bit-identical to
  // isolated runs.
  context batched(small_sram());
  const auto ring = crypto::runtime_ring(batched.options());
  common::xoshiro256ss rng(16);
  std::vector<crypto::rlwe_request> requests;
  for (int t = 0; t < 3; ++t) {
    std::vector<u64> msg(ring.n);
    for (auto& m : msg) m = rng.below(2);
    requests.push_back({.message = msg, .seed = 400 + static_cast<u64>(t)});
  }
  const auto got =
      crypto::rlwe_client(ring, crypto::batch_polymul_on(batched, batched.stream())).run(requests);
  EXPECT_EQ(batched.stats().batches, 3u);
  EXPECT_EQ(batched.stats().jobs_completed, 12u);  // four ring products per request

  for (std::size_t t = 0; t < requests.size(); ++t) {
    EXPECT_EQ(got[t].decrypted, requests[t].message) << "round-trip, request " << t;
    // One request per context: the serial path the staged flow must match.
    context solo(small_sram());
    const crypto::rlwe_client serial(ring, crypto::batch_polymul_on(solo, solo.stream()));
    const auto want = serial.run({requests[t]}).front();
    EXPECT_EQ(got[t].ct.u, want.ct.u) << "ciphertext u, request " << t;
    EXPECT_EQ(got[t].ct.v, want.ct.v) << "ciphertext v, request " << t;
  }
}

}  // namespace
}  // namespace bpntt::runtime

// Cross-backend differential tests: identical job batches submitted to the
// sram, cpu and reference backends must produce bit-identical outputs.
// This is the runtime's core guarantee — the in-SRAM model is exact, the
// Montgomery software path is exact, and the golden transform arbitrates —
// exercised at the PQC parameter points the paper targets: the
// round-1-Kyber-class complete transform, standardized Kyber's incomplete
// transform, and Dilithium's 23-bit modulus.
#include <gtest/gtest.h>

#include "common/xoshiro.h"
#include "crypto/rlwe.h"
#include "runtime/context.h"

namespace bpntt::runtime {
namespace {

std::vector<u64> random_poly(u64 n, u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> p(n);
  for (auto& c : p) c = rng.below(q);
  return p;
}

// Submit the same mixed forward/inverse batch to one context per backend
// and compare all outputs pairwise.
void expect_backends_agree(const runtime_options& base, unsigned forward_jobs,
                           unsigned inverse_jobs, u64 seed) {
  const auto& p = base.params;
  common::xoshiro256ss rng(seed);
  std::vector<ntt_job> jobs;
  for (unsigned i = 0; i < forward_jobs; ++i) {
    jobs.push_back(ntt_job{.coeffs = random_poly(p.n, p.q, rng)});
  }
  for (unsigned i = 0; i < inverse_jobs; ++i) {
    jobs.push_back(ntt_job{.dir = transform_dir::inverse,
                           .coeffs = random_poly(p.n, p.q, rng)});
  }

  std::vector<std::vector<job_result>> per_backend;
  std::vector<std::string> names;
  for (const auto kind : {backend_kind::sram, backend_kind::cpu, backend_kind::reference}) {
    context ctx(runtime_options(base).with_backend(kind));
    for (const auto& j : jobs) (void)ctx.submit(j);
    per_backend.push_back(ctx.wait_all());
    names.emplace_back(to_string(kind));
  }

  for (std::size_t b = 1; b < per_backend.size(); ++b) {
    ASSERT_EQ(per_backend[b].size(), per_backend[0].size());
    for (std::size_t i = 0; i < per_backend[0].size(); ++i) {
      ASSERT_EQ(per_backend[b][i].outputs[0], per_backend[0][i].outputs[0])
          << names[b] << " vs " << names[0] << ", job " << i;
    }
  }
}

TEST(CrossBackendDifferential, CompleteTransformKyberCompatShaped) {
  // n=256 over the round-1 Kyber prime: the full negacyclic transform.
  const auto opts = runtime_options().with_ring(256, 7681, 14).with_subarrays(2);
  expect_backends_agree(opts, /*forward_jobs=*/opts.bank().array.cols / 14 + 3,
                        /*inverse_jobs=*/4, /*seed=*/101);
}

TEST(CrossBackendDifferential, IncompleteTransformKyberShaped) {
  // Standardized Kyber: n=256, q=3329 only supports the one-layer-short
  // transform (256 | q-1 but 512 does not divide q-1).
  const auto opts =
      runtime_options().with_ring(256, 3329, 13, /*incomplete=*/true).with_subarrays(2);
  expect_backends_agree(opts, /*forward_jobs=*/opts.bank().array.cols / 13 + 3,
                        /*inverse_jobs=*/4, /*seed=*/102);
}

TEST(CrossBackendDifferential, DilithiumShaped) {
  // Dilithium's 23-bit prime on 24-bit tiles.
  const auto opts = runtime_options().with_ring(256, 8380417, 24).with_subarrays(2);
  expect_backends_agree(opts, /*forward_jobs=*/opts.bank().array.cols / 24 + 3,
                        /*inverse_jobs=*/2, /*seed=*/103);
}

TEST(CrossBackendDifferential, PolymulAgreesAcrossBackends) {
  // Ring products need two n-row regions: n=64 on a 128-row array.  The
  // incomplete flavour rides the same pipeline through the basemul path.
  for (const bool incomplete : {false, true}) {
    const auto opts = incomplete
                          ? runtime_options().with_ring(64, 3329, 13, true).with_array(128, 256)
                          : runtime_options().with_ring(64, 7681, 14).with_array(128, 256);
    common::xoshiro256ss rng(incomplete ? 201 : 202);
    std::vector<polymul_job> jobs;
    for (unsigned i = 0; i < 6; ++i) {
      jobs.push_back(polymul_job{.a = random_poly(64, opts.params.q, rng),
                                 .b = random_poly(64, opts.params.q, rng)});
    }
    std::vector<std::vector<job_result>> per_backend;
    for (const auto kind : {backend_kind::sram, backend_kind::cpu, backend_kind::reference}) {
      context ctx(runtime_options(opts).with_backend(kind));
      for (const auto& j : jobs) (void)ctx.submit(j);
      per_backend.push_back(ctx.wait_all());
    }
    for (std::size_t b = 1; b < per_backend.size(); ++b) {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(per_backend[b][i].outputs[0], per_backend[0][i].outputs[0])
            << "incomplete=" << incomplete << ", job " << i;
      }
    }
  }
}

TEST(CrossBackendDifferential, PoolSizeNeverChangesOutputs) {
  // The async executor only decides which thread runs which bank slice /
  // job chunk; a 4-thread multi-bank run must be bit-identical to the
  // single-worker serial path, per backend.
  const auto base = runtime_options().with_ring(256, 7681, 14).with_subarrays(2).with_banks(3);
  for (const auto kind : {backend_kind::sram, backend_kind::cpu, backend_kind::reference}) {
    std::vector<std::vector<job_result>> per_pool;
    for (const unsigned threads : {1u, 4u}) {
      context ctx(runtime_options(base).with_backend(kind).with_threads(threads));
      common::xoshiro256ss rng(404);  // same jobs for both pool sizes
      for (unsigned i = 0; i < 40; ++i) {
        (void)ctx.submit(ntt_job{.coeffs = random_poly(256, 7681, rng)});
      }
      per_pool.push_back(ctx.wait_all());
    }
    ASSERT_EQ(per_pool[0].size(), per_pool[1].size());
    for (std::size_t i = 0; i < per_pool[0].size(); ++i) {
      ASSERT_EQ(per_pool[1][i].outputs[0], per_pool[0][i].outputs[0])
          << to_string(kind) << ", job " << i;
    }
  }
}

TEST(CrossBackendDifferential, IndependentStreamsOverlapWithBitIdenticalOutputs) {
  // Two independent streams on a 2-bank sram topology must genuinely
  // overlap: the combined virtual-timeline makespan is strictly below the
  // sum of the two streams run serially (one per context), while every
  // output stays bit-identical to the legacy single-queue path.
  const auto base = runtime_options()
                        .with_ring(32, 193, 9)
                        .with_array(64, 36)
                        .with_subarrays(4)
                        .with_banks(2)
                        .with_threads(4);
  // 24 jobs per stream = 2 full 12-lane waves on a stream's single bank.
  const auto make_jobs = [&](u64 seed) {
    common::xoshiro256ss rng(seed);
    std::vector<std::vector<u64>> jobs;
    for (unsigned i = 0; i < 24; ++i) jobs.push_back(random_poly(32, 193, rng));
    return jobs;
  };
  const auto jobs_a = make_jobs(501);
  const auto jobs_b = make_jobs(502);

  // Serial baseline: each stream alone in its own context, costs summed.
  u64 serial_sum = 0;
  for (const auto* jobs : {&jobs_a, &jobs_b}) {
    context ctx(base);
    auto s = ctx.stream();  // stream 1 -> bank {0}
    for (const auto& j : *jobs) (void)s.submit(ntt_job{.coeffs = j});
    s.flush();
    ctx.sync();
    serial_sum += ctx.stats().wall_cycles;
  }
  ASSERT_GT(serial_sum, 0u);

  // Concurrent: both streams in one context, disjoint banks {0} and {1}.
  context both(base);
  auto sa = both.stream();
  auto sb = both.stream();
  ASSERT_NE(sa.bank_set(), sb.bank_set());
  std::vector<job_id> ids;
  for (const auto& j : jobs_a) ids.push_back(sa.submit(ntt_job{.coeffs = j}));
  for (const auto& j : jobs_b) ids.push_back(sb.submit(ntt_job{.coeffs = j}));
  sa.flush();
  sb.flush();
  both.sync();
  const u64 combined = both.stats().wall_cycles;
  EXPECT_LT(combined, serial_sum) << "streams did not overlap";

  // Single-queue path: the same jobs through the legacy default stream.
  context single(base);
  std::vector<job_id> legacy_ids;
  for (const auto* jobs : {&jobs_a, &jobs_b}) {
    for (const auto& j : *jobs) legacy_ids.push_back(single.submit(ntt_job{.coeffs = j}));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto streamed = both.wait(ids[i]);
    const auto queued = single.wait(legacy_ids[i]);
    ASSERT_EQ(streamed.outputs[0], queued.outputs[0]) << "job " << i;
  }
}

TEST(CrossBackendDifferential, RlweCiphertextsAgreeAcrossBackends) {
  // Seed-deterministic R-LWE: all three backends must produce the same
  // ciphertext and decrypt it back to the same message.
  const auto opts = runtime_options().with_ring(64, 7681, 14).with_array(128, 256);
  common::xoshiro256ss rng(301);
  std::vector<u64> message(64);
  for (auto& m : message) m = rng.below(2);

  std::vector<crypto::rlwe_response> results;
  for (const auto kind : {backend_kind::sram, backend_kind::cpu, backend_kind::reference}) {
    context ctx(runtime_options(opts).with_backend(kind));
    const crypto::rlwe_client client(crypto::runtime_ring(ctx.options()),
                                     crypto::batch_polymul_on(ctx, ctx.stream()));
    results.push_back(client.run({{.message = message, .seed = 55}}).front());
  }
  for (std::size_t b = 1; b < results.size(); ++b) {
    EXPECT_EQ(results[b].ct.u, results[0].ct.u) << "ciphertext u, backend " << b;
    EXPECT_EQ(results[b].ct.v, results[0].ct.v) << "ciphertext v, backend " << b;
  }
  for (const auto& r : results) EXPECT_EQ(r.decrypted, message);
}

}  // namespace
}  // namespace bpntt::runtime

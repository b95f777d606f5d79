#include "crypto/rlwe.h"

#include <gtest/gtest.h>

#include "bpntt/engine.h"
#include "runtime/context.h"
#include "service/service.h"

namespace bpntt::crypto {
namespace {

param_set demo_ring() {
  param_set p;
  p.name = "demo";
  p.n = 128;
  p.q = 3329;
  p.min_tile_bits = 13;
  return p;
}

TEST(Rlwe, EncryptDecryptRoundTrip) {
  rlwe_scheme scheme(demo_ring());
  common::xoshiro256ss rng(1);
  const auto keys = scheme.keygen(rng);
  for (int trial = 0; trial < 10; ++trial) {
    const auto msg = sample_message(128, rng);
    const auto ct = scheme.encrypt(keys.pk, msg, rng);
    EXPECT_EQ(scheme.decrypt(keys.sk, ct), msg) << "trial " << trial;
  }
}

TEST(Rlwe, RoundTripAcrossParameterSets) {
  for (const auto& p : {kyber_compat(), falcon512(), he_level(16, 256)}) {
    SCOPED_TRACE(p.name);
    rlwe_scheme scheme(p);
    common::xoshiro256ss rng(p.q);
    const auto keys = scheme.keygen(rng);
    const auto msg = sample_message(p.n, rng);
    const auto ct = scheme.encrypt(keys.pk, msg, rng);
    EXPECT_EQ(scheme.decrypt(keys.sk, ct), msg);
  }
}

TEST(Rlwe, WrongKeyFailsToDecrypt) {
  rlwe_scheme scheme(demo_ring());
  common::xoshiro256ss rng(3);
  const auto keys = scheme.keygen(rng);
  const auto other = scheme.keygen(rng);
  const auto msg = sample_message(128, rng);
  const auto ct = scheme.encrypt(keys.pk, msg, rng);
  // Decrypting with an unrelated secret yields noise, not the message.
  EXPECT_NE(other.sk.s, keys.sk.s);
  EXPECT_NE(scheme.decrypt(other.sk, ct), msg);
}

TEST(Rlwe, CiphertextsAreRandomized) {
  rlwe_scheme scheme(demo_ring());
  common::xoshiro256ss rng(4);
  const auto keys = scheme.keygen(rng);
  const auto msg = sample_message(128, rng);
  const auto c1 = scheme.encrypt(keys.pk, msg, rng);
  const auto c2 = scheme.encrypt(keys.pk, msg, rng);
  EXPECT_NE(c1.u, c2.u);  // fresh encryption randomness
  EXPECT_EQ(scheme.decrypt(keys.sk, c1), scheme.decrypt(keys.sk, c2));
}

TEST(Rlwe, RejectsIncompleteNttRing) {
  EXPECT_THROW(rlwe_scheme{kyber()}, std::invalid_argument);  // 3329 @ n=256
}

TEST(Rlwe, RejectsWrongMessageSize) {
  rlwe_scheme scheme(demo_ring());
  common::xoshiro256ss rng(5);
  const auto keys = scheme.keygen(rng);
  std::vector<std::uint64_t> short_msg(64, 0);
  EXPECT_THROW((void)scheme.encrypt(keys.pk, short_msg, rng), std::invalid_argument);
}

TEST(Rlwe, PluggableMultiplierOnBpNttEngine) {
  // The whole point of the layer: route ring products through the in-SRAM
  // engine and still decrypt correctly.
  const auto ring = demo_ring();
  core::engine_config cfg;
  core::ntt_params params;
  params.n = ring.n;
  params.q = ring.q;
  params.k = 13;
  auto engine = std::make_shared<core::bp_ntt_engine>(cfg, params);
  polymul_fn mul = [&, engine](std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b) {
    const auto ra = engine->poly_region(0);
    const auto rb = engine->poly_region(static_cast<unsigned>(ring.n));
    engine->load_polynomial(0, a, ra);
    engine->load_polynomial(0, b, rb);
    engine->run_forward(ra);
    engine->run_forward(rb);
    engine->run_pointwise(ra, rb, ra, true);
    engine->run_inverse(ra);
    return engine->peek_polynomial(0, ra);
  };
  rlwe_scheme scheme(ring, 2, mul);
  common::xoshiro256ss rng(6);
  const auto keys = scheme.keygen(rng);
  const auto msg = sample_message(ring.n, rng);
  const auto ct = scheme.encrypt(keys.pk, msg, rng);
  EXPECT_EQ(scheme.decrypt(keys.sk, ct), msg);
  EXPECT_GT(engine->cumulative_stats().cycles, 0u);
  EXPECT_EQ(engine->cumulative_stats().lossless_shift_violations, 0u);
}

// ---- batched client ---------------------------------------------------------

std::vector<rlwe_request> three_requests(std::uint64_t n) {
  common::xoshiro256ss rng(404);
  std::vector<rlwe_request> reqs;
  for (std::uint64_t seed : {11, 12, 13}) {
    reqs.push_back({.message = sample_message(n, rng), .eta = 2, .seed = seed});
  }
  return reqs;
}

// The golden batch multiplier: one call per stage, counted.
batch_polymul_fn golden_batches(const param_set& p, int& calls) {
  auto tables = std::make_shared<math::ntt_tables>(p.n, p.q, true);
  return [tables, &calls](std::vector<std::pair<poly, poly>> pairs) {
    ++calls;
    std::vector<poly> out;
    for (const auto& [a, b] : pairs) out.push_back(math::polymul_ntt(a, b, *tables));
    return out;
  };
}

TEST(RlweClient, MatchesTheSerialSchemeRequestByRequest) {
  // Each request's randomness is its own seeded stream in the serial draw
  // order, so the batched client equals keygen + encrypt + decrypt run on
  // that request alone.
  const param_set p = demo_ring();
  const auto reqs = three_requests(p.n);
  int calls = 0;
  const auto got = rlwe_client(p, golden_batches(p, calls)).run(reqs);
  EXPECT_EQ(calls, 3) << "one batch per stage";
  ASSERT_EQ(got.size(), reqs.size());
  const rlwe_scheme scheme(p, 2);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    common::xoshiro256ss rng(reqs[i].seed);
    const auto keys = scheme.keygen(rng);
    const auto ct = scheme.encrypt(keys.pk, reqs[i].message, rng);
    EXPECT_EQ(got[i].ct.u, ct.u) << "request " << i;
    EXPECT_EQ(got[i].ct.v, ct.v) << "request " << i;
    EXPECT_EQ(got[i].decrypted, reqs[i].message) << "request " << i;
  }
}

TEST(RlweClient, RejectsBadRingsMessagesAndMultipliers) {
  int calls = 0;
  param_set kyber_ring = kyber();
  EXPECT_THROW(rlwe_client(kyber_ring, golden_batches(demo_ring(), calls)),
               std::invalid_argument);
  EXPECT_THROW(rlwe_client(demo_ring(), nullptr), std::invalid_argument);
  const rlwe_client client(demo_ring(), golden_batches(demo_ring(), calls));
  EXPECT_THROW((void)client.run({{.message = poly(64, 0)}}), std::invalid_argument);
  EXPECT_TRUE(client.run({}).empty());
  EXPECT_EQ(calls, 0) << "nothing reaches the multiplier";
}

TEST(RlweClient, ThreeRequestsCostThreeBatchesOnEveryBackend) {
  // The runtime stream path: the stage products of three requests ride one
  // dispatch per stage on sram, cpu and reference alike, with bit-identical
  // outputs equal to the golden client's.
  const auto opts = runtime::runtime_options().with_ring(32, 193, 9).with_array(64, 36);
  const param_set ring = runtime_ring(opts);
  const auto reqs = three_requests(ring.n);
  int calls = 0;
  const auto want = rlwe_client(ring, golden_batches(ring, calls)).run(reqs);
  for (const auto kind : {runtime::backend_kind::sram, runtime::backend_kind::cpu,
                          runtime::backend_kind::reference}) {
    runtime::context ctx(runtime::runtime_options(opts).with_backend(kind));
    const auto got = rlwe_client(ring, batch_polymul_on(ctx, ctx.stream())).run(reqs);
    EXPECT_EQ(ctx.stats().batches, 3u) << runtime::to_string(kind);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(got[i].ct.u, want[i].ct.u) << runtime::to_string(kind) << " request " << i;
      EXPECT_EQ(got[i].ct.v, want[i].ct.v) << runtime::to_string(kind) << " request " << i;
      EXPECT_EQ(got[i].decrypted, want[i].decrypted) << runtime::to_string(kind);
    }
  }
}

TEST(RlweClient, SessionMultiplierMatchesTheGoldenClient) {
  const auto opts = runtime::runtime_options().with_ring(32, 193, 9).with_array(64, 36);
  const param_set ring = runtime_ring(opts);
  const auto reqs = three_requests(ring.n);
  int calls = 0;
  const auto want = rlwe_client(ring, golden_batches(ring, calls)).run(reqs);
  service::service svc(opts);
  const auto got = rlwe_client(ring, batch_polymul_on(svc.open_session())).run(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(got[i].ct.u, want[i].ct.u) << "request " << i;
    EXPECT_EQ(got[i].decrypted, want[i].decrypted) << "request " << i;
  }
  EXPECT_EQ(svc.stats().completed, 12u) << "four ring products per request";
}

}  // namespace
}  // namespace bpntt::crypto

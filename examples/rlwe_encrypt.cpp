// R-LWE public-key encryption with every ring product computed on the
// in-SRAM BP-NTT engine — the end-to-end workload the paper motivates
// (lattice-based crypto on resource-constrained edge devices, with
// plaintext never leaving the chip).
//
// crypto::rlwe_client runs keygen, encrypt and a decrypt round-trip per
// request and hands each stage's ring products to the runtime as one batch
// of polymul jobs, so every product runs the full in-array pipeline (NTT(a)
// and NTT(b) at two row regions, in-array pointwise multiply, inverse NTT).
// Determinism from the request seed lets the same requests re-run on the
// reference backend for a bit-exactness cross-check.
#include <cstdio>
#include <vector>

#include "common/xoshiro.h"
#include "crypto/rlwe.h"
#include "crypto/sampler.h"
#include "runtime/context.h"

int main() {
  using namespace bpntt;

  // Falcon-512's ring (n=512) exceeds one 256-row array, so this demo uses
  // a 128-point ring over the Kyber prime — the paper's Fig. 7 workload
  // size — with 13-bit tiles: a[0..128) and b[128..256) row regions.
  const auto opts = runtime::runtime_options()
                        .with_ring(128, 3329, 13)
                        .with_backend(runtime::backend_kind::sram);
  runtime::context ctx(opts);
  const crypto::rlwe_client client(crypto::runtime_ring(opts),
                                   crypto::batch_polymul_on(ctx, ctx.stream()));

  std::printf("=== R-LWE encrypt/decrypt on the BP-NTT runtime (n=%llu, q=%llu) ===\n\n",
              static_cast<unsigned long long>(opts.params.n),
              static_cast<unsigned long long>(opts.params.q));

  common::xoshiro256ss rng(2024);
  std::vector<crypto::rlwe_request> requests;
  for (int trial = 0; trial < 4; ++trial) {
    requests.push_back({.message = crypto::sample_message(opts.params.n, rng),
                        .eta = 2,
                        .seed = 9000 + static_cast<core::u64>(trial)});
  }

  // All four requests run together, stage by stage: every keygen product
  // in one dispatch, every encryption product in one, every decryption
  // product in one.
  const auto responses = client.run(requests);
  const auto stats = ctx.stats();
  unsigned ok = 0;
  for (std::size_t trial = 0; trial < responses.size(); ++trial) {
    const bool match = responses[trial].decrypted == requests[trial].message;
    ok += match;
    std::printf("trial %zu: %llu message bits -> %s\n", trial,
                static_cast<unsigned long long>(opts.params.n),
                match ? "decrypted exactly" : "DECRYPTION FAILED");
  }

  // Cross-check: the same seeded requests on the golden backend must
  // produce bit-identical ciphertexts — the in-SRAM products are exact.
  const auto golden_opts =
      runtime::runtime_options(opts).with_backend(runtime::backend_kind::reference);
  runtime::context golden(golden_opts);
  const auto want = crypto::rlwe_client(crypto::runtime_ring(golden_opts),
                                        crypto::batch_polymul_on(golden, golden.stream()))
                        .run(requests);
  bool bit_exact = true;
  for (std::size_t trial = 0; trial < requests.size(); ++trial) {
    bit_exact = bit_exact && responses[trial].ct.u == want[trial].ct.u &&
                responses[trial].ct.v == want[trial].ct.v;
  }
  std::printf("\nin-SRAM ciphertexts vs reference backend: %s\n",
              bit_exact ? "bit-exact" : "MISMATCH");

  // Four ring products per request: keygen's a*s, the two encryption
  // products and the decryption product — batched into three dispatches.
  const double freq_ghz = opts.array.tech.freq_ghz;
  std::printf("\naccelerator totals over %zu ring products (%llu dispatches): "
              "%llu cycles, %.1f nJ (%.1f us at %.1f GHz)\n",
              4 * requests.size(), static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.wall_cycles), stats.energy_nj,
              stats.wall_cycles / (freq_ghz * 1e3), freq_ghz);
  std::printf("plaintext polynomials never left the subarray in plain form — the trusted\n"
              "computing base stays on-chip (§I).\n");

  return (ok == requests.size() && bit_exact && stats.batches == 3) ? 0 : 1;
}

// google-benchmark micro-benchmarks for the building blocks: golden NTT
// (the measured-CPU baseline of Table I), modular-multiplication variants,
// subarray micro-ops, and microcode compilation/execution.
#include <benchmark/benchmark.h>

#include "bpntt/engine.h"
#include "common/xoshiro.h"
#include "nttmath/bp_modmul_ref.h"
#include "nttmath/montgomery.h"
#include "nttmath/ntt.h"
#include "nttmath/poly.h"

namespace {

using bpntt::math::u64;

void BM_GoldenNttForward(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  const u64 q = 12289;
  const bpntt::math::ntt_tables tables(n, q, true);
  bpntt::common::xoshiro256ss rng(1);
  std::vector<u64> a(n);
  for (auto& x : a) x = rng.below(q);
  for (auto _ : state) {
    bpntt::math::ntt_forward(a, tables);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoldenNttForward)->Arg(256)->Arg(1024);

void BM_GoldenPolymul(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  const bpntt::math::ntt_tables tables(n, 12289, true);
  bpntt::common::xoshiro256ss rng(2);
  std::vector<u64> a(n), b(n);
  for (auto& x : a) x = rng.below(12289);
  for (auto& x : b) x = rng.below(12289);
  for (auto _ : state) {
    auto c = bpntt::math::polymul_ntt(a, b, tables);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GoldenPolymul)->Arg(256);

void BM_ModmulMontgomery64(benchmark::State& state) {
  const bpntt::math::montgomery64 mont(12289);
  u64 x = 1234;
  for (auto _ : state) {
    x = mont.mul(x, 4321) | 1;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ModmulMontgomery64);

void BM_ModmulBitParallelModel(benchmark::State& state) {
  // Software model of Algorithm 2 (per-bit loop) — the algorithmic cost the
  // SRAM hides behind massive parallelism.
  u64 x = 1234;
  for (auto _ : state) {
    x = bpntt::math::bp_modmul(x % 12289, 4321, 12289, 16).value | 1;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ModmulBitParallelModel);

void BM_SubarrayPairOp(benchmark::State& state) {
  bpntt::sram::subarray array(32, bpntt::sram::tile_geometry{256, 16},
                              bpntt::sram::tech_45nm());
  array.host_write_word(0, 0, 0xABCD);
  array.host_write_word(0, 1, 0x1234);
  for (auto _ : state) {
    array.op_pair(2, 3, 0, 1);
    benchmark::DoNotOptimize(array.stats().cycles);
  }
}
BENCHMARK(BM_SubarrayPairOp);

void BM_CompileForward256(benchmark::State& state) {
  bpntt::core::ntt_params p;
  p.n = 256;
  p.q = 12289;
  p.k = 16;
  const bpntt::math::ntt_tables tables(p.n, p.q, true);
  const auto plan = bpntt::core::make_twiddle_plan(p, tables);
  const bpntt::core::microcode_compiler comp(p, bpntt::core::row_layout{256});
  for (auto _ : state) {
    auto prog = comp.compile_forward(plan);
    benchmark::DoNotOptimize(prog.ops.data());
  }
}
BENCHMARK(BM_CompileForward256);

void BM_SimulateForward64(benchmark::State& state) {
  // Full cycle-level simulation of a 64-point in-SRAM NTT batch.
  bpntt::core::engine_config cfg;
  cfg.data_rows = 64;
  cfg.cols = 256;
  bpntt::core::ntt_params p;
  p.n = 64;
  p.q = 257;
  p.k = 10;
  bpntt::core::bp_ntt_engine eng(cfg, p);
  bpntt::common::xoshiro256ss rng(3);
  std::vector<u64> poly(64);
  for (auto& x : poly) x = rng.below(257);
  for (unsigned lane = 0; lane < eng.lanes(); ++lane) eng.load_polynomial(lane, poly);
  for (auto _ : state) {
    auto stats = eng.run_forward();
    benchmark::DoNotOptimize(stats.cycles);
  }
}
BENCHMARK(BM_SimulateForward64);

}  // namespace

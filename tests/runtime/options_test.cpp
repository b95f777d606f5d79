#include "runtime/options.h"

#include <gtest/gtest.h>

namespace bpntt::runtime {
namespace {

TEST(RuntimeOptions, BuilderCollapsesAllKnobs) {
  core::compile_options mc;
  mc.fuse_pairs = false;
  mc.ripple_check_period = 4;
  const auto opts = runtime_options()
                        .with_ring(128, 3329, 13)
                        .with_backend(backend_kind::cpu)
                        .with_banks(3)
                        .with_subarrays(8)
                        .with_array(128, 512)
                        .with_microcode(mc)
                        .with_threads(6);
  EXPECT_EQ(opts.params.n, 128u);
  EXPECT_EQ(opts.params.q, 3329u);
  EXPECT_EQ(opts.params.k, 13u);
  EXPECT_EQ(opts.backend, backend_kind::cpu);
  EXPECT_EQ(opts.topo.channels, 1u);  // with_banks is the one-channel shorthand
  EXPECT_EQ(opts.topo.total_banks(), 3u);
  EXPECT_EQ(opts.topo.subarrays, 8u);
  EXPECT_EQ(opts.array.data_rows, 128u);
  EXPECT_EQ(opts.array.cols, 512u);
  EXPECT_FALSE(opts.array.microcode.fuse_pairs);
  EXPECT_EQ(opts.threads, 6u);
  // The derived per-bank config carries the same array knobs.
  const auto bank = opts.bank();
  EXPECT_EQ(bank.subarrays, 8u);
  EXPECT_EQ(bank.array.cols, 512u);
  EXPECT_EQ(bank.array.microcode.ripple_check_period, 4u);
}

TEST(RuntimeOptions, ValidateAcceptsEveryBackendAtDefaults) {
  for (const auto kind : {backend_kind::sram, backend_kind::cpu, backend_kind::reference}) {
    auto opts = runtime_options().with_ring(256, 7681, 14).with_backend(kind);
    EXPECT_NO_THROW(opts.validate()) << to_string(kind);
  }
}

TEST(RuntimeOptions, ValidateRejectsSyntheticParams) {
  auto opts = runtime_options();  // default q = 0 (synthetic)
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(RuntimeOptions, ValidateRejectsBadSramShapes) {
  // Polynomial larger than the subarray.
  auto big = runtime_options().with_ring(512, 12289, 16);
  EXPECT_THROW(big.validate(), std::invalid_argument);
  // No banks.
  auto none = runtime_options().with_ring(256, 7681, 14).with_banks(0);
  EXPECT_THROW(none.validate(), std::invalid_argument);
  // A lone subarray cannot host both CTRL/CMD and compute.
  auto lone = runtime_options().with_ring(256, 7681, 14).with_subarrays(1);
  EXPECT_THROW(lone.validate(), std::invalid_argument);
}

TEST(RuntimeOptions, ValidateRejectsAbsurdPoolSizes) {
  auto opts = runtime_options().with_ring(256, 7681, 14).with_threads(257);
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  EXPECT_NO_THROW(opts.with_threads(0).validate());    // auto-sized
  EXPECT_NO_THROW(opts.with_threads(256).validate());  // ceiling
}

TEST(RuntimeOptions, TopologyBuilderAndValidation) {
  const auto opts = runtime_options().with_ring(256, 7681, 14).with_topology(2, 3, 4);
  EXPECT_EQ(opts.topo.channels, 2u);
  EXPECT_EQ(opts.topo.banks_per_channel, 3u);
  EXPECT_EQ(opts.topo.total_banks(), 6u);
  EXPECT_EQ(opts.topo.first_bank(1), 3u);
  EXPECT_NO_THROW(opts.validate());

  // with_banks after with_topology collapses back to one channel.
  auto flat = runtime_options(opts).with_banks(5);
  EXPECT_EQ(flat.topo.channels, 1u);
  EXPECT_EQ(flat.topo.total_banks(), 5u);

  EXPECT_THROW(runtime_options().with_ring(256, 7681, 14).with_topology(0, 2, 4).validate(),
               std::invalid_argument);
  EXPECT_THROW(runtime_options().with_ring(256, 7681, 14).with_topology(2, 0, 4).validate(),
               std::invalid_argument);
  // 16 channels x 8 banks = 128 > the 64-bank ceiling.
  EXPECT_THROW(runtime_options().with_ring(256, 7681, 14).with_topology(16, 8, 4).validate(),
               std::invalid_argument);
}

TEST(RuntimeOptions, ForParamSetPicksTransformFlavour) {
  // Standardized Kyber has no full 256-point negacyclic NTT: incomplete.
  const auto kyber = runtime_options::for_param_set(crypto::kyber());
  EXPECT_TRUE(kyber.params.incomplete);
  EXPECT_EQ(kyber.params.n, 256u);
  EXPECT_GE(kyber.params.k, 13u);
  EXPECT_NO_THROW(kyber.validate());
  // The round-1 prime supports the complete transform.
  const auto compat = runtime_options::for_param_set(crypto::kyber_compat());
  EXPECT_FALSE(compat.params.incomplete);
  EXPECT_NO_THROW(compat.validate());
}

TEST(RuntimeOptions, BackendKindNames) {
  EXPECT_STREQ(to_string(backend_kind::sram), "sram");
  EXPECT_STREQ(to_string(backend_kind::cpu), "cpu");
  EXPECT_STREQ(to_string(backend_kind::reference), "reference");
}

}  // namespace
}  // namespace bpntt::runtime

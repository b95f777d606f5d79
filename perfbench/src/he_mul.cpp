// he_mul — one leveled RNS-RLWE homomorphic multiply per unit.
//
// crypto::he_rns_rlwe_level(20, 2, 128): two ciphertext limbs plus two
// key-switching limbs on a 4-channel topology (one bank of four subarrays
// each), sram backend, four executor threads, residency on (the scheme pins
// its evaluation key).  A unit encrypts two fresh messages, multiplies them
// and decrypts; the plaintext must equal the GF(2) negacyclic product.  The
// simulator does the work here too, but through the polymul pipeline,
// four banks in parallel, limb streams, warm residency hits, retargeted
// banks and host-side CRT — the layers ntt_table1 bypasses.
//
// Units are timed in wall time and reported at a reference host speed, as
// in ntt_table1, except that the work runs on four threads and cannot be
// pinned to one CPU: before every unit the probe kernel runs on every CPU
// at once (host_probe_all_ms), and the unit's wall time is scaled by
// kProbeAllRefMs / their mean.
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "crypto/rns_rlwe/rns_rlwe.h"
#include "runtime/context.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace bpntt;

constexpr unsigned kOrder = 128;
constexpr unsigned kLimbBits = 20;
constexpr unsigned kLimbs = 2;
constexpr std::size_t kExactUnits = 4;
constexpr int kSetups = 5;
constexpr u64 kWarmSeed = 0x4e3a11;
// host_probe_all_ms() on the reference host (a 4-core x86 VM) at full
// speed: above kProbeRefMs, as the probes share the cores' execution units.
constexpr double kProbeAllRefMs = 1.67;

crypto::rns_rlwe_param_set he_params() {
  return crypto::he_rns_rlwe_level(kLimbBits, kLimbs, kOrder);
}

runtime::runtime_options he_options() {
  return runtime::runtime_options::for_rns_param_set(he_params().level_set())
      .with_backend(runtime::backend_kind::sram)
      .with_topology(4, 1, 4)
      .with_threads(4);
}

std::vector<u64> negacyclic_mod2(const std::vector<u64>& a, const std::vector<u64>& b) {
  std::vector<u64> out(a.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      // x^(i+j) wraps to -x^(i+j-n), and -1 == 1 over GF(2).
      out[(i + j) % a.size()] ^= a[i] & b[j];
    }
  }
  return out;
}

struct unit_result {
  double ms = 0.0;      // wall time
  double ref_ms = 0.0;  // ... at the reference host speed
  double probe_ms = 0.0;
  u64 cycles = 0;
  double energy_nj = 0.0;
  double encrypt_ms = 0.0;  // mean of the unit's two encryptions
  double multiply_ms = 0.0;
  double decrypt_ms = 0.0;
};

class he_rig {
 public:
  he_rig(u64 seed, span_log* spans, metered_backend* meter, std::unique_ptr<runtime::backend> be)
      : spans_(spans), meter_(meter) {
    auto opts = he_options();
    if (spans != nullptr) opts.with_tracing();
    ctx_ = be ? std::make_unique<runtime::context>(opts, std::move(be))
              : std::make_unique<runtime::context>(opts);
    const auto t0 = steady::now();
    scheme_ = std::make_unique<crypto::rns_rlwe::scheme>(*ctx_, he_params(), seed);
    keygen_ms_ = ms_between(t0, steady::now());
  }

  unit_result run_unit(common::xoshiro256ss& rng, u64 unit, books& b) {
    std::vector<u64> m1(kOrder), m2(kOrder);
    for (auto& c : m1) c = rng() & 1;
    for (auto& c : m2) c = rng() & 1;
    if (meter_ != nullptr) meter_->set_unit(unit);
    unit_result u;
    u.probe_ms = host_probe_all_ms();
    const auto s0 = ctx_->stats();
    const auto t0 = steady::now();
    const auto ct1 = scheme_->encrypt(m1);
    const auto t1 = steady::now();
    const auto ct2 = scheme_->encrypt(m2);
    const auto t2 = steady::now();
    last_ = scheme_->multiply(ct1, ct2);
    const auto t3 = steady::now();
    const auto plain = scheme_->decrypt(last_);
    const auto t4 = steady::now();
    const auto s1 = ctx_->stats();
    if (spans_ != nullptr) {
      spans_->record("crypto", "encrypt", t0, t1, unit);
      spans_->record("crypto", "encrypt", t1, t2, unit);
      spans_->record("crypto", "multiply", t2, t3, unit);
      spans_->record("crypto", "decrypt", t3, t4, unit);
    }
    b.attempt();
    if (plain != negacyclic_mod2(m1, m2)) {
      b.fail("he_mul unit " + std::to_string(unit) + ": decrypt != GF(2) negacyclic product");
    }
    u.ms = ms_between(t0, t4);
    u.ref_ms = u.ms * kProbeAllRefMs / u.probe_ms;
    u.cycles = s1.wall_cycles - s0.wall_cycles;
    u.energy_nj = s1.energy_nj - s0.energy_nj;
    u.encrypt_ms = ms_between(t0, t2) / 2;
    u.multiply_ms = ms_between(t2, t3);
    u.decrypt_ms = ms_between(t3, t4);
    return u;
  }

  runtime::context& ctx() noexcept { return *ctx_; }
  [[nodiscard]] double keygen_ms() const noexcept { return keygen_ms_; }
  // Noise headroom of the latest product (runs extra ring products, so call
  // it only after the measured units).
  int noise_budget_bits() { return scheme_->noise_budget_bits(last_); }

 private:
  span_log* spans_;
  metered_backend* meter_;
  std::unique_ptr<runtime::context> ctx_;
  std::unique_ptr<crypto::rns_rlwe::scheme> scheme_;
  crypto::rns_rlwe::ciphertext last_;
  double keygen_ms_ = 0.0;
};

std::unique_ptr<he_rig> warm_rig(u64 seed, span_log* spans, metered_backend* meter,
                                 std::unique_ptr<runtime::backend> be, books& b) {
  auto rig = std::make_unique<he_rig>(seed, spans, meter, std::move(be));
  common::xoshiro256ss warm(kWarmSeed);
  books scratch;
  (void)rig->run_unit(warm, 0, scratch);
  if (scratch.failed() != 0) b.fail("he_mul warm-up: " + scratch.reasons().front());
  return rig;
}

// Scheme randomness follows the workload seed, message bits a second stream.
u64 scheme_seed(u64 seed) { return seed * 0x9e3779b97f4a7c15ULL + 1; }

void report_crypto(report& r, double keygen_ms, const std::vector<unit_result>& units,
                   int noise_bits) {
  std::vector<double> enc, mul, dec;
  for (const auto& u : units) {
    enc.push_back(u.encrypt_ms);
    mul.push_back(u.multiply_ms);
    dec.push_back(u.decrypt_ms);
  }
  r.set("crypto.keygen_ms", keygen_ms, "ms");
  r.set("crypto.encrypt_ms", median(enc), "ms");
  r.set("crypto.multiply_ms", median(mul), "ms");
  r.set("crypto.decrypt_ms", median(dec), "ms");
  r.set("crypto.noise_budget_bits", noise_bits, "bits");
}

void run_untraced(const run_options& o, report& r, books& b) {
  std::unique_ptr<he_rig> rig;
  const double setup = median_setup_s(kSetups, [&] {
    rig.reset();
    rig = warm_rig(scheme_seed(o.seed), nullptr, nullptr, nullptr, b);
  });
  common::xoshiro256ss rng(o.seed);
  std::vector<unit_result> units;
  const auto ms = closed_loop(o.seconds, kExactUnits, [&](u64 i) {
    units.push_back(rig->run_unit(rng, i + 1, b));
    return units.back().ref_ms;
  });
  double cycles = 0.0, energy = 0.0;
  for (std::size_t i = 0; i < kExactUnits; ++i) {
    cycles += static_cast<double>(units[i].cycles);
    energy += units[i].energy_nj;
  }
  double total_ms = 0.0;
  for (const double m : ms) total_ms += m;
  std::vector<double> raw_ms, probe_ms;
  for (const auto& u : units) {
    raw_ms.push_back(u.ms);
    probe_ms.push_back(u.probe_ms);
  }
  r.set("setup_s", setup, "s");
  report_latency(r, ms, "wall time at the reference host speed");
  r.set("throughput_per_s", static_cast<double>(ms.size()) / (total_ms / 1e3), "1/s");
  r.note("throughput_per_s", "HE requests per second of wall time at the reference host speed");
  r.note("host", "probe p50 " + std::to_string(median(probe_ms)) + " ms (reference " +
                     std::to_string(kProbeAllRefMs) + "); unscaled unit p50 " +
                     std::to_string(median(raw_ms)) + " ms");
  r.set("array_cycles", cycles / kExactUnits, "cycles");
  r.set("array_energy_nj", energy / kExactUnits, "nJ");
  report_outcome(r, b);
}

void run_traced(const run_options& o, report& r, books& b) {
  double untraced_p50 = 0.0;
  {
    auto rig = warm_rig(scheme_seed(o.seed), nullptr, nullptr, nullptr, b);
    common::xoshiro256ss rng(o.seed);
    untraced_p50 = median(closed_loop(o.seconds / 2, kExactUnits,
                                      [&](u64 i) { return rig->run_unit(rng, i + 1, b).ref_ms; }));
  }

  span_log spans;
  auto opts = he_options();
  opts.validate();
  auto meter_owner = std::make_unique<metered_backend>(runtime::make_backend(opts), &spans);
  metered_backend* meter = meter_owner.get();
  auto rig = warm_rig(scheme_seed(o.seed), &spans, meter, std::move(meter_owner), b);
  common::xoshiro256ss rng(o.seed);
  workload_trace t;
  t.untraced_p50_ms = untraced_p50;
  t.before = rig->ctx().stats();
  t.ops_before = meter->snapshot();
  std::vector<unit_result> units;
  const auto ms = closed_loop(o.seconds / 2, kExactUnits, [&](u64 i) {
    units.push_back(rig->run_unit(rng, i + 1, b));
    if (i + 1 == kExactUnits) t.ops_exact = meter->snapshot();
    return units.back().ref_ms;
  });
  rig->ctx().sync();
  t.after = rig->ctx().stats();
  t.ops_after = meter->snapshot();
  t.units = static_cast<double>(ms.size());
  t.exact_units = kExactUnits;
  for (const double m : ms) t.traced_ms_total += m;
  t.traced_p50_ms = median(ms);
  t.trace = rig->ctx().trace_stats();
  report_workload_layers(r, t);
  report_crypto(r, rig->keygen_ms(), units, rig->noise_budget_bits());
  rig->ctx().sync();
  r.note("trace", export_trace(
                      o, [&](const std::string& path) { rig->ctx().export_trace(path); }, spans));

  probe_layers(o.seed, r, b);
  probe_service(o.seed, r, b);
}

}  // namespace

void run_he_mul(const run_options& o, report& r, books& b) {
  if (o.trace) {
    run_traced(o, r, b);
  } else {
    run_untraced(o, r, b);
  }
}

void probe_crypto(u64 seed, report& r, books& b) {
  auto rig = warm_rig(scheme_seed(seed), nullptr, nullptr, nullptr, b);
  common::xoshiro256ss rng(seed);
  std::vector<unit_result> units;
  for (u64 i = 0; i < 3; ++i) units.push_back(rig->run_unit(rng, i + 1, b));
  report_crypto(r, rig->keygen_ms(), units, rig->noise_budget_bits());
}

}  // namespace perfbench

// ntt_table1 — the paper's Table-I point through the runtime.
//
// sram backend, 256-point ring mod 12289 on 16-bit tiles, one bank of two
// subarrays (one compute subarray: 16 lanes), one executor thread.  A unit
// is a 16-job forward batch of fresh seeded polynomials followed by a
// 16-job inverse batch of its outputs, submitted through runtime::context
// and waited on: almost all host time is the sram/isa/bpntt simulator, and
// the runtime and service layers do next to nothing.  Every lane is checked:
// the forward output against the golden transform, the inverse output
// against the input.
//
// Units are timed in process CPU time and reported at a reference host
// speed.  The host this was sized on runs the same code up to ~1.7x slower
// for minutes at a time (a busy co-tenant on the core, not steal: CPU time
// and wall time agree), which set most of the run-to-run spread.  So the
// measured passes run pinned to one CPU (the work is one simulator thread
// at a time), a fixed integer kernel that calls no library code
// (host_probe_ms) is timed there before every unit, and each unit's CPU
// time is scaled by kProbeRefMs / probe.  Every unit counts; a slower build
// reads slower at any host speed.
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "nttmath/ntt.h"
#include "runtime/context.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace bpntt;

constexpr u64 kN = 256;
constexpr u64 kQ = 12289;
constexpr unsigned kK = 16;
constexpr std::size_t kLanes = 16;
// Modelled quantities are averaged over this fixed prefix of units, so they
// repeat exactly for a seed however many units a run fits.
constexpr std::size_t kExactUnits = 8;
constexpr int kSetups = 7;
constexpr u64 kWarmSeed = 0x7ab1e1;

runtime::runtime_options table1_options() {
  return runtime::runtime_options()
      .with_ring(kN, kQ, kK)
      .with_backend(runtime::backend_kind::sram)
      .with_subarrays(2)
      .with_threads(1);
}

struct unit_result {
  double ms = 0.0;      // process CPU time
  double ref_ms = 0.0;  // ... at the reference host speed
  double probe_ms = 0.0;
  u64 cycles = 0;
  double energy_nj = 0.0;
};

// One context plus what a unit needs around it.
class table1_rig {
 public:
  table1_rig(span_log* spans, metered_backend* meter, std::unique_ptr<runtime::backend> be)
      : ctx_(be ? std::make_unique<runtime::context>(opts(spans), std::move(be))
                : std::make_unique<runtime::context>(opts(spans))),
        golden_(kN, kQ, true),
        spans_(spans),
        meter_(meter) {}

  unit_result run_unit(common::xoshiro256ss& rng, u64 unit, books& b) {
    std::vector<std::vector<u64>> x(kLanes, std::vector<u64>(kN));
    for (auto& p : x) {
      for (auto& c : p) c = rng.below(kQ);
    }
    if (meter_ != nullptr) meter_->set_unit(unit);
    const double probe = host_probe_ms();
    const auto s0 = ctx_->stats();
    const double t0 = process_cpu_ms();
    std::vector<runtime::job_result> fwd, inv;
    {
      scoped_span s(spans_, "runtime", "forward_batch", unit);
      for (const auto& p : x) (void)ctx_->submit(runtime::ntt_job{.coeffs = p});
      fwd = ctx_->wait_all();
    }
    {
      scoped_span s(spans_, "runtime", "inverse_batch", unit);
      for (const auto& r : fwd) {
        if (r.status == runtime::job_status::ok) {
          (void)ctx_->submit(
              runtime::ntt_job{.dir = core::transform_dir::inverse, .coeffs = r.outputs.at(0)});
        }
      }
      inv = ctx_->wait_all();
    }
    const double t1 = process_cpu_ms();
    const auto s1 = ctx_->stats();
    b.attempt();
    if (const std::string why = check(x, fwd, inv); !why.empty()) {
      b.fail("ntt_table1 unit " + std::to_string(unit) + ": " + why);
    }
    return {t1 - t0, (t1 - t0) * kProbeRefMs / probe, probe, s1.wall_cycles - s0.wall_cycles,
            s1.energy_nj - s0.energy_nj};
  }

  runtime::context& ctx() noexcept { return *ctx_; }

 private:
  static runtime::runtime_options opts(span_log* spans) {
    auto o = table1_options();
    if (spans != nullptr) o.with_tracing();
    return o;
  }

  // Empty when every lane round-trips and matches the golden transform.
  std::string check(const std::vector<std::vector<u64>>& x,
                    const std::vector<runtime::job_result>& fwd,
                    const std::vector<runtime::job_result>& inv) const {
    if (fwd.size() != kLanes || inv.size() != kLanes) return "missing results";
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (fwd[i].status != runtime::job_status::ok) return "forward failed: " + fwd[i].error;
      if (inv[i].status != runtime::job_status::ok) return "inverse failed: " + inv[i].error;
      if (fwd[i].op_stats.lossless_shift_violations != 0 ||
          inv[i].op_stats.lossless_shift_violations != 0) {
        return "lossless-shift violation";
      }
      std::vector<u64> want = x[i];
      math::ntt_forward(want, golden_);
      const std::string lane = " on lane " + std::to_string(i);
      if (fwd[i].outputs.at(0) != want) return "forward differs from golden" + lane;
      if (inv[i].outputs.at(0) != x[i]) return "inverse(forward(x)) != x" + lane;
    }
    return {};
  }

  std::unique_ptr<runtime::context> ctx_;
  math::ntt_tables golden_;
  span_log* spans_;
  metered_backend* meter_;
};

// A fresh rig, warmed by one unit on inputs outside the measured stream.
std::unique_ptr<table1_rig> warm_rig(span_log* spans, metered_backend* meter,
                                     std::unique_ptr<runtime::backend> be, books& b) {
  auto rig = std::make_unique<table1_rig>(spans, meter, std::move(be));
  common::xoshiro256ss warm(kWarmSeed);
  books scratch;
  (void)rig->run_unit(warm, 0, scratch);
  if (scratch.failed() != 0) b.fail("ntt_table1 warm-up: " + scratch.reasons().front());
  return rig;
}

void run_untraced(const run_options& o, report& r, books& b) {
  std::unique_ptr<table1_rig> rig;
  const double setup = median_setup_s(kSetups, [&] {
    rig.reset();
    rig = warm_rig(nullptr, nullptr, nullptr, b);
  });
  common::xoshiro256ss rng(o.seed);
  std::vector<unit_result> units;
  const auto ms = closed_loop(o.seconds, kExactUnits, [&](u64 i) {
    units.push_back(rig->run_unit(rng, i, b));
    return units.back().ref_ms;
  });
  double cycles = 0.0, energy = 0.0;
  for (std::size_t i = 0; i < kExactUnits; ++i) {
    cycles += static_cast<double>(units[i].cycles);
    energy += units[i].energy_nj;
  }
  double total_ms = 0.0;
  std::vector<double> raw_ms, probe_ms;
  for (const auto& u : units) {
    total_ms += u.ref_ms;
    raw_ms.push_back(u.ms);
    probe_ms.push_back(u.probe_ms);
  }
  r.set("setup_s", setup, "s");
  report_latency(r, ms, "process CPU time at the reference host speed");
  r.set("throughput_per_s", 2.0 * kLanes * static_cast<double>(ms.size()) / (total_ms / 1e3),
        "1/s");
  r.note("throughput_per_s", "NTTs per second of process CPU time at the reference host speed");
  r.note("host", "probe p50 " + std::to_string(median(probe_ms)) + " ms (reference " +
                     std::to_string(kProbeRefMs) + "); unscaled unit p50 " +
                     std::to_string(median(raw_ms)) + " ms");
  r.set("array_cycles", cycles / kExactUnits, "cycles");
  r.set("array_energy_nj", energy / kExactUnits, "nJ");
  report_outcome(r, b);
}

void run_traced(const run_options& o, report& r, books& b) {
  // Untraced half first: the reference p50 for the tracing overhead.
  double untraced_p50 = 0.0;
  {
    auto rig = warm_rig(nullptr, nullptr, nullptr, b);
    common::xoshiro256ss rng(o.seed);
    untraced_p50 = median(closed_loop(o.seconds / 2, kExactUnits,
                                      [&](u64 i) { return rig->run_unit(rng, i, b).ref_ms; }));
  }

  span_log spans;
  auto opts = table1_options();
  opts.validate();
  auto meter_owner = std::make_unique<metered_backend>(runtime::make_backend(opts), &spans);
  metered_backend* meter = meter_owner.get();
  auto rig = warm_rig(&spans, meter, std::move(meter_owner), b);
  common::xoshiro256ss rng(o.seed);
  workload_trace t;
  t.untraced_p50_ms = untraced_p50;
  t.before = rig->ctx().stats();
  t.ops_before = meter->snapshot();
  const auto ms = closed_loop(o.seconds / 2, kExactUnits, [&](u64 i) {
    const double unit_ms = rig->run_unit(rng, i + 1, b).ref_ms;
    if (i + 1 == kExactUnits) t.ops_exact = meter->snapshot();
    return unit_ms;
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
  r.note("trace", export_trace(
                      o, [&](const std::string& path) { rig->ctx().export_trace(path); }, spans));
}

}  // namespace

void run_ntt_table1(const run_options& o, report& r, books& b) {
  if (!o.trace) {
    const cpu_pin pin;  // before any context starts its executor thread
    run_untraced(o, r, b);
    return;
  }
  {
    const cpu_pin pin;
    run_traced(o, r, b);
  }
  // The probes run multi-threaded configurations: not pinned.
  probe_layers(o.seed, r, b);
  probe_crypto(o.seed, r, b);
  probe_service(o.seed, r, b);
}

}  // namespace perfbench

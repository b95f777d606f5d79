// Table I reproduction: BP-NTT (measured on the cycle-level simulator)
// against the published 45 nm-projected baselines, on a 256-point
// polynomial.  Prints the full table, the paper's anchor row for BP-NTT,
// and the headline TA/TP ratios ("up to 29x throughput-per-area, 10-138x
// throughput-per-power").
//
// Both measured rows — the in-SRAM design and the Montgomery software
// baseline — run through bpntt::runtime with identical forward-NTT job
// batches, so the comparison the table makes is apples-to-apples by
// construction: same job model, same scheduler, different backend.
//
// Usage: bench_table1_comparison [--json <path>] [--cpu-iters <n>]
//   --json       also emit every row and the headline ratios as JSON (the
//                CI perf-trajectory artifact, conventionally
//                BENCH_table1.json)
//   --cpu-iters  iterations for the measured-CPU row (default 2000; CI
//                smoke runs use fewer)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/cpu_baseline.h"
#include "baselines/design_model.h"
#include "baselines/published.h"
#include "bpntt/perf_model.h"
#include "common/table.h"
#include "common/xoshiro.h"
#include "runtime/context.h"
#include "runtime/cpu_backend.h"

namespace {

using bpntt::common::format_double;
using bpntt::common::format_si;

// Submit one wave-filling batch of random forward NTTs to the context.
std::vector<bpntt::runtime::job_result> run_forward_batch(bpntt::runtime::context& ctx,
                                                          unsigned jobs, std::uint64_t seed) {
  const auto& p = ctx.options().params;
  bpntt::common::xoshiro256ss rng(seed);
  for (unsigned i = 0; i < jobs; ++i) {
    std::vector<bpntt::core::u64> poly(p.n);
    for (auto& c : poly) c = rng.below(p.q);
    (void)ctx.submit(bpntt::runtime::ntt_job{.coeffs = std::move(poly)});
  }
  return ctx.wait_all();
}

bpntt::baselines::design_point measure_bpntt_row(unsigned coef_bits, std::uint64_t q) {
  using namespace bpntt;
  // One compute subarray (plus CTRL/CMD): the paper's single-array
  // measurement, whose area model metrics_from_run anchors to.
  const auto opts = runtime::runtime_options()
                        .with_ring(256, q, coef_bits)
                        .with_backend(runtime::backend_kind::sram)
                        .with_subarrays(2);
  runtime::context ctx(opts);
  const auto results = run_forward_batch(ctx, ctx.wave_width(), /*seed=*/42);
  const auto& batch = results.front();
  if (batch.op_stats.lossless_shift_violations != 0) {
    throw std::runtime_error("BP-NTT run violated the lossless-shift envelope");
  }
  const auto m = core::metrics_from_run(opts.array, opts.params.n, coef_bits, ctx.wave_width(),
                                        batch.wall_cycles, batch.op_stats.energy_pj * 1e-3);
  baselines::design_point d;
  d.name = "BP-NTT (ours, k=" + std::to_string(coef_bits) + ")";
  d.technology = "In-SRAM";
  d.coef_bits = coef_bits;
  d.max_f_mhz = opts.array.tech.freq_ghz * 1e3;
  d.latency_us = m.latency_us;
  d.throughput_kntt_s = m.throughput_kntt_s;
  d.energy_nj = m.energy_nj;
  d.ntts_per_batch = m.lanes;
  d.area_mm2 = m.area_mm2;
  return d;
}

// The Montgomery software baseline through the same runtime interface.
// A single executor worker keeps the row single-core, matching the
// methodology of the published per-core CPU baselines (the runtime's
// multi-thread chunking would otherwise fold host parallelism into it).
bpntt::baselines::design_point measure_cpu_row(unsigned iterations) {
  using namespace bpntt;
  const auto opts = runtime::runtime_options()
                        .with_ring(256, 12289, 16)
                        .with_backend(runtime::backend_kind::cpu)
                        .with_threads(1);
  runtime::context ctx(opts);
  const auto results = run_forward_batch(ctx, iterations, /*seed=*/43);
  const auto& batch = results.front();
  const double seconds = batch.wall_cycles / (runtime::kCpuFreqGhz * 1e9);
  baselines::cpu_measurement m;
  m.latency_us = seconds * 1e6 / iterations;
  m.throughput_kntt_s = iterations / seconds / 1e3;
  m.energy_nj = batch.op_stats.energy_pj * 1e-3 / iterations;
  m.assumed_power_w = runtime::kCpuPowerW;
  auto row = baselines::cpu_design_point(m, 16);
  row.name = "CPU (measured, Montgomery)";
  return row;
}

// Minimal JSON emitter for the perf-trajectory artifact — no dependency,
// just rows and headline ratios with stable keys.
void append_row_json(std::string& out, const bpntt::baselines::design_point& d,
                     bool measured) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {\"name\": \"%s\", \"technology\": \"%s\", \"coef_bits\": %u, "
                "\"measured\": %s, \"latency_us\": %.6g, \"throughput_kntt_s\": %.6g, "
                "\"energy_nj\": %.6g, \"area_mm2\": %.6g, \"tput_per_mj\": %.6g}",
                d.name.c_str(), d.technology.c_str(), d.coef_bits,
                measured ? "true" : "false", d.latency_us, d.throughput_kntt_s, d.energy_nj,
                d.area_mm2, d.tput_per_mj());
  out += buf;
}

void write_json(const std::string& path,
                const std::vector<std::pair<bpntt::baselines::design_point, bool>>& rows,
                const bpntt::baselines::headline_ratios& ours,
                const bpntt::baselines::headline_ratios& paper) {
  std::string out = "{\n  \"bench\": \"table1_comparison\",\n  \"n\": 256,\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    append_row_json(out, rows[i].first, rows[i].second);
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  ],\n  \"headlines\": {\n"
                "    \"ours\":  {\"max_ta\": %.6g, \"min_tp\": %.6g, \"max_tp\": %.6g},\n"
                "    \"paper\": {\"max_ta\": %.6g, \"min_tp\": %.6g, \"max_tp\": %.6g}\n"
                "  }\n}\n",
                ours.max_ta, ours.min_tp, ours.max_tp, paper.max_ta, paper.min_tp,
                paper.max_tp);
  out += buf;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("table1_comparison: cannot open --json path " + path);
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("\nwrote %zu JSON bytes to %s\n", out.size(), path.c_str());
}

std::vector<std::string> row_cells(const bpntt::baselines::design_point& d) {
  return {d.name,
          d.technology,
          std::to_string(d.coef_bits),
          d.max_f_mhz > 0 ? format_si(d.max_f_mhz * 1e6, 1) + "Hz" : "-",
          format_double(d.latency_us, 2),
          format_double(d.throughput_kntt_s, 1),
          format_double(d.energy_nj, 1),
          d.area_mm2 > 0 ? format_double(d.area_mm2, 3) : "-",
          d.area_mm2 > 0 ? format_double(d.tput_per_area(), 1) : "-",
          format_double(d.tput_per_mj(), 2)};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  unsigned cpu_iters = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cpu-iters") == 0 && i + 1 < argc) {
      cpu_iters = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (cpu_iters == 0) cpu_iters = 1;
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>] [--cpu-iters <n>]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== Table I: comparing BP-NTT with state-of-the-art on a 256-point "
              "polynomial (45 nm) ===\n\n");

  // Measured BP-NTT rows at the paper's two parameter points.  16-bit uses
  // the Falcon prime; "14-bit class" uses the round-1 Kyber prime on 14-bit
  // tiles (2q < 2^14), matching the paper's coefficient-bitwidth pairing.
  const auto bp16 = measure_bpntt_row(16, 12289);
  const auto bp14 = measure_bpntt_row(14, 7681);
  const auto paper = bpntt::baselines::published_bpntt();
  const auto baselines = bpntt::baselines::all_published_baselines();

  bpntt::common::text_table table({"Design", "Tech", "Bits", "Max f", "Lat(us)",
                                   "Tput(KNTT/s)", "E(nJ)", "Area(mm2)", "TA", "TP(KNTT/mJ)"});
  table.add_row(row_cells(bp16));
  table.add_row(row_cells(bp14));
  table.add_row(row_cells(paper));
  table.add_separator();
  for (const auto& d : baselines) table.add_row(row_cells(d));

  // Measured CPU baselines on this host (methodology note printed below):
  // the portable 128-bit-division NTT and, through the same runtime job
  // interface as the BP-NTT rows, the Montgomery-reduction one.
  const bpntt::math::ntt_tables tables(256, 12289, true);
  const auto cpu = bpntt::baselines::measure_cpu_ntt(tables);
  auto cpu_row = bpntt::baselines::cpu_design_point(cpu, 16);
  cpu_row.name = "CPU (measured, portable)";
  const auto cpu_fast_row = measure_cpu_row(cpu_iters);
  table.add_separator();
  table.add_row(row_cells(cpu_row));
  table.add_row(row_cells(cpu_fast_row));

  std::printf("%s\n", table.to_string(2).c_str());

  const auto ours = bpntt::baselines::compute_headlines(bp16, baselines);
  const auto papers = bpntt::baselines::compute_headlines(paper, baselines);
  std::printf("Headline ratios vs published baselines (paper claims: up to 29x TA, "
              "10-138x TP):\n");
  std::printf("  ours  : TA up to %.1fx | TP %.1fx - %.1fx\n", ours.max_ta, ours.min_tp,
              ours.max_tp);
  std::printf("  paper : TA up to %.1fx | TP %.1fx - %.1fx\n", papers.max_ta, papers.min_tp,
              papers.max_tp);

  std::printf("\nAnchor check (BP-NTT 16-bit, paper -> ours):\n");
  std::printf("  latency  %.1f -> %.1f us   (%.2fx)\n", paper.latency_us, bp16.latency_us,
              bp16.latency_us / paper.latency_us);
  std::printf("  tput     %.1f -> %.1f KNTT/s\n", paper.throughput_kntt_s,
              bp16.throughput_kntt_s);
  std::printf("  energy   %.1f -> %.1f nJ/batch\n", paper.energy_nj, bp16.energy_nj);
  std::printf("  area     %.3f -> %.3f mm2\n", paper.area_mm2, bp16.area_mm2);
  std::printf("  TP       %.1f -> %.1f KNTT/mJ\n", paper.tput_per_mj(), bp16.tput_per_mj());

  std::printf("\nNotes: baseline rows are the paper's published 45nm-projected numbers\n"
              "(Table I footnote *); the measured CPU rows use this host and an assumed\n"
              "%.0f W core power, so only their order of magnitude is meaningful.\n",
              cpu.assumed_power_w);

  if (!json_path.empty()) {
    std::vector<std::pair<bpntt::baselines::design_point, bool>> rows;
    rows.emplace_back(bp16, true);
    rows.emplace_back(bp14, true);
    rows.emplace_back(paper, false);
    for (const auto& d : baselines) rows.emplace_back(d, false);
    rows.emplace_back(cpu_row, true);
    rows.emplace_back(cpu_fast_row, true);
    write_json(json_path, rows, ours, papers);
  }
  return 0;
}

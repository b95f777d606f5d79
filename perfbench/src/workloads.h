// The benchmark's workloads and layer probes.
//
// A workload run fills the report with every end-to-end metric (untraced
// run) or every per-layer metric (traced run) and books each unit it
// attempts; main() turns that into the result line.
#pragma once

#include "harness.h"

namespace perfbench {

void run_ntt_table1(const run_options& o, report& r, books& b);
void run_he_mul(const run_options& o, report& r, books& b);
void run_service_mix(const run_options& o, report& r, books& b);

// Layer probes every traced run executes: fixed-size calls into the public
// functions of sram, bpntt, runtime (bare cpu context, direct backend
// calls, a context's own time around its backend call) and rns, at the
// Table-I geometry.
void probe_layers(u64 seed, report& r, books& b);
// The crypto layer's metrics from a short he_mul pass, and the service
// layer's from a short service_mix pass — for traced runs of the workloads
// that do not drive those layers themselves.
void probe_crypto(u64 seed, report& r, books& b);
void probe_service(u64 seed, report& r, books& b);

}  // namespace perfbench

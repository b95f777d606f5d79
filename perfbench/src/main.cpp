// perfbench — the repository benchmark.
//
//   perfbench --workload <ntt_table1|he_mul|service_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the workload
// half untraced, half traced (virtual-timeline tracing on, host spans
// around every layer call, a metering backend) plus the layer probes, and
// prints every per-layer metric.  The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}
// Exit status: 0 ok, 1 a wrong output or failed unit, 2 usage, 3 the run is
// invalid (non-Release build, or the open-loop generator fell behind), 4 an
// unexpected error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <ntt_table1|he_mul|service_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               argv0);
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  run_options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && o.seconds > 0 && o.seconds <= 120;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      o.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  void (*run)(const run_options&, report&, books&) = nullptr;
  if (o.workload == "ntt_table1") run = run_ntt_table1;
  if (o.workload == "he_mul") run = run_he_mul;
  if (o.workload == "service_mix") run = run_service_mix;
  if (run == nullptr || !have_seed || !have_seconds || !have_trace) return usage(argv[0]);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u build=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, nproc, build_type.c_str());
  std::fflush(stdout);

  report r;
  books b;
  try {
    run(o, r, b);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 4;
  }

  for (const auto& e : r.entries()) {
    std::printf("  %-44s %18.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::string invalid =
      build_type == "Release" ? "" : "build type " + build_type + " is not Release";
  for (const auto& [name, text] : r.notes()) {
    std::printf("  note %s: %s\n", name.c_str(), text.c_str());
    if (name == "invalid") invalid = text;
  }
  for (const auto& why : b.reasons()) std::printf("  FAILED: %s\n", why.c_str());
  std::printf("perfbench: valid=%s%s%s\n", invalid.empty() ? "true" : "false",
              invalid.empty() ? "" : " — ", invalid.c_str());

  const bool correct = b.failed() == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(b.attempted()) +
                     ", \"failed\": " + std::to_string(b.failed()) + ", \"metrics\": {";
  bool first = true;
  for (const auto& e : r.entries()) {
    json += (first ? "\"" : ", \"") + e.name + "\": {\"value\": " + json_number(e.value) +
            ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  if (!correct) return 1;
  return invalid.empty() ? 0 : 3;
}

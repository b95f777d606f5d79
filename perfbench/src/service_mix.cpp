// service_mix — four tenants on one service::service, open loop.
//
// cpu backend at the Table-I ring, two executor threads, EDF with aging 8,
// cross-stream batching on.  The four tenants are the service soak's
// (bench/soak.cpp) tenant classes with their session options: `latency`
// (forward/inverse NTTs, priority 8, a 20'000-cycle deadline), `bulk`
// (products, priority 0, chunk budget 32), `limb` (an RNS limb tenant on
// its own NTT prime, priority 4: products, base extensions and rescales in
// turn) and `plain` (products, priority 2; the soak's `crypto` class, which
// sends R-LWE encryptions, minus those).  The soak gives every class the
// same number of clients; here every tenant gets the same share of the
// offered jobs.
//
// One client thread submits at a fixed offered rate with seeded
// exponential gaps and, between sends, polls every outstanding ticket,
// stamping each as it becomes ready, whatever its order.  Each job is timed
// from the moment it was *due*, so a stall that delays later sends counts
// against them.
//
// Backend math is microseconds here, so host time goes to the submission
// ring, the drainer, the scheduler and context bookkeeping — the sram
// simulator does no work at all.  A seeded sample of results is replayed
// through the reference backend and must match bit for bit.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/xoshiro.h"
#include "nttmath/primes.h"
#include "runtime/context.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace bpntt;

constexpr u64 kN = 256;
constexpr u64 kQ = 12289;
constexpr unsigned kK = 16;
// Offered load, frozen: a bit under half the rate at which this mix
// saturated (~43.5k jobs/s: latency p50 0.19 ms at 20k and 0.30 ms at 30k
// offered, 1.5 ms at 40k, 0.4 s at 50k) on a 4-core x86 VM when the
// benchmark was introduced.  Fixed, not searched for, so every build is
// offered the same jobs at the same times.
constexpr double kOfferedPerS = 20'000.0;
// The latency tenant's completion budget, as in the soak.
constexpr u64 kLatencyDeadlineCycles = 20'000;
// How often the client thread sweeps the outstanding tickets.
constexpr auto kPoll = std::chrono::microseconds(20);
constexpr int kSetups = 9;
constexpr unsigned kWarmJobs = 2'000;
// One job in kSampleEvery is replayed through the reference backend.
constexpr u64 kSampleEvery = 256;
// A run whose generator sent the median job later than this behind its due
// time could not keep the schedule; it is reported invalid.
constexpr double kMaxMedianLagMs = 5.0;

enum class tenant : unsigned { latency, bulk, limb, plain };

using any_job = std::variant<runtime::ntt_job, runtime::polymul_job, runtime::rns_rescale_job,
                             runtime::rns_base_extend_job>;

struct spec {
  tenant who = tenant::latency;
  any_job job;
};

// The seeded job stream: tenant, kind and inputs of every job.
class job_source {
 public:
  job_source(u64 seed, u64 limb, u64 partner) : rng_(seed), limb_(limb), partner_(partner) {}

  // Tenants in equal shares; the job kinds each sends are the soak's.
  spec next() {
    switch (static_cast<tenant>(rng_.below(4))) {
      case tenant::latency: {
        const auto dir = rng_.coin() ? core::transform_dir::forward : core::transform_dir::inverse;
        return {tenant::latency, runtime::ntt_job{.dir = dir, .coeffs = poly(kQ)}};
      }
      case tenant::bulk:
        return {tenant::bulk, runtime::polymul_job{.a = poly(kQ), .b = poly(kQ)}};
      case tenant::plain:
        return {tenant::plain, runtime::polymul_job{.a = poly(kQ), .b = poly(kQ)}};
      case tenant::limb:
        break;
    }
    // What a leveled client's relinearization emits on its limb stream, in
    // the soak's order: the evk product, the base-extension lift, the
    // modulus-switch correction.
    switch (limb_jobs_++ % 3) {
      case 0:
        return {tenant::limb, runtime::polymul_job{.a = poly(limb_), .b = poly(limb_)}};
      case 1:
        return {tenant::limb, runtime::rns_base_extend_job{.prime = limb_,
                                                           .source_primes = {partner_},
                                                           .residues = {poly(partner_)}}};
      default:
        return {tenant::limb, runtime::rns_rescale_job{.prime = limb_,
                                                       .drop_prime = partner_,
                                                       .x = poly(limb_),
                                                       .dropped = poly(partner_),
                                                       .congruence = 2}};
    }
  }

  // Exponential gap (seconds) of a Poisson arrival process at `rate`.
  double gap_s(double rate) {
    const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
    return -std::log1p(-u) / rate;
  }
  bool sampled() { return rng_.below(kSampleEvery) == 0; }

 private:
  std::vector<u64> poly(u64 q) {
    std::vector<u64> p(kN);
    for (auto& c : p) c = rng_.below(q);
    return p;
  }
  common::xoshiro256ss rng_;
  u64 limb_, partner_;
  u64 limb_jobs_ = 0;
};

// Two 14-bit NTT primes besides the ring's: the limb tenant's ring and the
// partner limb its rescales drop and its extensions lift from.
std::pair<u64, u64> limb_primes() {
  std::vector<u64> ps;
  for (const u64 p : math::first_k_ntt_primes(14, kN, 3)) {
    if (p != kQ) ps.push_back(p);
  }
  return {ps.at(0), ps.at(1)};
}

runtime::runtime_options mix_options(bool traced) {
  auto o = runtime::runtime_options()
               .with_ring(kN, kQ, kK)
               .with_backend(runtime::backend_kind::cpu)
               .with_threads(2)
               .with_schedule(runtime::schedule_policy::edf, /*aging=*/8)
               .with_cross_stream_batching();
  if (traced) o.with_tracing();
  return o;
}

// One service with its four tenant sessions.
struct rig {
  std::unique_ptr<service::service> svc;
  std::vector<service::session> sessions;  // indexed by tenant
  u64 limb = 0, partner = 0;

  // Traced (virtual-timeline tracing plus a metered backend) iff spans.
  explicit rig(span_log* spans) {
    std::tie(limb, partner) = limb_primes();
    const service::service_options so{.queue_capacity = 1u << 16};
    if (spans != nullptr) {
      auto opts = mix_options(true);
      opts.validate();
      auto meter = std::make_unique<metered_backend>(runtime::make_backend(opts), spans);
      meter_ = meter.get();
      svc = std::make_unique<service::service>(opts, std::move(meter), so);
    } else {
      svc = std::make_unique<service::service>(mix_options(false), so);
    }
    // Caps far above what the offered rate can queue: a rejection is a
    // failure of the run, never backpressure it is meant to exercise.
    constexpr std::size_t kCap = 1u << 16;
    const auto open = [&](service::session_options so) {
      so.max_queued = so.max_in_flight = kCap;
      sessions.push_back(svc->open_session(so));
    };
    open({.priority = 8, .deadline_cycles = kLatencyDeadlineCycles});  // tenant::latency
    open({.priority = 0, .chunk_budget = 32});                         // tenant::bulk
    open({.priority = 4, .ring_q = limb});                             // tenant::limb
    open({.priority = 2});                                             // tenant::plain
  }
  ~rig() {
    for (auto& s : sessions) s.close();
    if (svc) svc->drain();
  }
  rig(const rig&) = delete;
  rig& operator=(const rig&) = delete;

  service::ticket submit(const spec& s) {
    auto& session = sessions[static_cast<unsigned>(s.who)];
    return std::visit([&](const auto& j) { return session.submit(j); }, s.job);
  }
  metered_backend* meter() const noexcept { return meter_; }

 private:
  metered_backend* meter_ = nullptr;
};

// Build, open the tenants and push a closed-loop warm-up through every
// tenant and job kind.
std::unique_ptr<rig> warm_rig(span_log* spans, books& b) {
  auto r = std::make_unique<rig>(spans);
  job_source src(0x5e2f1ce, r->limb, r->partner);
  std::vector<service::ticket> tickets;
  for (unsigned i = 0; i < kWarmJobs; ++i) {
    tickets.push_back(r->submit(src.next()));
    if (tickets.size() == 64 || i + 1 == kWarmJobs) {
      for (auto& t : tickets) {
        if (t.get().status != runtime::job_status::ok) b.fail("service_mix warm-up job failed");
      }
      tickets.clear();
    }
  }
  return r;
}

struct sample {
  spec in;
  std::vector<u64> out;
};

// Everything one open-loop pass measured.
struct pass_result {
  std::vector<double> latency_ms;  // due -> completion, per completed job
  std::vector<double> submit_us;   // time inside session::submit
  std::vector<double> lag_ms;      // how late the generator sent each job
  double span_s = 0.0;             // first due time -> last completion
  u64 completed = 0;
  std::vector<sample> samples;
};

pass_result open_loop(rig& r, u64 seed, double seconds, books& b, span_log* spans) {
  pass_result out;
  struct pending {
    service::ticket tk;
    steady::time_point due;
    u64 n = 0;
    std::optional<std::size_t> sample;
  };
  std::vector<pending> live;  // sent, not yet complete
  steady::time_point last_done;

  // Stamp every outstanding ticket that is ready, whatever its order.
  const auto sweep = [&] {
    std::size_t kept = 0;
    for (auto& p : live) {
      if (!p.tk.ready()) {
        live[kept++] = std::move(p);
        continue;
      }
      const auto now = steady::now();
      auto res = p.tk.get();
      last_done = std::max(last_done, now);
      if (spans != nullptr && p.n < span_log::kMaxSpans / 4) {
        spans->record("service", "job", p.due, now, p.n);
      }
      if (res.status != runtime::job_status::ok) {
        b.fail("service_mix job failed: " + res.error);
        continue;
      }
      ++out.completed;
      out.latency_ms.push_back(ms_between(p.due, now));
      if (p.sample) out.samples[*p.sample].out = std::move(res.outputs.at(0));
    }
    live.resize(kept);
  };

  // One client thread sends each job at its due time and, while it waits
  // for the next one, sweeps the outstanding tickets every kPoll.  A thread
  // of its own, so its fine timer slack stays off every library thread.
  std::thread client([&] {
    fine_timer_slack();
    job_source src(seed, r.limb, r.partner);
    const auto t0 = steady::now();
    const auto stop = t0 + std::chrono::duration<double>(seconds);
    auto due = t0;
    for (u64 n = 0;; ++n) {
      due += std::chrono::duration_cast<steady::duration>(
          std::chrono::duration<double>(src.gap_s(kOfferedPerS)));
      if (due >= stop) break;
      spec s = src.next();
      const bool keep = src.sampled();
      for (;;) {
        sweep();
        const auto next_poll = steady::now() + kPoll;
        if (next_poll >= due) break;
        std::this_thread::sleep_until(next_poll);
      }
      std::this_thread::sleep_until(due);
      const auto sent = steady::now();
      b.attempt();
      try {
        pending p{r.submit(s), due, n, std::nullopt};
        const auto submitted = steady::now();
        out.submit_us.push_back(ms_between(sent, submitted) * 1e3);
        out.lag_ms.push_back(ms_between(due, sent));
        if (spans != nullptr && n < span_log::kMaxSpans / 4) {
          spans->record("service", "submit", sent, submitted, n);
        }
        if (keep) {
          p.sample = out.samples.size();
          out.samples.push_back({std::move(s), {}});
        }
        live.push_back(std::move(p));
      } catch (const service::admission_error& e) {
        b.fail(std::string("service_mix rejected a job: ") + e.what());
      }
    }
    for (sweep(); !live.empty(); sweep()) std::this_thread::sleep_for(kPoll);
    out.span_s = ms_between(t0, last_done) / 1e3;
  });
  client.join();
  return out;
}

// Replay the sampled jobs through the reference backend; every output must
// match what the service returned.
void replay(const rig& r, const pass_result& p, books& b) {
  auto opts = runtime::runtime_options()
                  .with_ring(kN, kQ, kK)
                  .with_backend(runtime::backend_kind::reference)
                  .with_threads(1);
  runtime::context ref(opts);
  auto main = ref.stream();
  runtime::stream_options limb_opts;
  limb_opts.ring_q = r.limb;
  auto limb = ref.stream(limb_opts);
  std::vector<runtime::job_id> ids;
  for (const auto& s : p.samples) {
    auto& lane = s.in.who == tenant::limb ? limb : main;
    ids.push_back(std::visit([&](const auto& j) { return lane.submit(j); }, s.in.job));
  }
  main.flush();
  limb.flush();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto res = ref.wait(ids[i]);
    if (p.samples[i].out.empty()) continue;  // the job failed; already booked
    if (res.outputs.at(0) != p.samples[i].out) {
      b.fail("service_mix: sampled job " + std::to_string(i) + " differs from the reference");
    }
  }
}

// The cpu backend the service runs on has no array clock, so the mix's
// modelled array cost comes from the sram backend at the same ring: the
// latency tenant's transforms, one seeded forward and one inverse, per
// transform.  They are the only job of the mix the array runs at n = 256:
// a product needs two n-row regions per lane (2n = 512 data rows, past
// the 502 a subarray addresses), and rescales and base extensions are
// host-side CRT on every backend.
struct array_cost {
  double cycles = 0.0;
  double energy_nj = 0.0;
};

array_cost mix_array_cost(u64 seed, books& b) {
  auto opts = runtime::runtime_options()
                  .with_ring(kN, kQ, kK)
                  .with_backend(runtime::backend_kind::sram)
                  .with_threads(1);
  runtime::context ctx(opts);
  common::xoshiro256ss rng(seed);
  array_cost cost;
  for (const auto dir : {core::transform_dir::forward, core::transform_dir::inverse}) {
    std::vector<u64> p(kN);
    for (auto& c : p) c = rng.below(kQ);
    const auto res = ctx.wait(ctx.submit(runtime::ntt_job{.dir = dir, .coeffs = std::move(p)}));
    if (res.status != runtime::job_status::ok) b.fail("service_mix array cost: " + res.error);
    cost.cycles += 0.5 * static_cast<double>(res.wall_cycles);
    cost.energy_nj += 0.5 * res.op_stats.energy_pj * 1e-3;
  }
  return cost;
}

void check_schedule(const pass_result& p, report& r) {
  const double lag = median(p.lag_ms);
  if (lag > kMaxMedianLagMs) {
    r.note("invalid", "generator median lag " + std::to_string(lag) + " ms exceeds " +
                          std::to_string(kMaxMedianLagMs) + " ms");
  }
}

void report_service(report& r, const pass_result& p, const rig& rg) {
  const auto st = rg.svc->stats();
  r.set("service.submit_us.p50", median(p.submit_us), "us");
  const tail_stat t = tail_of(p.submit_us);
  r.set("service.submit_us.tail", t.value, "us");
  r.note("service.submit_us.tail", "p" + std::to_string(static_cast<int>(t.percentile)) +
                                       " of " + std::to_string(t.samples) + " samples");
  r.set("service.self_us", median(p.latency_ms) * 1e3 - r.value("runtime.job_us.cpu"), "us");
  const auto* qw = rg.svc->metrics().find_histogram("service.queue_wait_ns");
  r.set("service.queue_wait_us.p50", qw ? qw->snapshot().quantile_ns(0.5) / 1e3 : 0.0, "us");
  r.note("service.queue_wait_us.p50", "advisory: histogram buckets are 25% wide");
  r.set("service.rejected.queue_full", static_cast<double>(st.rejected_queue_full), "count");
  r.set("service.rejected.backlog", static_cast<double>(st.rejected_backlog), "count");
  r.set("service.rejected.in_flight", static_cast<double>(st.rejected_in_flight), "count");
  r.set("service.rejected.closed", static_cast<double>(st.rejected_closed), "count");
  r.set("service.generator_lag_ms.p50", median(p.lag_ms), "ms");
  r.set("service.generator_lag_ms.max",
        p.lag_ms.empty() ? 0.0 : *std::max_element(p.lag_ms.begin(), p.lag_ms.end()), "ms");
}

void run_untraced(const run_options& o, report& r, books& b) {
  std::unique_ptr<rig> rg;
  const double setup = median_setup_s(kSetups, [&] {
    rg.reset();
    rg = warm_rig(nullptr, b);
  });
  const auto p = open_loop(*rg, o.seed, o.seconds, b, nullptr);
  rg->svc->drain();
  replay(*rg, p, b);
  check_schedule(p, r);
  r.set("setup_s", setup, "s");
  report_latency(r, p.latency_ms, "wall time from each job's due time");
  r.set("throughput_per_s", p.span_s > 0 ? static_cast<double>(p.completed) / p.span_s : 0.0,
        "1/s");
  const array_cost cost = mix_array_cost(o.seed, b);
  r.set("array_cycles", cost.cycles, "cycles");
  r.note("array_cycles", "per latency-tenant transform, modelled on the sram backend");
  r.set("array_energy_nj", cost.energy_nj, "nJ");
  report_outcome(r, b);
}

void run_traced(const run_options& o, report& r, books& b) {
  double untraced_p50 = 0.0;
  {
    auto rg = warm_rig(nullptr, b);
    untraced_p50 = median(open_loop(*rg, o.seed, o.seconds / 2, b, nullptr).latency_ms);
  }
  span_log spans;
  auto rg = warm_rig(&spans, b);
  workload_trace t;
  t.untraced_p50_ms = untraced_p50;
  t.before = rg->svc->runtime_stats();
  t.ops_before = t.ops_exact = rg->meter()->snapshot();
  const auto p = open_loop(*rg, o.seed, o.seconds / 2, b, &spans);
  rg->svc->drain();
  t.after = rg->svc->runtime_stats();
  t.ops_after = rg->meter()->snapshot();
  t.units = static_cast<double>(p.completed);
  t.exact_units = 1;
  for (const double m : p.latency_ms) t.traced_ms_total += m;
  t.traced_p50_ms = median(p.latency_ms);
  t.trace = rg->svc->trace_stats();
  replay(*rg, p, b);
  check_schedule(p, r);
  report_workload_layers(r, t);
  r.note("trace", export_trace(
                      o, [&](const std::string& path) { rg->svc->export_trace(path); }, spans));

  probe_layers(o.seed, r, b);
  report_service(r, p, *rg);
  probe_crypto(o.seed, r, b);
}

}  // namespace

void run_service_mix(const run_options& o, report& r, books& b) {
  if (o.trace) {
    run_traced(o, r, b);
  } else {
    run_untraced(o, r, b);
  }
}

void probe_service(u64 seed, report& r, books& b) {
  auto rg = warm_rig(nullptr, b);
  const auto p = open_loop(*rg, seed, 0.5, b, nullptr);
  rg->svc->drain();
  replay(*rg, p, b);
  report_service(r, p, *rg);
}

}  // namespace perfbench

// Service-layer tests: ticket round trips, bit-identical results under
// concurrent multi-producer submission (the MPSC stress), typed admission
// control at each cap, stream retirement across session lifetimes, deadline
// accounting in the service stats, and the any-thread stats contract (this
// suite also runs under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/xoshiro.h"
#include "crypto/rlwe.h"
#include "nttmath/primes.h"
#include "service/service.h"

namespace bpntt::service {
namespace {

using runtime::backend_caps;
using runtime::batch_result;
using runtime::dispatch_hints;
using runtime::job_status;
using runtime::ntt_job;
using runtime::polymul_job;
using runtime::transform_dir;

runtime::runtime_options small_sram() {
  return runtime::runtime_options()
      .with_ring(32, 193, 9)
      .with_backend(runtime::backend_kind::sram)
      .with_array(64, 36)
      .with_subarrays(4);
}

std::vector<u64> random_poly(u64 n, u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> p(n);
  for (auto& c : p) c = rng.below(q);
  return p;
}

// A backend that parks every dispatch on its pool thread until release():
// the deterministic way to hold a session's jobs in flight while the test
// probes admission control.
class gated_backend final : public runtime::backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "gated"; }
  [[nodiscard]] backend_caps capabilities() const override {
    backend_caps caps;
    caps.polymul = true;
    return caps;
  }

  batch_result run_ntt(const std::vector<std::vector<u64>>& polys, transform_dir,
                       const dispatch_hints&) override {
    gate();
    batch_result r;
    r.outputs = polys;
    r.waves = polys.empty() ? 0 : 1;
    r.wall_cycles = polys.empty() ? 0 : 1000;
    return r;
  }
  batch_result run_polymul(const std::vector<core::polymul_pair>& pairs,
                           const dispatch_hints&) override {
    gate();
    batch_result r;
    for (const auto& pr : pairs) r.outputs.push_back(pr.a);
    r.waves = pairs.empty() ? 0 : 1;
    r.wall_cycles = pairs.empty() ? 0 : 1000;
    return r;
  }

  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  void gate() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return released_; });
  }
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

// Poll an observable service condition with a generous deadline (the
// drainer runs asynchronously; its idle poll is hundreds of microseconds).
template <typename Pred>
bool eventually(Pred&& ok, std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!ok()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// ---- round trips -----------------------------------------------------------

TEST(Service, SingleJobRoundTripMatchesDirectSubmission) {
  common::xoshiro256ss rng(51);
  const auto input = random_poly(32, 193, rng);

  runtime::context direct(small_sram());
  const auto expected = direct.wait(direct.submit(ntt_job{.coeffs = input}));

  service svc(small_sram());
  auto sess = svc.open_session();
  auto t = sess.submit(ntt_job{.coeffs = input});
  ASSERT_TRUE(t.valid());
  const auto got = t.get();
  EXPECT_EQ(got.status, job_status::ok);
  EXPECT_EQ(got.outputs, expected.outputs);

  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.latency_samples, 1u);
  EXPECT_GT(s.p50_ns, 0u);
  EXPECT_LE(s.p50_ns, s.p99_ns);
}

TEST(Service, TicketIsConsumeOnceAndDiagnosesEmptiness) {
  ticket empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.ready());
  EXPECT_THROW((void)empty.get(), std::logic_error);

  service svc(small_sram());
  auto sess = svc.open_session();
  common::xoshiro256ss rng(52);
  auto t = sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  EXPECT_EQ(t.get().status, job_status::ok);
  EXPECT_TRUE(t.ready());
  EXPECT_THROW((void)t.get(), std::logic_error);  // already claimed
}

TEST(Service, ConcurrentProducersGetBitIdenticalResultsToSerial) {
  // The MPSC stress: several client threads push a deterministic mix of
  // job kinds through one service; every ticket must resolve exactly once
  // with outputs bit-identical to the same jobs run serially through a
  // plain context.  Lost or duplicated submissions fail loudly here.
  constexpr unsigned kProducers = 4;
  constexpr unsigned kJobsEach = 30;

  struct planned_job {
    unsigned kind;  // 0 = fwd ntt, 1 = inv ntt, 2 = polymul, 3 = rlwe
    ntt_job ntt;
    polymul_job mul;
    crypto::rlwe_request rlwe;
  };
  std::vector<std::vector<planned_job>> plan(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    common::xoshiro256ss rng(100 + p);
    for (unsigned i = 0; i < kJobsEach; ++i) {
      planned_job j;
      j.kind = static_cast<unsigned>(rng.below(4));
      switch (j.kind) {
        case 0:
          j.ntt = ntt_job{.coeffs = random_poly(32, 193, rng)};
          break;
        case 1:
          j.ntt = ntt_job{.dir = transform_dir::inverse,
                          .coeffs = random_poly(32, 193, rng)};
          break;
        case 2:
          j.mul = polymul_job{.a = random_poly(32, 193, rng),
                              .b = random_poly(32, 193, rng)};
          break;
        default: {
          std::vector<u64> msg(32);
          for (auto& b : msg) b = rng() & 1ULL;
          j.rlwe = crypto::rlwe_request{.message = msg, .seed = rng()};
          break;
        }
      }
      plan[p].push_back(std::move(j));
    }
  }

  // An R-LWE request's outputs: ciphertext u, v and the decryption.
  const auto rlwe_outputs = [](crypto::rlwe_response&& r) {
    return std::vector<std::vector<u64>>{std::move(r.ct.u), std::move(r.ct.v),
                                         std::move(r.decrypted)};
  };
  const auto ring = crypto::runtime_ring(small_sram());

  // The serial ground truth.
  runtime::context direct(small_sram());
  const crypto::rlwe_client direct_client(ring, crypto::batch_polymul_on(direct, direct.stream()));
  std::vector<std::vector<std::vector<std::vector<u64>>>> expected(kProducers);
  u64 rlwe_requests = 0;
  for (unsigned p = 0; p < kProducers; ++p) {
    for (const auto& j : plan[p]) {
      if (j.kind <= 1) {
        expected[p].push_back(direct.wait(direct.submit(j.ntt)).outputs);
      } else if (j.kind == 2) {
        expected[p].push_back(direct.wait(direct.submit(j.mul)).outputs);
      } else {
        expected[p].push_back(rlwe_outputs(std::move(direct_client.run({j.rlwe}).front())));
        ++rlwe_requests;
      }
    }
  }

  // R-LWE requests run through the session as their four staged products,
  // synchronously on the producer thread.
  service svc(small_sram());
  std::vector<std::vector<ticket>> tickets(kProducers);
  std::vector<std::vector<std::vector<std::vector<u64>>>> rlwe_got(kProducers);
  std::vector<std::thread> threads;
  for (unsigned p = 0; p < kProducers; ++p) {
    tickets[p].resize(kJobsEach);
    rlwe_got[p].resize(kJobsEach);
    threads.emplace_back([&, p] {
      auto sess = svc.open_session();
      const crypto::rlwe_client client(ring, crypto::batch_polymul_on(sess));
      for (unsigned i = 0; i < kJobsEach; ++i) {
        const auto& j = plan[p][i];
        if (j.kind <= 1) {
          tickets[p][i] = sess.submit(j.ntt);
        } else if (j.kind == 2) {
          tickets[p][i] = sess.submit(j.mul);
        } else {
          rlwe_got[p][i] = rlwe_outputs(std::move(client.run({j.rlwe}).front()));
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  for (unsigned p = 0; p < kProducers; ++p) {
    for (unsigned i = 0; i < kJobsEach; ++i) {
      if (plan[p][i].kind == 3) {
        EXPECT_EQ(rlwe_got[p][i], expected[p][i]) << "producer " << p << " request " << i;
        continue;
      }
      const auto r = tickets[p][i].get();
      ASSERT_EQ(r.status, job_status::ok) << "producer " << p << " job " << i
                                          << ": " << r.error;
      EXPECT_EQ(r.outputs, expected[p][i]) << "producer " << p << " job " << i;
    }
  }
  const u64 jobs = u64{kProducers} * kJobsEach + 3 * rlwe_requests;  // 4 products per request
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, jobs);
  EXPECT_EQ(s.admitted, jobs);
  EXPECT_EQ(s.completed, jobs);
  EXPECT_EQ(s.latency_samples, jobs);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

// ---- admission control -----------------------------------------------------

TEST(Service, InFlightCapRejectsWithTypedError) {
  auto owned = std::make_unique<gated_backend>();
  auto* gate = owned.get();
  service svc(small_sram().with_threads(2), std::move(owned));
  auto sess = svc.open_session({.max_in_flight = 1});
  common::xoshiro256ss rng(53);

  auto t1 = sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  // The drainer dispatches it onto the gated backend; once it counts as in
  // flight the cap is observably taken.
  ASSERT_TRUE(eventually([&] { return sess.stats().in_flight == 1; }));

  try {
    (void)sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
    FAIL() << "submission past the in-flight cap must be rejected";
  } catch (const admission_error& e) {
    EXPECT_EQ(e.reason(), admission_reason::session_in_flight);
    EXPECT_NE(std::string(e.what()).find("in-flight cap"), std::string::npos);
  }
  const auto s = sess.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.rejected_in_flight, 1u);

  gate->release();
  EXPECT_EQ(t1.get().status, job_status::ok);
  // With the slot free the tenant is admitted again.
  ASSERT_TRUE(eventually([&] { return sess.stats().in_flight == 0; }));
  auto t3 = sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  EXPECT_EQ(t3.get().status, job_status::ok);
}

TEST(Service, BacklogCapRejectsWithTypedError) {
  // The backlog cap bounds admitted-but-undrained submissions.  Two
  // back-to-back submits race the drainer's wakeup (hundreds of ns vs
  // microseconds), so with max_queued = 1 the second submit lands in a full
  // backlog in practice on every attempt; the loop makes it airtight.
  service svc(small_sram());
  auto sess = svc.open_session({.max_queued = 1});
  common::xoshiro256ss rng(54);
  const auto poly = random_poly(32, 193, rng);

  bool saw_backlog_rejection = false;
  for (unsigned attempt = 0; attempt < 2000 && !saw_backlog_rejection; ++attempt) {
    svc.drain();
    std::this_thread::sleep_for(std::chrono::microseconds(300));  // let the drainer park
    std::vector<ticket> burst;
    try {
      burst.push_back(sess.submit(ntt_job{.coeffs = poly}));
      burst.push_back(sess.submit(ntt_job{.coeffs = poly}));
    } catch (const admission_error& e) {
      EXPECT_EQ(e.reason(), admission_reason::session_backlog);
      saw_backlog_rejection = true;
    }
    for (auto& t : burst) EXPECT_EQ(t.get().status, job_status::ok);
  }
  EXPECT_TRUE(saw_backlog_rejection);
  EXPECT_GE(sess.stats().rejected_backlog, 1u);
}

TEST(Service, FullSubmissionRingRejectsWithTypedError) {
  // Same wakeup race, aimed at the global ring: with a two-slot ring (the
  // minimum) the third of three back-to-back submissions finds it still
  // occupied.
  service svc(small_sram(), service_options{.queue_capacity = 2});
  auto sess = svc.open_session();
  common::xoshiro256ss rng(55);
  const auto poly = random_poly(32, 193, rng);

  bool saw_queue_full = false;
  for (unsigned attempt = 0; attempt < 2000 && !saw_queue_full; ++attempt) {
    svc.drain();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    std::vector<ticket> burst;
    try {
      burst.push_back(sess.submit(ntt_job{.coeffs = poly}));
      burst.push_back(sess.submit(ntt_job{.coeffs = poly}));
      burst.push_back(sess.submit(ntt_job{.coeffs = poly}));
    } catch (const admission_error& e) {
      EXPECT_EQ(e.reason(), admission_reason::queue_full);
      saw_queue_full = true;
    }
    for (auto& t : burst) EXPECT_EQ(t.get().status, job_status::ok);
  }
  EXPECT_TRUE(saw_queue_full);
  EXPECT_GE(svc.stats().rejected_queue_full, 1u);
}

TEST(Service, ClosedSessionRejectsButOutstandingWorkCompletes) {
  service svc(small_sram());
  auto sess = svc.open_session();
  common::xoshiro256ss rng(56);

  auto t = sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  sess.close();
  try {
    (void)sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
    FAIL() << "closed session must reject";
  } catch (const admission_error& e) {
    EXPECT_EQ(e.reason(), admission_reason::closed);
  }
  EXPECT_EQ(t.get().status, job_status::ok) << "close must not drop admitted work";
  EXPECT_EQ(sess.stats().rejected_closed, 1u);
}

TEST(Service, SessionCapsMustBePositive) {
  service svc(small_sram());
  EXPECT_THROW((void)svc.open_session({.max_queued = 0}), std::invalid_argument);
  EXPECT_THROW((void)svc.open_session({.max_in_flight = 0}), std::invalid_argument);
  EXPECT_THROW(service(small_sram(), service_options{.queue_capacity = 0}),
               std::invalid_argument);
}

// ---- failure delivery ------------------------------------------------------

TEST(Service, InvalidJobComesBackAsFailedResultNotAThrow) {
  // Admission is validate-light; the runtime's deep validation runs on the
  // drainer and its rejection must arrive as a failed result on the ticket
  // (the submitting thread already returned).
  service svc(small_sram());
  auto sess = svc.open_session();
  common::xoshiro256ss rng(57);

  auto bad = sess.submit(ntt_job{.coeffs = std::vector<u64>(5, 1)});  // wrong length
  const auto r = bad.get();
  EXPECT_EQ(r.status, job_status::failed);
  EXPECT_FALSE(r.error.empty());

  // The tenant and the service keep serving afterwards.
  auto good = sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  EXPECT_EQ(good.get().status, job_status::ok);
  const auto s = svc.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.latency_samples, 2u);  // failures are latency samples too
}

// ---- lifecycle -------------------------------------------------------------

TEST(Service, DestructionDrainsEverythingAdmitted) {
  common::xoshiro256ss rng(58);
  std::vector<ticket> tickets;
  {
    service svc(small_sram());
    auto sess = svc.open_session();
    for (unsigned i = 0; i < 16; ++i) {
      tickets.push_back(sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
    }
  }
  // Tickets outlive the service; every admitted job was delivered.
  for (auto& t : tickets) {
    ASSERT_TRUE(t.ready());
    EXPECT_EQ(t.get().status, job_status::ok);
  }
}

TEST(Service, ClosedSessionsCloseTheirStreamsAndSuccessorsOpenOne) {
  service svc(small_sram());
  const auto base = svc.open_streams();
  common::xoshiro256ss rng(59);

  auto a = svc.open_session({.priority = 5});
  EXPECT_EQ(a.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}).get().status,
            job_status::ok);
  EXPECT_EQ(svc.open_streams(), base + 1);  // the tenant's stream is open
  a.close();
  // Retirement closes the drained tenant's stream...
  ASSERT_TRUE(eventually([&] { return svc.open_streams() == base; }));

  // ...and a successor opens exactly one fresh stream.
  auto b = svc.open_session({.priority = 5});
  EXPECT_EQ(b.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}).get().status,
            job_status::ok);
  EXPECT_EQ(svc.open_streams(), base + 1);

  // A concurrent tenant gets its own stream.
  auto c = svc.open_session({.priority = 9});
  EXPECT_EQ(c.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}).get().status,
            job_status::ok);
  EXPECT_EQ(svc.open_streams(), base + 2);
}

TEST(Service, RnsLimbSessionMatchesADirectLimbStream) {
  // A 13-bit envelope ring so a 12-bit RNS limb prime validates.
  const auto wide = runtime::runtime_options()
                        .with_ring(32, 3137, 13)
                        .with_backend(runtime::backend_kind::sram)
                        .with_array(64, 39)
                        .with_subarrays(4);
  const u64 limb_q = math::first_k_ntt_primes(12, 32, 1, true).front();
  common::xoshiro256ss rng(60);
  const auto input = random_poly(32, limb_q, rng);

  runtime::context direct(wide);
  auto limb = direct.rns_stream(limb_q);
  const auto id = limb.submit(ntt_job{.coeffs = input});
  limb.flush();
  const auto expected = direct.wait(id);

  service svc(wide);
  auto sess = svc.open_session({.ring_q = limb_q});
  const auto got = sess.submit(ntt_job{.coeffs = input}).get();
  EXPECT_EQ(got.status, job_status::ok);
  EXPECT_EQ(got.outputs, expected.outputs);
}

TEST(Service, RnsRlweJobsRoundTripThroughALimbSession) {
  // The leveled RNS-RLWE tenant's traffic shapes — a congruence-preserving
  // rescale correction and a base-extension lift — must flow through a
  // ring_q session's ticket path bit-identically to a direct limb stream.
  const auto wide = runtime::runtime_options()
                        .with_ring(32, 3137, 13)
                        .with_backend(runtime::backend_kind::sram)
                        .with_array(64, 39)
                        .with_subarrays(4);
  const auto limbs = math::first_k_ntt_primes(12, 32, 2, true);
  const u64 limb_q = limbs[0];
  const u64 partner_q = limbs[1];
  common::xoshiro256ss rng(62);
  const auto x = random_poly(32, limb_q, rng);
  const auto dropped = random_poly(32, partner_q, rng);
  const auto source = random_poly(32, partner_q, rng);

  runtime::context direct(wide);
  auto limb = direct.rns_stream(limb_q);
  const auto rescale_id = limb.submit(runtime::rns_rescale_job{
      .prime = limb_q, .drop_prime = partner_q, .x = x, .dropped = dropped,
      .congruence = 2});
  const auto bext_id = limb.submit(runtime::rns_base_extend_job{
      .prime = limb_q, .source_primes = {partner_q}, .residues = {source}});
  limb.flush();
  const auto rescale_expected = direct.wait(rescale_id);
  const auto bext_expected = direct.wait(bext_id);

  service svc(wide);
  auto sess = svc.open_session({.ring_q = limb_q});
  const auto rescale_got = sess.submit(runtime::rns_rescale_job{
      .prime = limb_q, .drop_prime = partner_q, .x = x, .dropped = dropped,
      .congruence = 2}).get();
  const auto bext_got = sess.submit(runtime::rns_base_extend_job{
      .prime = limb_q, .source_primes = {partner_q}, .residues = {source}}).get();
  EXPECT_EQ(rescale_got.status, job_status::ok);
  EXPECT_EQ(rescale_got.outputs, rescale_expected.outputs);
  EXPECT_EQ(bext_got.status, job_status::ok);
  EXPECT_EQ(bext_got.outputs, bext_expected.outputs);
}

// ---- deadlines and stats ---------------------------------------------------

TEST(Service, ExportTraceRefusesUntilDrained) {
  auto owned = std::make_unique<gated_backend>();
  auto* gate = owned.get();
  service svc(small_sram().with_threads(2).with_tracing(), std::move(owned));
  auto sess = svc.open_session();
  common::xoshiro256ss rng(58);
  auto t = sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
  const std::string path = testing::TempDir() + "bpntt_service_trace.json";
  EXPECT_THROW(svc.export_trace(path), std::logic_error) << "an admitted job is outstanding";
  gate->release();
  svc.drain();
  EXPECT_NO_THROW(svc.export_trace(path));
  EXPECT_EQ(t.get().status, job_status::ok);
}

TEST(Service, ExportTraceRightAfterDrainNeverRefuses) {
  // drain() returns once every result is harvested, which can be before the
  // worker that ran the group releases its bank claim; export_trace waits
  // that release out instead of calling the service busy.
  service svc(small_sram().with_threads(4).with_tracing());
  auto a = svc.open_session();
  auto b = svc.open_session();
  common::xoshiro256ss rng(59);
  const std::string path = testing::TempDir() + "bpntt_service_trace_loop.json";
  for (int round = 0; round < 200; ++round) {
    auto ta = a.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
    auto tb = b.submit(ntt_job{.coeffs = random_poly(32, 193, rng)});
    svc.drain();
    ASSERT_NO_THROW(svc.export_trace(path)) << "round " << round;
    EXPECT_EQ(ta.get().status, job_status::ok);
    EXPECT_EQ(tb.get().status, job_status::ok);
  }
}

TEST(Service, DeadlineMissesLandInServiceStats) {
  service svc(small_sram());
  auto strict = svc.open_session({.deadline_cycles = 1});  // unmeetable
  auto relaxed = svc.open_session();
  common::xoshiro256ss rng(61);

  const auto r1 = strict.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}).get();
  const auto r2 = relaxed.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}).get();
  EXPECT_EQ(r1.status, job_status::ok);  // misses are accounted, not preempted
  EXPECT_TRUE(r1.deadline_missed);
  EXPECT_FALSE(r2.deadline_missed);

  EXPECT_EQ(strict.stats().deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(strict.stats().deadline_miss_rate(), 1.0);
  EXPECT_EQ(relaxed.stats().deadline_misses, 0u);
  const auto s = svc.stats();
  EXPECT_EQ(s.deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(s.deadline_miss_rate(), 0.5);
}

TEST(Service, GlobalStatsAggregateAcrossSessions) {
  service svc(small_sram());
  auto a = svc.open_session();
  auto b = svc.open_session();
  common::xoshiro256ss rng(62);

  std::vector<ticket> ts;
  for (unsigned i = 0; i < 5; ++i) {
    ts.push_back(a.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
    ts.push_back(b.submit(polymul_job{.a = random_poly(32, 193, rng),
                                      .b = random_poly(32, 193, rng)}));
  }
  for (auto& t : ts) EXPECT_EQ(t.get().status, job_status::ok);

  EXPECT_EQ(a.stats().completed, 5u);
  EXPECT_EQ(b.stats().completed, 5u);
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 10u);
  EXPECT_EQ(s.completed, 10u);
  EXPECT_EQ(s.latency_samples, 10u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  // The wrapped context's counters are visible through the same surface.
  EXPECT_EQ(svc.runtime_stats().jobs_completed, 10u);
}

TEST(Service, StatsAreSafeFromAnyThread) {
  // The monitoring contract (and this suite's TSan teeth): an observer
  // thread hammers every stats surface while producers submit and the
  // drainer dispatches, completes and retires streams.
  service svc(small_sram());
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto s = svc.stats();
      EXPECT_LE(s.admitted, s.submitted);
      (void)svc.runtime_stats();
      (void)svc.open_streams();
    }
  });

  constexpr unsigned kProducers = 3;
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      common::xoshiro256ss rng(70 + p);
      auto sess = svc.open_session({.priority = static_cast<int>(p)});
      std::vector<ticket> ts;
      for (unsigned i = 0; i < 50; ++i) {
        ts.push_back(sess.submit(ntt_job{.coeffs = random_poly(32, 193, rng)}));
        (void)sess.stats();
      }
      for (auto& t : ts) EXPECT_EQ(t.get().status, job_status::ok);
      sess.close();
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  observer.join();

  const auto s = svc.stats();
  EXPECT_EQ(s.completed, u64{kProducers} * 50);
  EXPECT_EQ(s.latency_samples, u64{kProducers} * 50);
}

}  // namespace
}  // namespace bpntt::service

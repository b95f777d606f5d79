// Multi-tenant service-layer soak: N client threads hammer one service
// through session handles for a fixed wall budget, with mixed traffic —
// forward/inverse transforms, negacyclic products, R-LWE encryptions (whose
// staged ring products ride a session as polymul jobs) and an RNS-RLWE
// limb tenant emitting relinearization-shaped traffic (evk
// products, base-extension lifts, congruence-preserving rescale
// corrections) — under the EDF ready-queue policy.
//
// The soak is a correctness stress, not a benchmark (perfbench's
// service_mix workload times these same tenant classes): every client
// counts what it was admitted and what its tickets returned, and the run
// fails (exit 1) if a single result was lost or double-delivered, or if
// the service's own counters disagree with the clients' books.
//
// Usage: bench_soak [--threads <N>] [--millis <M>]
//   --threads  client threads (default 4, min 4 — the soak is only a soak
//              with real submission concurrency)
//   --millis   wall budget (default 1000)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/xoshiro.h"
#include "crypto/rlwe.h"
#include "nttmath/primes.h"
#include "runtime/context.h"
#include "service/service.h"

namespace {

using namespace bpntt;
using runtime::u64;

// The soak ring: 13-bit envelope so the RNS-RLWE tenant's 12-bit limb
// primes validate alongside the native 3137 ring.
constexpr unsigned kOrder = 32;
constexpr u64 kRingQ = 3137;
constexpr unsigned kRingBits = 13;

std::vector<u64> random_poly(u64 q, common::xoshiro256ss& rng) {
  std::vector<u64> p(kOrder);
  for (auto& c : p) c = rng.below(q);
  return p;
}

// One tenant archetype; threads map onto these round-robin.
struct tenant_class {
  const char* name;
  service::session_options opts;
};

// Per-client books: the ground truth the service's counters must match.
struct client_book {
  u64 admitted = 0;  // submit() returned a ticket
  u64 rejected = 0;  // submit() threw admission_error
  u64 received = 0;  // ticket.get() returned
  u64 ok = 0;
  u64 failed = 0;
};

struct soak_result {
  client_book totals;
  service::service_stats stats;
  u64 lost = 0;
  u64 duplicated = 0;
};

soak_result run_soak(unsigned threads, unsigned millis) {
  // Two 12-bit NTT primes for the RNS-RLWE tenant: its session rides the
  // first limb's ring, the second plays the dropped / source limb of the
  // rescale and base-extension jobs.
  const auto limbs = math::first_k_ntt_primes(12, kOrder, 2, true);
  const u64 limb = limbs[0];
  const u64 partner = limbs[1];
  const tenant_class classes[] = {
      {"latency", {.priority = 8, .deadline_cycles = 20'000, .max_queued = 64,
                   .max_in_flight = 64}},
      {"bulk", {.priority = 0, .chunk_budget = 32, .max_queued = 512,
                .max_in_flight = 512}},
      {"rns-rlwe", {.priority = 4, .ring_q = limb}},
      {"crypto", {.priority = 2}},
  };
  constexpr unsigned kClasses = sizeof(classes) / sizeof(classes[0]);

  auto ropts = runtime::runtime_options()
                   .with_ring(kOrder, kRingQ, kRingBits)
                   .with_backend(runtime::backend_kind::sram)
                   .with_array(64, 39)
                   .with_subarrays(4)
                   .with_topology(2, 1, 4)
                   .with_threads(2)
                   .with_schedule(runtime::schedule_policy::edf, /*aging=*/8)
                   .with_cross_stream_batching();
  const crypto::param_set ring = crypto::runtime_ring(ropts);
  service::service svc(std::move(ropts));

  std::vector<service::session> sessions;
  sessions.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    sessions.push_back(svc.open_session(classes[t % kClasses].opts));
  }

  std::vector<client_book> books(threads);
  const auto stop_at = std::chrono::steady_clock::now() + std::chrono::milliseconds(millis);

  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto sess = sessions[t];
      auto& book = books[t];
      const unsigned cls = t % kClasses;
      const u64 q = cls == 2 ? limb : kRingQ;
      common::xoshiro256ss rng(1000 + t);
      // The crypto tenant's R-LWE client: each stage's products go through
      // this session as polymul jobs, one admitted job on the books each.
      // A rejected product is retried after a back-off — dropping it would
      // break the request it belongs to.
      const crypto::rlwe_client client(ring, [&](std::vector<std::pair<crypto::poly,
                                                                      crypto::poly>> pairs) {
        std::vector<service::ticket> tickets;
        for (auto& [a, b] : pairs) {
          for (;;) {
            try {
              tickets.push_back(sess.submit(runtime::polymul_job{a, b}));
              ++book.admitted;
              break;
            } catch (const service::admission_error&) {
              ++book.rejected;
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
          }
        }
        std::vector<crypto::poly> products;
        for (auto& tk : tickets) {
          auto r = tk.get();
          ++book.received;
          const bool ok = r.status == runtime::job_status::ok;
          ++(ok ? book.ok : book.failed);
          products.push_back(ok ? std::move(r.outputs.front()) : crypto::poly(kOrder, 0));
        }
        return products;
      });
      while (std::chrono::steady_clock::now() < stop_at) {
        if (cls == 3) {  // crypto: eight end-to-end R-LWE encryptions
          std::vector<crypto::rlwe_request> requests(8);
          for (auto& req : requests) {
            req.message.resize(kOrder);
            for (auto& m : req.message) m = rng() & 1;
            req.seed = rng();
          }
          (void)client.run(requests);
          continue;
        }
        // A batch of submissions, then reap: keeps a backlog in front of
        // the drainer without letting tickets pile up unboundedly.
        std::vector<service::ticket> batch;
        for (unsigned i = 0; i < 8; ++i) {
          try {
            switch (cls) {
              case 1:  // bulk: ring products
                batch.push_back(sess.submit(runtime::polymul_job{
                    .a = random_poly(q, rng), .b = random_poly(q, rng)}));
                break;
              case 2:  // rns-rlwe: what a leveled client's relinearization
                       // emits on its limb stream — the evk product, the
                       // base-extension lift, the modulus-switch correction
                switch (i % 3) {
                  case 0:
                    batch.push_back(sess.submit(runtime::polymul_job{
                        .a = random_poly(q, rng), .b = random_poly(q, rng)}));
                    break;
                  case 1:
                    batch.push_back(sess.submit(runtime::rns_base_extend_job{
                        .prime = limb,
                        .source_primes = {partner},
                        .residues = {random_poly(partner, rng)}}));
                    break;
                  default:
                    batch.push_back(sess.submit(runtime::rns_rescale_job{
                        .prime = limb,
                        .drop_prime = partner,
                        .x = random_poly(limb, rng),
                        .dropped = random_poly(partner, rng),
                        .congruence = 2}));
                }
                break;
              default:  // latency: transforms both ways
                batch.push_back(sess.submit(runtime::ntt_job{
                    .dir = (rng() & 1) ? core::transform_dir::forward
                                       : core::transform_dir::inverse,
                    .coeffs = random_poly(q, rng)}));
            }
            ++book.admitted;
          } catch (const service::admission_error&) {
            // Backpressure is the contract, not an error: note it, ease off.
            ++book.rejected;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
        for (auto& tk : batch) {
          const auto r = tk.get();
          ++book.received;
          if (r.status == runtime::job_status::ok) {
            ++book.ok;
          } else {
            ++book.failed;
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (auto& s : sessions) s.close();
  svc.drain();

  soak_result out;
  for (const auto& b : books) {
    out.totals.admitted += b.admitted;
    out.totals.rejected += b.rejected;
    out.totals.received += b.received;
    out.totals.ok += b.ok;
    out.totals.failed += b.failed;
  }
  out.stats = svc.stats();
  // The gate: every admitted job produced exactly one delivered result,
  // on both sides of the ledger.
  const u64 delivered = out.stats.completed + out.stats.failed;
  out.lost = out.totals.admitted > out.totals.received
                 ? out.totals.admitted - out.totals.received
                 : (out.totals.admitted > delivered ? out.totals.admitted - delivered : 0);
  out.duplicated = out.totals.received > out.totals.admitted
                       ? out.totals.received - out.totals.admitted
                       : (delivered > out.totals.admitted ? delivered - out.totals.admitted : 0);
  if (out.stats.admitted != out.totals.admitted) {
    // A books/counters disagreement is a lost-or-duplicated accounting bug
    // even when the two deltas above happen to cancel.
    out.lost += 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 4;
  unsigned millis = 1000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (threads < 4 || threads > 64) {
        std::fprintf(stderr, "soak: --threads must be in [4, 64]\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--millis") == 0 && i + 1 < argc) {
      millis = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (millis < 100 || millis > 60'000) {
        std::fprintf(stderr, "soak: --millis must be in [100, 60000]\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--threads <N>] [--millis <M>]\n", argv[0]);
      return 2;
    }
  }

  const auto soak = run_soak(threads, millis);
  std::printf("soak ledger (%u client threads, %u ms, edf): clients %llu admitted, "
              "%llu rejected, %llu received; service %llu admitted, %llu completed, "
              "%llu failed; lost %llu, duplicated %llu\n",
              threads, millis, static_cast<unsigned long long>(soak.totals.admitted),
              static_cast<unsigned long long>(soak.totals.rejected),
              static_cast<unsigned long long>(soak.totals.received),
              static_cast<unsigned long long>(soak.stats.admitted),
              static_cast<unsigned long long>(soak.stats.completed),
              static_cast<unsigned long long>(soak.stats.failed),
              static_cast<unsigned long long>(soak.lost),
              static_cast<unsigned long long>(soak.duplicated));

  // The gate that makes the soak a test: a lost or double-delivered result,
  // or books and counters that disagree, is a service-layer bug.
  if (soak.lost != 0 || soak.duplicated != 0) {
    std::fprintf(stderr, "soak: FAILED — results lost (%llu) or duplicated (%llu)\n",
                 static_cast<unsigned long long>(soak.lost),
                 static_cast<unsigned long long>(soak.duplicated));
    return 1;
  }
  return 0;
}

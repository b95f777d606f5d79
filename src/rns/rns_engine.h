// Big-modulus polynomial arithmetic on top of bpntt::runtime: one NTT
// workload per RNS limb, fanned out across the chip.
//
// The engine owns the mapping from "one ring product mod M" to "k
// independent word-sized ring products mod q_i" and back:
//
//   rns_engine eng(ctx, rns_basis::with_limb_bits(n, 14, 4));
//   auto c = eng.polymul(a, b);   // a, b, c: canonical mod M, wide_uint
//
// Each limb rides the context's dedicated limb stream for its prime
// (context::rns_stream), so placement is the stream scheduler's
// topology-aware policy: on a multi-channel device every limb gets its own
// channel and the limb dispatch groups genuinely overlap (combined
// makespan below the serial per-limb sum); on a flat device the limb
// groups fall back to back-to-back batched dispatch on the shared banks.
// Either way outputs are bit-identical — the schedule only moves cycles.
//
// Forward/inverse transforms of residue-form polynomials fan out the same
// way, so a caller staying in the residue domain (FHE-style pipelines: one
// decompose, many products, one lift) pays the CRT exactly twice.
#pragma once

#include <optional>
#include <vector>

#include "rns/rns_basis.h"
#include "rns/rns_poly.h"
#include "runtime/context.h"

namespace bpntt::rns {

// Aggregate view of one limb fan-out, for benches and overlap tests:
// serial_cycles is what the limbs would cost back-to-back, the context's
// scheduler_stats::wall_cycles delta tells what they cost overlapped.
struct fanout_stats {
  u64 serial_cycles = 0;  // sum of per-limb dispatch wall-clocks
  u64 limb_jobs = 0;      // runtime jobs the fan-out produced
};

// The one limb fan-out every RNS caller shares: submit jobs[i] on the
// dedicated stream of primes[i] (primes may repeat), flush each touched
// stream once, in first-use order, after every submission (so the limb
// groups enter the scheduler together and can overlap), then wait on the
// ids in order and return their outputs.  Every stream opens before
// anything is enqueued, so an inadmissible prime rejects the whole fan-out
// instead of orphaning earlier limbs.  `stats`, when given, receives the
// fan-out's aggregate.
[[nodiscard]] std::vector<std::vector<u64>> fan_out(runtime::context& ctx,
                                                    const std::vector<u64>& primes,
                                                    std::vector<runtime::job> jobs,
                                                    fanout_stats* stats = nullptr);

class rns_engine {
 public:
  // The basis' order must match the context ring's n, and every limb prime
  // must be admissible as a ring override (context::stream validates each
  // on first use; the constructor validates eagerly so a bad pairing fails
  // here, not at the first product).
  rns_engine(runtime::context& ctx, rns_basis basis);

  [[nodiscard]] const rns_basis& basis() const noexcept { return basis_; }
  // Stats of the most recent fan-out (polymul/forward/inverse call).
  [[nodiscard]] const fanout_stats& last_fanout() const noexcept { return last_; }

  // c = a * b mod (x^n + 1, M).  Coefficients canonical mod M at
  // basis().wide_bits() width; decomposes, fans out one word-sized product
  // per limb, recombines exactly via CRT.
  [[nodiscard]] std::vector<math::wide_uint> polymul(
      const std::vector<math::wide_uint>& a, const std::vector<math::wide_uint>& b);

  // Residue-domain product: same fan-out, no CRT at either end.
  [[nodiscard]] rns_poly polymul(const rns_poly& a, const rns_poly& b);

  // Modulus switching: round(x / q_last) in the dropped basis
  // (basis().drop_last()), computed limb-by-limb as one rns_rescale_job
  // per kept limb on that limb's dedicated stream — the exact
  // divide-and-round the leveled-HE rescale after every multiply needs.
  // The result carries limbs() - 1 residue polynomials and is canonical in
  // the smaller basis; it is bit-identical to lifting x, dividing by the
  // dropped prime with wide_uint::divround, and re-decomposing.  Throws
  // std::invalid_argument on a one-limb basis or a limb-count mismatch.
  //
  // With congruence = t >= 2 (the BGV-style plaintext-preserving switch),
  // the correction divided out is chosen congruent to 0 mod t, so the
  // output satisfies out == x * q_drop^{-1} (mod t) — what a leveled
  // scheme's modulus switch needs to keep the message residue intact.  t
  // must be coprime to the dropped prime.  0 (the default) and 1 are the
  // plain round-to-nearest.
  [[nodiscard]] rns_poly rescale(const rns_poly& p, u64 congruence = 0);

  // RNS base extension — the dual of rescale: lift p's residues from this
  // basis Q to the larger basis `target` (Q must be a strict prefix of
  // target), producing the residues of the exact canonical lift [x]_M mod
  // each new limb as one rns_base_extend_job per new limb on that limb's
  // dedicated stream.  The multiply-accumulate headroom primitive key
  // switching builds on.  Source residues are copied through unchanged;
  // the result carries target.limbs() residue polynomials in target's limb
  // order.  Throws std::invalid_argument when target diverges from this
  // chain (naming the first mismatching prime) or does not grow it.
  [[nodiscard]] rns_poly base_extend(const rns_poly& p, const rns_basis& target);

  // The fused leveled-multiply step: c = rescale(a * b) as one submission
  // — the limb products fan out and overlap, their outputs feed the
  // rescale fan-out, and the result lives one level down.  Residue form in
  // this basis in, residue form in basis().drop_last() out.
  [[nodiscard]] rns_poly modswitch_polymul(const rns_poly& a, const rns_poly& b);
  // Wide-coefficient convenience: canonical mod M in, canonical mod
  // M/q_last out (at drop_last().wide_bits() width).
  [[nodiscard]] std::vector<math::wide_uint> modswitch_polymul(
      const std::vector<math::wide_uint>& a, const std::vector<math::wide_uint>& b);

  // The basis one rescale lands in, built on first use and cached.
  [[nodiscard]] const rns_basis& dropped_basis();

  // Per-limb forward/inverse NTT of a residue-form polynomial (forward:
  // standard order in, bit-reversed out; inverse the converse — the golden
  // transform's ordering contract, per limb).
  [[nodiscard]] rns_poly forward(const rns_poly& p);
  [[nodiscard]] rns_poly inverse(const rns_poly& p);

  // The CRT ends, exposed for callers staying in residue form.
  [[nodiscard]] rns_poly lower(const std::vector<math::wide_uint>& coeffs) const;
  [[nodiscard]] std::vector<math::wide_uint> lift(const rns_poly& p) const;

 private:
  // One per-limb ntt_job fan-out in the given direction.
  [[nodiscard]] rns_poly transform(const rns_poly& p, core::transform_dir dir,
                                   const char* what);
  // Every limb of `p` before any is enqueued: the basis' limb count, order
  // n, and residues canonical mod their limb prime.
  void require_limbs(const rns_poly& p, const char* what) const;

  runtime::context& ctx_;
  rns_basis basis_;
  fanout_stats last_;
  // Lazily-built rescale target (basis_ minus its last limb).
  std::optional<rns_basis> dropped_;
};

}  // namespace bpntt::rns

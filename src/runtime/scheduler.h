// bpntt::runtime::scheduler — group ordering, bank claiming, cross-stream
// merging, and chunked dispatch, extracted from the context into a
// first-class module.
//
// The scheduler is the policy half of the runtime's execution engine: the
// context builds dispatch groups (one per stream flush) and executes
// backend dispatches; the scheduler decides *which group runs next on which
// banks*.  The split is deliberate — every scheduling capability (EDF,
// aging, cross-stream batching, preemptive yielding) lives behind this one
// seam, and the context is reduced to job bookkeeping and result
// distribution.
//
// Ownership and interface:
//
//   scheduler sched(policy_config{...}, /*resources=*/banks, registry, recorder);
//   sched.enqueue(group);                 // seq, frontier ref, deadline clamp
//   for (auto& g : sched.take_runnable()) // claim banks; merge compatible
//     pool.enqueue([g] { run(g); });      //   ready groups into g->absorbed
//   ...
//   u64 end = sched.account(*g, wall);    // advance the bank frontiers
//   if (sched.should_yield(*g))           // a finite-deadline group arrived
//     sched.requeue_preempted(g);         //   give the banks up mid-group
//   sched.release(*g);                    // free the claim, schedule again
//
// Ready-queue ordering is one comparator (group_before) for every policy:
// aged groups first (among themselves, flush order), then EDF's absolute
// deadline when configured, then priority descending, then flush order.
//
// Cross-stream batching: when take_runnable() picks a runnable group and
// merging is enabled, it scans the remaining ready queue for *merge-
// compatible* groups — same ring modulus (native or the same RNS limb
// prime) and a bank set that is disjoint-or-shareable (every bank either
// already in the host's claim or currently unclaimed).  Compatible groups
// are absorbed into the host's `absorbed` list and the host claims the union:
// one backend dispatch per job kind executes every member's jobs, and the
// context distributes each member's slice of the outputs back to its
// original stream with that member's own deadline accounting.  Outputs are
// bit-identical to unmerged execution — batching moves work, never results.
//
// Preemptive yielding: a group whose stream set a chunk_budget dispatches
// in chunks of at most that many jobs.  Between chunks the context asks
// should_yield(): true when a ready group that orders *before* the running
// group (under the configured policy) wants any of its banks — the running
// group's remainder is re-enqueued with its original seq/frontier/deadline
// (requeue_preempted), the banks are released, and the urgent group claims
// them.  A bulk group therefore cannot hold the chip against an arriving
// finite-deadline tenant.
//
// Threading: the scheduler is NOT internally synchronized.  It is owned by
// a context and every call is made under the context's scheduler mutex —
// the same contract the extracted code had when it was private machinery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/backend.h"
#include "runtime/job.h"
#include "runtime/options.h"
#include "telemetry/metrics.h"

namespace bpntt::telemetry {
class trace_recorder;
}

namespace bpntt::runtime {

// The job kinds of a flush plan, in dispatch order: a group runs all of
// its forward transforms before any inverse one, and so on down the list.
enum class batch_kind : std::uint8_t { forward, inverse, polymul, rescale, base_extend };
inline constexpr std::size_t kBatchKinds = 5;

// One kind's share of a stream flush: the job ids and the jobs, index-
// aligned.  Jobs of one stream are independent, so each kind becomes one
// backend dispatch (or one per chunk) — the widest batches the backend can
// shard over banks, lanes and waves.  Results are keyed by job_id, so
// regrouping never misroutes an output.
struct typed_batch {
  batch_kind kind = batch_kind::forward;
  std::vector<job_id> ids;
  std::vector<job> jobs;
};

// One stream flush: its non-empty typed batches in batch_kind order.
using flush_plan = std::vector<typed_batch>;

// The scheduling unit: a flushed stream queue waiting for (or holding) its
// bank reservation.  Public since the scheduler extraction — tests and
// tooling can build and order groups directly.
struct dispatch_group {
  u64 seq = 0;                      // flush order; priority tiebreak
  dispatch_hints hints;             // stream id, priority, deadline, bank subset
  std::vector<unsigned> resources;  // scheduler resource ids (= bank ids, or {0})
  u64 ref_vtime = 0;                // bank frontier at flush; deadline reference
  // Absolute virtual-timeline deadline (ref_vtime + deadline_cycles).
  // no_deadline sorts after every finite deadline under edf.
  static constexpr u64 no_deadline = ~0ULL;
  u64 deadline_abs = no_deadline;
  unsigned waits = 0;    // scheduling rounds this group was passed over
  bool aged = false;     // waits hit aging_limit: promoted ahead of non-aged
  // Preemptive-yield budget (stream_options::chunk_budget): a solo group
  // hands its jobs to the backend at most this many at a time and may yield
  // between chunks; 0 = whole per-kind dispatches.  Merged groups run whole.
  u64 chunk_budget = 0;
  // Residency affinity hint: banks currently holding this group's limb
  // operands (residency_manager::banks_holding at build time).  Purely
  // advisory — claiming is unchanged; the scheduler counts a
  // residency_affinity_hit when a claim lands on a hinted bank, the
  // telemetry the operand-placement story is judged by.
  std::vector<unsigned> affinity_banks;
  flush_plan plan;
  // Cross-stream batching: ready groups absorbed into this group's
  // dispatch.  Empty for a plain single-stream group.  The host's
  // `resources` is the claimed union; members keep their own hints and
  // ref_vtime for per-tenant result distribution and deadline accounting.
  std::vector<std::shared_ptr<dispatch_group>> absorbed;
};

// The one absolute-deadline clamp every enqueue path shares: a stream's
// completion budget measured from its flush frontier, saturated so an
// astronomic budget stays a *finite* deadline (only deadline_cycles == 0
// means "none", which sorts after every finite deadline under EDF).
[[nodiscard]] constexpr u64 absolute_deadline(u64 ref_vtime, u64 deadline_cycles) noexcept {
  if (deadline_cycles == 0) return dispatch_group::no_deadline;
  const u64 abs = ref_vtime + deadline_cycles;
  if (abs < ref_vtime) return dispatch_group::no_deadline - 1;  // overflow: saturate finite
  return abs < dispatch_group::no_deadline - 1 ? abs : dispatch_group::no_deadline - 1;
}

class scheduler {
 public:
  struct policy_config {
    schedule_policy sched = schedule_policy::priority;
    // Starvation bound: a ready group passed over this many scheduling
    // rounds is promoted ahead of all non-aged groups.  0 disables aging.
    unsigned aging_limit = 0;
    // Cross-stream batching master switch (runtime_options::merge_streams).
    bool merge_streams = false;
  };

  // Registers the three sched.* counters in `registry`; a non-null
  // `recorder` receives the merge-absorption, preemption-yield and
  // affinity-hit edges as trace events.
  scheduler(policy_config cfg, unsigned resources, telemetry::metrics_registry& registry,
            telemetry::trace_recorder* recorder);

  // Admit a freshly built group: assigns the flush sequence number, reads
  // the group's bank-frontier reference time, clamps the absolute deadline
  // (absolute_deadline), and inserts in ready order.
  void enqueue(std::shared_ptr<dispatch_group> g);

  // Re-admit a preempted group's remainder.  Keeps seq, ref_vtime and
  // deadline_abs — the group resumes exactly where its policy position was,
  // it does not jump the queue by re-flushing.  Counts a preemption yield.
  void requeue_preempted(std::shared_ptr<dispatch_group> g);

  // The scheduling pass: claim banks for (and return) every ready group
  // whose banks are free and not claimed by a blocked earlier-ordered
  // group; when merging is enabled, absorb merge-compatible ready groups
  // into the picked group before returning it.  Also runs priority aging
  // over the groups left behind.  The caller dispatches the returned
  // groups and must eventually release() each one.
  [[nodiscard]] std::vector<std::shared_ptr<dispatch_group>> take_runnable();

  // Free a dispatched group's bank claim (the claimed union for a merge
  // host).  The caller runs take_runnable() again afterwards.
  void release(const dispatch_group& g);

  // True when no bank is claimed.  A group's jobs can all be done before
  // its claim is released, so the context's sync() waits for this as well:
  // the next flush never schedules against banks a finished group holds.
  [[nodiscard]] bool idle() const;

  // True when a ready group that orders before `g` under the configured
  // policy is waiting for any of g's banks — the chunked-dispatch yield
  // test.  Const: yielding is the caller's decision.
  [[nodiscard]] bool should_yield(const dispatch_group& g) const;

  // Advance the group's bank frontiers by one batch; returns the batch's
  // completion time on the virtual timeline.
  u64 account(const dispatch_group& g, u64 wall_cycles);

  // The ready-queue ordering relation of the configured policy ("a
  // dispatches before b"): aged groups first (among themselves, flush
  // order), then edf/priority as configured.
  [[nodiscard]] bool group_before(const dispatch_group& a, const dispatch_group& b) const;

  [[nodiscard]] std::size_t ready_groups() const noexcept { return ready_.size(); }

  // Groups absorbed into another group's dispatch, chunked groups that gave
  // their banks up mid-plan, and claims landing on a bank already holding
  // the group's limb operands.
  [[nodiscard]] u64 groups_merged() const noexcept { return merged_.value(); }
  [[nodiscard]] u64 preemption_yields() const noexcept { return yields_.value(); }
  [[nodiscard]] u64 residency_affinity_hits() const noexcept { return affinity_.value(); }

 private:
  // Merge scan for one freshly claimed host: absorb every compatible ready
  // group whose banks are shareable with the claim state.
  void absorb_compatible(const std::shared_ptr<dispatch_group>& host, std::vector<char>& claimed);
  // Insert into the ready queue after every group that orders before it.
  void insert_ready(std::shared_ptr<dispatch_group> g);
  void age_passed_over();

  policy_config cfg_;
  std::vector<std::shared_ptr<dispatch_group>> ready_;  // group_before order
  std::vector<char> bank_busy_;
  std::vector<u64> bank_free_at_;
  u64 next_group_seq_ = 0;
  // Note a freshly claimed group whose claim intersects its residency
  // affinity hint (counter + affinity_hit trace instant).
  void note_affinity(const dispatch_group& g);

  telemetry::counter& merged_;
  telemetry::counter& yields_;
  telemetry::counter& affinity_;
  telemetry::trace_recorder* const recorder_;
};

}  // namespace bpntt::runtime

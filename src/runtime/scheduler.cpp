#include "runtime/scheduler.h"

#include <algorithm>

#include "telemetry/trace.h"

namespace bpntt::runtime {

scheduler::scheduler(policy_config cfg, unsigned resources,
                     telemetry::metrics_registry& registry, telemetry::trace_recorder* recorder)
    : cfg_(cfg),
      merged_(registry.make_counter("sched.groups_merged")),
      yields_(registry.make_counter("sched.preemption_yields")),
      affinity_(registry.make_counter("sched.residency_affinity_hits")),
      recorder_(recorder) {
  bank_busy_.assign(std::max(1u, resources), 0);
  bank_free_at_.assign(std::max(1u, resources), 0);
}

bool scheduler::group_before(const dispatch_group& a, const dispatch_group& b) const {
  // Aged groups jump every non-aged group and order among themselves in
  // flush order — the starvation escape hatch of both policies.
  if (a.aged != b.aged) return a.aged;
  if (a.aged) return a.seq < b.seq;
  if (cfg_.sched == schedule_policy::edf && a.deadline_abs != b.deadline_abs) {
    return a.deadline_abs < b.deadline_abs;  // no_deadline sorts after all finite
  }
  if (a.hints.priority != b.hints.priority) return a.hints.priority > b.hints.priority;
  return a.seq < b.seq;
}

void scheduler::enqueue(std::shared_ptr<dispatch_group> g) {
  g->seq = next_group_seq_++;
  for (const unsigned r : g->resources) {
    g->ref_vtime = std::max(g->ref_vtime, bank_free_at_[r]);
  }
  g->deadline_abs = absolute_deadline(g->ref_vtime, g->hints.deadline_cycles);
  insert_ready(std::move(g));
}

void scheduler::insert_ready(std::shared_ptr<dispatch_group> g) {
  const auto before = [this](const std::shared_ptr<dispatch_group>& a,
                             const std::shared_ptr<dispatch_group>& b) {
    return group_before(*a, *b);
  };
  ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), g, before), std::move(g));
}

void scheduler::requeue_preempted(std::shared_ptr<dispatch_group> g) {
  // The remainder keeps its identity: same seq (flush-order ties resume
  // where they were), same ref_vtime and deadline_abs (the deadline is a
  // property of the flush, not of the resume).  Banks are released by the
  // caller via release() — the urgent group claims them on the next pass.
  yields_.add();
  if (recorder_ != nullptr) {
    recorder_->record({.ts = g->ref_vtime,
                       .dur = 0,
                       .a = g->resources.size(),
                       .track = telemetry::kTrackScheduler,
                       .arg = static_cast<telemetry::u32>(g->seq),
                       .op = telemetry::trace_op::preempt_yield});
  }
  insert_ready(std::move(g));
}

void scheduler::absorb_compatible(const std::shared_ptr<dispatch_group>& host,
                                  std::vector<char>& claimed) {
  if (!cfg_.merge_streams) return;
  for (auto it = ready_.begin(); it != ready_.end();) {
    auto& h = *it;
    // Merge eligibility: same ring modulus (native or the same RNS limb
    // prime), and every bank of the candidate either already in the host's
    // claim or currently unclaimed — disjoint-or-shareable.
    bool compatible = h->hints.ring_q == host->hints.ring_q;
    if (compatible) {
      for (const unsigned r : h->resources) {
        const bool in_host = std::find(host->resources.begin(), host->resources.end(), r) !=
                             host->resources.end();
        compatible = compatible && (in_host || !claimed[r]);
      }
    }
    if (!compatible) {
      ++it;
      continue;
    }
    // Claim the union: the merged dispatch runs over every member's banks.
    for (const unsigned r : h->resources) {
      if (std::find(host->resources.begin(), host->resources.end(), r) ==
          host->resources.end()) {
        host->resources.push_back(r);
      }
      bank_busy_[r] = claimed[r] = 1;
    }
    merged_.add();
    if (recorder_ != nullptr) {
      // arg = the absorbed group's seq, a = the host's — the edge Perfetto
      // shows as "who got pulled into whose dispatch".
      recorder_->record({.ts = host->ref_vtime,
                         .dur = 0,
                         .a = host->seq,
                         .track = telemetry::kTrackScheduler,
                         .arg = static_cast<telemetry::u32>(h->seq),
                         .op = telemetry::trace_op::merge_absorb});
    }
    host->absorbed.push_back(std::move(h));
    it = ready_.erase(it);
  }
}

std::vector<std::shared_ptr<dispatch_group>> scheduler::take_runnable() {
  // Walk the ready queue in policy order.  A group starts when every one of
  // its banks is free *and unclaimed*: a blocked earlier-ordered group
  // claims its banks so later groups cannot slip onto banks it is waiting
  // for, while groups on disjoint banks still start — that is the overlap.
  std::vector<std::shared_ptr<dispatch_group>> picked;
  std::vector<char> claimed = bank_busy_;
  for (auto it = ready_.begin(); it != ready_.end();) {
    auto& g = **it;
    bool runnable = true;
    for (const unsigned r : g.resources) runnable = runnable && !claimed[r];
    if (runnable) {
      for (const unsigned r : g.resources) bank_busy_[r] = claimed[r] = 1;
      note_affinity(g);
      auto gp = *it;
      it = ready_.erase(it);
      absorb_compatible(gp, claimed);
      // The absorb scan erases arbitrary queue positions; restart the walk
      // so the iterator stays valid.  The pass stays deterministic — claim
      // state only ever grows within a pass.
      picked.push_back(std::move(gp));
      if (!picked.back()->absorbed.empty()) it = ready_.begin();
    } else {
      for (const unsigned r : g.resources) claimed[r] = 1;
      ++it;
    }
  }
  age_passed_over();
  return picked;
}

void scheduler::age_passed_over() {
  // Priority aging: every group still in the queue was passed over this
  // round; one that has waited aging_limit rounds is promoted ahead of all
  // non-aged groups (group_before orders aged groups first, in flush
  // order), so persistent contention cannot starve a late-deadline or
  // low-priority tenant forever.
  if (cfg_.aging_limit == 0 || ready_.empty()) return;
  bool promoted = false;
  for (auto& gp : ready_) {
    if (!gp->aged && ++gp->waits >= cfg_.aging_limit) {
      gp->aged = true;
      promoted = true;
    }
  }
  if (promoted) {
    std::stable_sort(ready_.begin(), ready_.end(),
                     [this](const std::shared_ptr<dispatch_group>& a,
                            const std::shared_ptr<dispatch_group>& b) {
                       return group_before(*a, *b);
                     });
  }
}

void scheduler::note_affinity(const dispatch_group& g) {
  // One hit per claimed group whose banks intersect the residency hint:
  // the group will find (some of) its limb operands already resident on
  // banks it holds — the zero-cost warm path (a resident image on any other
  // bank is a miss).
  if (g.affinity_banks.empty()) return;
  bool intersects = false;
  for (const unsigned r : g.resources) {
    intersects = intersects || std::find(g.affinity_banks.begin(), g.affinity_banks.end(),
                                         r) != g.affinity_banks.end();
  }
  if (!intersects) return;
  affinity_.add();
  if (recorder_ != nullptr) {
    recorder_->record({.ts = g.ref_vtime,
                       .dur = 0,
                       .a = g.seq,
                       .track = telemetry::kTrackScheduler,
                       .arg = static_cast<telemetry::u32>(g.hints.stream),
                       .op = telemetry::trace_op::affinity_hit});
  }
}

void scheduler::release(const dispatch_group& g) {
  for (const unsigned r : g.resources) bank_busy_[r] = 0;
}

bool scheduler::idle() const {
  return std::none_of(bank_busy_.begin(), bank_busy_.end(), [](char b) { return b != 0; });
}

bool scheduler::should_yield(const dispatch_group& g) const {
  for (const auto& h : ready_) {
    if (!group_before(*h, g)) continue;
    for (const unsigned r : h->resources) {
      if (std::find(g.resources.begin(), g.resources.end(), r) != g.resources.end()) {
        return true;
      }
    }
  }
  return false;
}

u64 scheduler::account(const dispatch_group& g, u64 wall_cycles) {
  // Virtual timeline: the batch starts at its bank subset's frontier and
  // advances it.  Disjoint subsets advance independently — overlap; the
  // default stream owns every bank, so its batches run back-to-back
  // exactly as the legacy accounting did.
  u64 start = 0;
  for (const unsigned res : g.resources) start = std::max(start, bank_free_at_[res]);
  const u64 end = start + wall_cycles;
  for (const unsigned res : g.resources) bank_free_at_[res] = end;
  return end;
}

}  // namespace bpntt::runtime

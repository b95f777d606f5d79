#include "runtime/context.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "nttmath/primes.h"
#include "telemetry/trace_export.h"

namespace bpntt::runtime {

namespace {

// The pool is a member initializer, so its size must be vetted before
// runtime_options::validate() gets a chance to run in the constructor body
// — otherwise an absurd with_threads() value would spawn the threads first
// and reject them after.
unsigned checked_pool_size(const runtime_options& opts) {
  runtime_options::validate_threads(opts.threads);
  return opts.threads;
}

}  // namespace

context::context(runtime_options opts)
    : opts_(std::move(opts)), pool_(checked_pool_size(opts_)) {
  opts_.validate();
  backend_ = make_backend(opts_);
  finish_construction();
}

context::context(runtime_options opts, std::unique_ptr<backend> custom_backend)
    : opts_(std::move(opts)),
      backend_(std::move(custom_backend)),
      pool_(checked_pool_size(opts_)) {
  if (!backend_) {
    throw std::invalid_argument("runtime: context needs a non-null custom backend");
  }
  opts_.params.validate();
  finish_construction();
}

void context::finish_construction() {
  backend_->attach_executor(&pool_);
  caps_ = backend_->capabilities();
  // Tracing is opt-in: without it no recorder exists and every
  // instrumentation site degenerates to one null test.
  if (opts_.tracing) {
    recorder_ = std::make_unique<telemetry::trace_recorder>();
  }
  backend_->attach_recorder(recorder_.get());

  // On-array residency exists only where device rows do: banked backends
  // get a manager whose placement domains are their banks; it splits
  // operand_cache_entries over them.  Host backends ignore the option.
  if (caps_.banks() != 0 && opts_.operand_cache_entries != 0) {
    const residency_manager::config rc{.banks = caps_.banks(),
                                       .entries = opts_.operand_cache_entries,
                                       .rows_per_operand = static_cast<unsigned>(opts_.params.n)};
    resman_ = std::make_unique<residency_manager>(rc, registry_, recorder_.get());
    backend_->attach_residency(resman_.get());
  }

  // The configured ring must fit the backend's envelope — a narrower
  // backend (or a stub advertising one) is rejected here, not at dispatch.
  if (caps_.max_poly_order != 0 && opts_.params.n > caps_.max_poly_order) {
    throw std::invalid_argument(
        "runtime: ring order n = " + std::to_string(opts_.params.n) +
        " exceeds the backend's max polynomial order " + std::to_string(caps_.max_poly_order));
  }
  const unsigned q_bits = static_cast<unsigned>(std::bit_width(opts_.params.q));
  if (q_bits > caps_.max_modulus_bits) {
    throw std::invalid_argument("runtime: modulus q needs " + std::to_string(q_bits) +
                                " bits but the backend's envelope is " +
                                std::to_string(caps_.max_modulus_bits) + " bits");
  }

  // Scheduler resources: the backend's banks, or one pseudo-resource for
  // non-banked backends (whose dispatches therefore serialize).
  const unsigned resources = std::max(1u, caps_.banks());
  sched_ = std::make_unique<scheduler>(
      scheduler::policy_config{opts_.sched, opts_.aging_limit, opts_.merge_streams}, resources,
      registry_, recorder_.get());

  // The default stream (id 0) owns every bank — the legacy single-queue
  // behaviour.
  stream_state def;
  def.resources = auto_bank_set(0);
  streams_.emplace(0u, std::move(def));
}

// pool_ is the last member, so the defaulted destructor joins the workers
// (running any still-queued dispatch group to completion) before the state
// those tasks reference is torn down.
context::~context() = default;

// ---- streams ---------------------------------------------------------------

std::vector<unsigned> context::auto_bank_set(unsigned sid) const {
  const unsigned resources = std::max(1u, caps_.banks());
  const unsigned banks = caps_.banks();
  if (sid == 0 || !caps_.overlapping_streams()) {
    std::vector<unsigned> all(resources);
    for (unsigned r = 0; r < resources; ++r) all[r] = r;
    return all;
  }
  // Topology-aware placement: a multi-channel device hands each stream one
  // whole channel's banks; a flat multi-bank device hands it one bank.
  // Round-robin by stream id, so placement is static and deterministic.
  const unsigned channels =
      (caps_.channels > 1 && banks % caps_.channels == 0) ? caps_.channels : 1;
  if (channels > 1) {
    const unsigned per = banks / channels;
    const unsigned ch = (sid - 1) % channels;
    std::vector<unsigned> set(per);
    for (unsigned i = 0; i < per; ++i) set[i] = ch * per + i;
    return set;
  }
  return {(sid - 1) % banks};
}

namespace {

// A ring-overridden (RNS limb) stream must name a modulus every backend
// can retarget to: an odd prime supporting the full negacyclic transform
// at the configured order, inside the modulus envelope the backend
// advertised.  Checked at stream creation so a bad limb fails with a
// precise message instead of a backend throw at dispatch time.
void validate_ring_override(u64 q, const core::ntt_params& params, const backend_caps& caps) {
  if ((q & 1ULL) == 0 || !math::is_prime(q)) {
    throw std::invalid_argument("runtime: stream ring_q = " + std::to_string(q) +
                                " must be an odd prime");
  }
  if ((q - 1) % (2 * params.n) != 0) {
    throw std::invalid_argument("runtime: stream ring_q = " + std::to_string(q) +
                                " does not support negacyclic NTTs of size n = " +
                                std::to_string(params.n) + " (needs q == 1 mod 2n)");
  }
  const unsigned q_bits = static_cast<unsigned>(std::bit_width(q));
  if (q_bits > caps.max_modulus_bits) {
    throw std::invalid_argument("runtime: stream ring_q needs " + std::to_string(q_bits) +
                                " bits but the backend's envelope is " +
                                std::to_string(caps.max_modulus_bits) + " bits");
  }
}

}  // namespace

stream context::stream(stream_options sopts) {
  if (sopts.ring_q != 0) validate_ring_override(sopts.ring_q, opts_.params, caps_);
  // Skip ids still held by live streams (and the default stream's 0): a
  // per-request service that opens and closes streams for long enough
  // wraps the counter, and colliding with a live slot would hand two
  // handles the same queue — the reopened handle must always be a fresh
  // slot, never a resurrected one.
  while (next_stream_id_ == 0 || streams_.count(next_stream_id_) != 0) ++next_stream_id_;
  const unsigned sid = next_stream_id_++;
  stream_state ss;
  ss.resources = auto_bank_set(sid);
  ss.sopts = std::move(sopts);
  {
    std::lock_guard<std::mutex> lk(smu_);
    streams_.emplace(sid, std::move(ss));
  }
  return runtime::stream(this, sid);
}

context::stream_state& context::state_of(unsigned sid) {
  return const_cast<stream_state&>(std::as_const(*this).state_of(sid));
}

const context::stream_state& context::state_of(unsigned sid) const {
  const auto it = streams_.find(sid);
  if (it == streams_.end()) {
    throw std::logic_error("runtime: stream handle is closed or foreign to this context");
  }
  return it->second;
}

void context::close_stream(unsigned sid) {
  if (sid == 0) {
    throw std::logic_error("runtime: the default stream cannot be closed");
  }
  flush_stream(sid);  // nothing may stay queued; throws for foreign/closed handles
  {
    std::lock_guard<std::mutex> lk(smu_);
    streams_.erase(sid);  // in-flight groups carry their own hints; ids stay waitable
  }
  // If this was a dedicated limb stream, forget it so rns_stream() opens a
  // fresh one instead of handing out a dangling id.
  for (auto it = rns_streams_.begin(); it != rns_streams_.end(); ++it) {
    if (it->second == sid) {
      rns_streams_.erase(it);
      break;
    }
  }
}

context& stream::bound() const {
  if (ctx_ == nullptr) {
    throw std::logic_error("runtime: stream handle is not bound to a context");
  }
  return *ctx_;
}

job_id stream::submit(job j) { return bound().submit_on(id_, std::move(j)); }
void stream::flush() { bound().flush_stream(id_); }
void stream::close() { bound().close_stream(id_); }
std::size_t stream::pending() const { return bound().state_of(id_).queue.size(); }
std::vector<unsigned> stream::bank_set() const {
  const context& ctx = bound();
  return ctx.caps_.banks() == 0 ? std::vector<unsigned>{} : ctx.state_of(id_).resources;
}

// ---- submission ------------------------------------------------------------

namespace {

void require_ring_poly(const std::vector<u64>& coeffs, u64 n, u64 q, const char* what) {
  if (coeffs.size() != n) {
    throw std::invalid_argument(std::string("runtime: ") + what + " must have exactly n = " +
                                std::to_string(n) + " coefficients");
  }
  for (const u64 c : coeffs) {
    if (c >= q) {
      throw std::invalid_argument(std::string("runtime: ") + what +
                                  " coefficients must be canonical (< q)");
    }
  }
}

// Submit-side validation of one job against its stream's ring (order n,
// modulus q) and the backend's ring-product capability.
struct job_validator {
  u64 n = 0;
  u64 q = 0;
  bool polymul = false;

  void operator()(const ntt_job& j) const { require_ring_poly(j.coeffs, n, q, "ntt_job"); }

  void operator()(const polymul_job& j) const {
    require_ring_poly(j.a, n, q, "polymul_job.a");
    require_ring_poly(j.b, n, q, "polymul_job.b");
    if (!polymul) {
      throw std::invalid_argument(
          "runtime: this backend's capabilities exclude ring products at these parameters (the "
          "in-SRAM pipeline needs two n-row operand regions per lane: 2n <= data_rows)");
    }
  }

  void operator()(const rns_rescale_job& j) const {
    if (j.prime != q) {
      throw std::invalid_argument(
          "runtime: rns_rescale_job names limb prime " + std::to_string(j.prime) +
          " but this stream's ring modulus is " + std::to_string(q) +
          " (the rescale correction of a limb rides that limb's stream)");
    }
    if (j.drop_prime == 0 || (j.drop_prime & 1ULL) == 0 || !math::is_prime(j.drop_prime)) {
      throw std::invalid_argument("runtime: rns_rescale_job drop prime " +
                                  std::to_string(j.drop_prime) + " must be an odd prime");
    }
    if (j.drop_prime == j.prime) {
      throw std::invalid_argument(
          "runtime: rns_rescale_job drops its own limb prime " + std::to_string(j.prime) +
          " (the dropped limb is excluded from the rescale fan-out)");
    }
    if (j.congruence >= 2 && j.congruence % j.drop_prime == 0) {
      throw std::invalid_argument(
          "runtime: rns_rescale_job congruence " + std::to_string(j.congruence) +
          " is a multiple of drop prime " + std::to_string(j.drop_prime) +
          " (the plaintext modulus must be coprime to the dropped limb)");
    }
    require_ring_poly(j.x, n, j.prime, "rns_rescale_job.x");
    require_ring_poly(j.dropped, n, j.drop_prime, "rns_rescale_job.dropped");
  }

  void operator()(const rns_base_extend_job& j) const {
    if (j.prime != q) {
      throw std::invalid_argument(
          "runtime: rns_base_extend_job names target prime " + std::to_string(j.prime) +
          " but this stream's ring modulus is " + std::to_string(q) +
          " (a new limb's extension rides that limb's stream)");
    }
    if (j.source_primes.empty()) {
      throw std::invalid_argument(
          "runtime: rns_base_extend_job needs at least one source limb prime");
    }
    if (j.residues.size() != j.source_primes.size()) {
      throw std::invalid_argument(
          "runtime: rns_base_extend_job carries " + std::to_string(j.residues.size()) +
          " residue polynomials for a source chain of " +
          std::to_string(j.source_primes.size()) + " primes");
    }
    for (std::size_t i = 0; i < j.source_primes.size(); ++i) {
      const u64 p = j.source_primes[i];
      if (p == 0 || (p & 1ULL) == 0 || !math::is_prime(p)) {
        throw std::invalid_argument("runtime: rns_base_extend_job source prime " +
                                    std::to_string(p) + " must be an odd prime");
      }
      if (p == j.prime) {
        throw std::invalid_argument(
            "runtime: rns_base_extend_job extends to source prime " + std::to_string(p) +
            " (the target limb must be new — it already carries those residues)");
      }
      for (std::size_t k = i + 1; k < j.source_primes.size(); ++k) {
        if (j.source_primes[k] == p) {
          throw std::invalid_argument("runtime: rns_base_extend_job repeats source prime " +
                                      std::to_string(p) +
                                      " (an RNS basis needs pairwise-coprime moduli)");
        }
      }
      const std::string what = "rns_base_extend_job limb " + std::to_string(i);
      require_ring_poly(j.residues[i], n, p, what.c_str());
    }
  }
};

}  // namespace

job_id context::submit_on(unsigned sid, job j) {
  const stream_state& ss = state_of(sid);
  const u64 q = ss.sopts.ring_q != 0 ? ss.sopts.ring_q : opts_.params.q;
  std::visit(job_validator{opts_.params.n, q, caps_.polymul}, j);
  const job_id id = next_id_++;
  // Count the submission before the job becomes visible in any queue, so a
  // concurrent stats() reading jobs_submitted *last* can never observe an
  // outcome the submission counter has not covered yet.
  jobs_submitted_.add();
  std::lock_guard<std::mutex> lk(smu_);
  state_of(sid).queue.emplace_back(id, std::move(j));
  return id;
}

job_id context::submit(ntt_job j) { return submit_on(0, std::move(j)); }
job_id context::submit(polymul_job j) { return submit_on(0, std::move(j)); }

// ---- RNS fan-out ------------------------------------------------------------

stream context::rns_stream(u64 prime) {
  if (prime == 0) {
    throw std::invalid_argument("runtime: rns_stream needs a non-zero limb prime");
  }
  const auto it = rns_streams_.find(prime);
  if (it != rns_streams_.end()) return runtime::stream(this, it->second);
  stream_options sopts;
  sopts.ring_q = prime;
  runtime::stream s = stream(std::move(sopts));
  rns_streams_.emplace(prime, s.id());
  return s;
}

std::size_t context::pending() const noexcept {
  std::lock_guard<std::mutex> lk(smu_);
  std::size_t n = 0;
  for (const auto& [sid, ss] : streams_) n += ss.queue.size();
  return n;
}

std::size_t context::open_streams() const noexcept {
  std::lock_guard<std::mutex> lk(smu_);
  return streams_.size();
}

scheduler_stats context::stats() const {
  // Read straight from the instruments the hot paths bump: the context's
  // own, the scheduler's and the residency manager's.  Read-order
  // discipline replaces an all-under-one-lock copy: outcome counters first,
  // the in-flight gauge second, jobs_submitted *last*.  A job leaves
  // in_flight_ before its outcome counter bumps (both under mu_) and is
  // counted submitted before it is queued anywhere, so a snapshot can never
  // show completed + failed + in_flight > submitted.
  scheduler_stats s;
  s.jobs_completed = jobs_completed_.value();
  s.jobs_failed = jobs_failed_.value();
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.jobs_in_flight = in_flight_.size();
  }
  s.groups = groups_.value();
  s.batches = batches_.value();
  s.waves = waves_.value();
  s.wall_cycles = wall_cycles_.value();
  s.deadline_misses = deadline_misses_.value();
  s.energy_nj = energy_nj_.value();
  s.groups_merged = sched_->groups_merged();
  s.preemption_yields = sched_->preemption_yields();
  s.residency_affinity_hits = sched_->residency_affinity_hits();
  if (resman_) {
    s.operand_cache_hits = resman_->hits();
    s.operand_cache_misses = resman_->misses();
    s.residency_evictions = resman_->evictions();
    s.residency_moves = resman_->moves();
    s.resident_rows = resman_->resident_rows();
    s.resident_rows_peak = resman_->resident_rows_peak();
  }
  s.jobs_submitted = jobs_submitted_.value();
  return s;
}

void context::export_trace(std::ostream& os) const {
  if (!recorder_) {
    throw std::logic_error(
        "runtime: tracing is disabled — construct the context with "
        "runtime_options::with_tracing() to record a timeline");
  }
  // The timeline is complete only once every job is done and every claim
  // released, so the export refuses a busy context.
  // Queued or in-flight jobs are the caller's to finish; a group whose jobs
  // are all done can still hold its claim for a moment, so wait that out.
  bool busy = pending() != 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    busy = busy || !in_flight_.empty();
    if (!busy) cv_.wait(lk, [&] { return sched_->idle(); });
  }
  if (busy) {
    throw std::logic_error(
        "runtime: export_trace needs a quiescent context — call sync() or wait_all() first");
  }
  telemetry::trace_export_layout layout;
  layout.banks = std::max(1u, caps_.banks());
  layout.banks_per_channel = (caps_.channels > 1 && layout.banks % caps_.channels == 0)
                                 ? layout.banks / caps_.channels
                                 : layout.banks;
  telemetry::write_chrome_trace(os, recorder_->snapshot_events(), layout);
}

void context::export_trace(const std::string& path) const {
  std::ostringstream doc;
  export_trace(doc);  // every precondition throws before the file exists
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("runtime: cannot open trace output file " + path);
  }
  os << doc.str();
}

std::size_t context::operand_cache_size() const noexcept {
  return resman_ ? resman_->size() : 0;
}

u64 context::resident_rows() const noexcept {
  return resman_ ? resman_->resident_rows() : 0;
}

u64 context::resident_row_capacity() const noexcept {
  return resman_ ? resman_->capacity_rows() : 0;
}

std::size_t context::invalidate_operand(const std::vector<u64>& coeffs) noexcept {
  return resman_ ? resman_->invalidate(coeffs) : 0;
}

void context::pin_operand(const std::vector<u64>& coeffs) noexcept {
  if (resman_) resman_->pin(coeffs);
}

// ---- group building and admission ------------------------------------------

namespace {

batch_kind kind_of(const job& j) noexcept {
  if (const auto* ntt = std::get_if<ntt_job>(&j)) {
    return ntt->dir == transform_dir::forward ? batch_kind::forward : batch_kind::inverse;
  }
  if (std::holds_alternative<polymul_job>(j)) return batch_kind::polymul;
  if (std::holds_alternative<rns_rescale_job>(j)) return batch_kind::rescale;
  return batch_kind::base_extend;
}

// The dispatch-span op of each batch_kind.
constexpr telemetry::trace_op kSpanOp[kBatchKinds] = {
    telemetry::trace_op::ntt_forward, telemetry::trace_op::ntt_inverse,
    telemetry::trace_op::polymul, telemetry::trace_op::rescale, telemetry::trace_op::base_extend};

// Each job of one kind (alternative J), moved out in the form the backend
// entry point for that kind takes.
template <typename J, typename Take>
auto payloads(std::vector<job>& jobs, Take take) {
  std::vector<decltype(take(std::declval<J&>()))> out;
  out.reserve(jobs.size());
  for (auto& j : jobs) out.push_back(take(std::get<J>(j)));
  return out;
}

}  // namespace

std::shared_ptr<dispatch_group> context::build_group(unsigned sid) {
  std::lock_guard<std::mutex> lk(smu_);
  stream_state& ss = state_of(sid);
  if (ss.queue.empty()) return nullptr;
  // The stream's pending set becomes one typed batch per job kind, in
  // batch_kind order (see flush_plan).
  auto g = std::make_shared<dispatch_group>();
  for (auto& [id, j] : ss.queue) {
    const batch_kind kind = kind_of(j);
    auto it = std::find_if(g->plan.begin(), g->plan.end(),
                           [&](const typed_batch& b) { return b.kind >= kind; });
    if (it == g->plan.end() || it->kind != kind) it = g->plan.insert(it, {kind, {}, {}});
    it->ids.push_back(id);
    it->jobs.push_back(std::move(j));
  }
  ss.queue.clear();

  g->hints.stream = sid;
  g->hints.priority = ss.sopts.priority;
  g->hints.deadline_cycles = ss.sopts.deadline_cycles;
  g->hints.ring_q = ss.sopts.ring_q;
  g->resources = ss.resources;
  // Residency affinity hint: the banks currently holding images for this
  // stream's ring — the scheduler counts a hit when the claim lands on one.
  if (resman_ && ss.sopts.ring_q != 0) {
    g->affinity_banks = resman_->banks_holding(ss.sopts.ring_q);
  }
  g->chunk_budget = ss.sopts.chunk_budget;
  return g;
}

void context::kick_locked() {
  for (auto& gp : sched_->take_runnable()) {
    if (recorder_) {
      recorder_->record({.ts = gp->ref_vtime,
                         .dur = 0,
                         .a = gp->resources.size(),
                         .track = telemetry::kTrackScheduler,
                         .arg = static_cast<telemetry::u32>(gp->seq),
                         .op = telemetry::trace_op::bank_claim});
    }
    pool_.enqueue([this, gp] { run_group(gp); });
  }
}

void context::flush_stream(unsigned sid) {
  if (auto g = build_group(sid)) admit({std::move(g)});
}

void context::flush() {
  std::vector<std::shared_ptr<dispatch_group>> groups;
  for (auto& [sid, ss] : streams_) {
    if (auto g = build_group(sid)) groups.push_back(std::move(g));
  }
  if (!groups.empty()) admit(std::move(groups));
}

void context::admit(std::vector<std::shared_ptr<dispatch_group>> groups) {
  // Every group enters the ready queue before any scheduling decision, so
  // priority order holds across streams flushed together — a lower-id bulk
  // stream cannot seize contended banks ahead of a higher-priority stream
  // in the same flush.
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& g : groups) {
    // Jobs become in-flight before the group can run, so a wait() racing
    // the pool can never mistake a dispatched job for a claimed one.
    for (const typed_batch& b : g->plan) in_flight_.insert(b.ids.begin(), b.ids.end());
    groups_.add();
    const dispatch_group* gp = g.get();
    sched_->enqueue(std::move(g));
    if (recorder_) {
      // The group's lifecycle starts here: seq/ref_vtime were just assigned
      // by the scheduler.  A queue-depth sample rides along so the counter
      // track shows the backlog the group joined.
      recorder_->record({.ts = gp->ref_vtime,
                         .dur = 0,
                         .a = 0,
                         .track = telemetry::kTrackScheduler,
                         .arg = static_cast<telemetry::u32>(gp->seq),
                         .op = telemetry::trace_op::group_enqueue});
      recorder_->record({.ts = gp->ref_vtime,
                         .dur = 0,
                         .a = sched_->ready_groups(),
                         .track = telemetry::kTrackScheduler,
                         .arg = 0,
                         .op = telemetry::trace_op::queue_depth});
    }
  }
  kick_locked();
}

// ---- group execution --------------------------------------------------------

void context::run_group(const std::shared_ptr<dispatch_group>& g) {
  // A solo group is a one-member merge: the host first, then absorbed
  // groups in absorption order.  Per-job math is independent, so one
  // dispatch over every member's jobs of a kind is bit-identical to running
  // the members separately — only the makespan and the per-dispatch
  // amortization change.
  std::vector<dispatch_group*> members{g.get()};
  for (const auto& m : g->absorbed) members.push_back(m.get());
  // A solo group with a chunk budget hands its jobs to the backend at most
  // budget at a time and offers its banks to any earlier-ordered ready group
  // between chunks (scheduler::should_yield).  Merged groups, and budget 0,
  // dispatch each kind whole with no yield points.
  const u64 budget = members.size() == 1 ? g->chunk_budget : 0;
  // Non-banked backends get no bank subset (the pseudo-resource is a
  // scheduler fiction); banked backends run on the claimed banks.
  dispatch_hints hints = g->hints;
  if (caps_.banks() != 0) hints.bank_set = g->resources;

  // Kinds run in batch_kind order, each draining chunk by chunk before the
  // next starts; plans keep that order, so a kind's jobs sit at the front
  // of every member's plan when its turn comes.
  for (std::size_t k = 0; k < kBatchKinds; ++k) {
    const auto kind = static_cast<batch_kind>(k);
    for (;;) {
      std::vector<member_slice> slices;
      std::vector<job> jobs;
      for (auto* m : members) {
        if (m->plan.empty() || m->plan.front().kind != kind) continue;
        typed_batch& b = m->plan.front();
        const std::size_t take =
            budget == 0 ? b.ids.size() : std::min<std::size_t>(b.ids.size(), budget);
        slices.push_back({m, {b.ids.begin(), b.ids.begin() + take}, jobs.size()});
        jobs.insert(jobs.end(), std::make_move_iterator(b.jobs.begin()),
                    std::make_move_iterator(b.jobs.begin() + take));
        b.ids.erase(b.ids.begin(), b.ids.begin() + take);
        b.jobs.erase(b.jobs.begin(), b.jobs.begin() + take);
        if (b.ids.empty()) m->plan.erase(m->plan.begin());
      }
      if (slices.empty()) break;

      // A backend exception fails exactly this dispatch's jobs — sibling
      // dispatches of the same group, and other streams' groups, still run.
      try {
        distribute(*g, slices, dispatch(kind, std::move(jobs), hints), kSpanOp[k]);
      } catch (const std::exception& e) {
        fail(slices, e.what());
      } catch (...) {
        fail(slices, "unknown backend error");
      }

      if (budget != 0 && !g->plan.empty()) {
        std::lock_guard<std::mutex> lk(mu_);
        if (sched_->should_yield(*g)) {
          // Give the banks to the earlier-ordered group: release the claim,
          // re-enqueue the remainder at its original policy position, and
          // schedule — the urgent group claims the banks on this pass.
          sched_->release(*g);
          sched_->requeue_preempted(g);
          kick_locked();
          return;
        }
      }
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  sched_->release(*g);
  kick_locked();
  cv_.notify_all();
}

batch_result context::dispatch(batch_kind kind, std::vector<job>&& jobs,
                               const dispatch_hints& hints) {
  const auto whole = [](auto& j) { return std::move(j); };
  switch (kind) {
    case batch_kind::forward:
    case batch_kind::inverse: {
      const auto coeffs = [](ntt_job& j) { return std::move(j.coeffs); };
      return backend_->run_ntt(
          payloads<ntt_job>(jobs, coeffs),
          kind == batch_kind::forward ? transform_dir::forward : transform_dir::inverse, hints);
    }
    case batch_kind::polymul: {
      const auto pair = [](polymul_job& j) {
        return core::polymul_pair{std::move(j.a), std::move(j.b)};
      };
      return backend_->run_polymul(payloads<polymul_job>(jobs, pair), hints);
    }
    case batch_kind::rescale:
      return backend_->run_rescale(payloads<rns_rescale_job>(jobs, whole), hints);
    case batch_kind::base_extend:
      return backend_->run_base_extend(payloads<rns_base_extend_job>(jobs, whole), hints);
  }
  throw std::logic_error("runtime: unknown batch kind");
}

// ---- accounting and completion ---------------------------------------------

void context::distribute(const dispatch_group& host, const std::vector<member_slice>& slices,
                         batch_result&& r, telemetry::trace_op op) {
  const std::size_t total = slices.back().offset + slices.back().ids.size();
  // A backend returning the wrong number of outputs would misroute results;
  // refuse loudly (the caller turns this into per-job failures).
  if (r.outputs.size() != total) {
    throw std::logic_error("runtime: backend returned " + std::to_string(r.outputs.size()) +
                           " outputs for a dispatch of " + std::to_string(total) + " jobs");
  }
  std::lock_guard<std::mutex> lk(mu_);
  // One accounting event on the host's claimed banks: the batch starts at
  // their frontier and advances it by its wall cycles.
  const u64 end = sched_->account(host, r.wall_cycles);
  batches_.add();
  waves_.add(r.waves);
  wall_cycles_.set_max(end);
  energy_nj_.add(r.stats.energy_pj * 1e-3);
  if (recorder_) {
    recorder_->set_watermark(end);
    // One span per claimed bank over exactly [end - wall, end) — the
    // interval scheduler::account just advanced the frontiers by.  The max
    // span end across bank rows therefore *equals* stats().wall_cycles; the
    // trace_export_test asserts that reconstruction exactly.
    for (const unsigned b : host.resources) {
      recorder_->record({.ts = end - r.wall_cycles,
                         .dur = r.wall_cycles,
                         .a = total,
                         .track = b,
                         .arg = static_cast<telemetry::u32>(host.seq),
                         .op = op});
    }
  }
  // Every member's jobs finish at the batch's end, but each member's
  // deadline is judged from its *own* flush frontier — per-tenant
  // accounting survives a merge.  A deadline is a completion budget
  // measured from the flush; finishing exactly at it is a meet, not a miss.
  for (const auto& s : slices) {
    const u64 deadline = s.g->hints.deadline_cycles;
    const bool missed = deadline != 0 && end - s.g->ref_vtime > deadline;
    if (missed) {
      deadline_misses_.add(s.ids.size());
      if (recorder_) {
        recorder_->record({.ts = end,
                           .dur = 0,
                           .a = s.ids.size(),
                           .track = telemetry::kTrackScheduler,
                           .arg = static_cast<telemetry::u32>(s.g->seq),
                           .op = telemetry::trace_op::deadline_miss});
      }
    }
    for (std::size_t i = 0; i < s.ids.size(); ++i) {
      job_result res;
      res.outputs.push_back(std::move(r.outputs[s.offset + i]));
      res.op_stats = r.stats;
      res.wall_cycles = r.wall_cycles;
      res.jobs_in_batch = total;
      res.stream = s.g->hints.stream;
      res.finish_cycles = end;
      res.deadline_missed = missed;
      done_.emplace(s.ids[i], std::move(res));
      in_flight_.erase(s.ids[i]);
    }
    jobs_completed_.add(s.ids.size());
  }
  cv_.notify_all();
}

void context::fail(const std::vector<member_slice>& slices, const std::string& what) {
  const std::size_t total = slices.back().offset + slices.back().ids.size();
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : slices) {
    for (const job_id id : s.ids) {
      job_result res;
      res.status = job_status::failed;
      res.error = what;
      res.jobs_in_batch = total;
      res.stream = s.g->hints.stream;
      done_.emplace(id, std::move(res));
      in_flight_.erase(id);
    }
    jobs_failed_.add(s.ids.size());
  }
  cv_.notify_all();
}

// ---- retrieval -------------------------------------------------------------

std::optional<unsigned> context::queued_on(job_id id) const noexcept {
  std::lock_guard<std::mutex> lk(smu_);
  for (const auto& [sid, ss] : streams_) {
    for (const auto& [qid, j] : ss.queue) {
      if (qid == id) return sid;
    }
  }
  return std::nullopt;
}

job_result context::wait(job_id id) {
  if (id == 0 || id >= next_id_) throw std::out_of_range("runtime: unknown job id");
  if (const auto sid = queued_on(id)) flush_stream(*sid);
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done_.count(id) != 0 || in_flight_.count(id) == 0; });
  auto it = done_.find(id);
  if (it == done_.end()) {
    throw std::out_of_range("runtime: job result already claimed");
  }
  job_result res = std::move(it->second);
  done_.erase(it);
  if (res.status == job_status::failed) {
    throw job_failed_error(id, res.error);
  }
  return res;
}

std::optional<job_result> context::try_wait(job_id id) {
  if (id == 0 || id >= next_id_) throw std::out_of_range("runtime: unknown job id");
  const bool queued = queued_on(id).has_value();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = done_.find(id);
  if (it != done_.end()) {
    job_result res = std::move(it->second);
    done_.erase(it);
    return res;
  }
  if (queued || in_flight_.count(id) != 0) return std::nullopt;
  throw std::out_of_range("runtime: job result already claimed");
}

void context::sync() {
  flush();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return in_flight_.empty() && sched_->idle(); });
}

std::vector<job_result> context::wait_all() {
  sync();
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<job_result> all;
  all.reserve(done_.size());
  for (auto& [id, res] : done_) all.push_back(std::move(res));
  done_.clear();
  return all;
}

}  // namespace bpntt::runtime

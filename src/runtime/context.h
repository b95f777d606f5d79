// bpntt::runtime::context — the library's public job-submission API.
//
//   runtime::context ctx(runtime_options()
//                            .with_ring(256, 7681, 14)
//                            .with_backend(backend_kind::sram)
//                            .with_topology(2, 2, 4)    // channels, banks/ch, subarrays
//                            .with_threads(4));
//   auto fast = ctx.stream({.priority = 10});           // independent in-order lanes
//   auto bulk = ctx.stream({.deadline_cycles = 50000});
//   auto a = fast.submit(runtime::ntt_job{.coeffs = p1});
//   auto b = bulk.submit(runtime::ntt_job{.coeffs = p2});
//   fast.flush();  bulk.flush();                        // overlapping dispatch groups
//   auto ra = ctx.wait(a);  auto rb = ctx.wait(b);      // per-job completion
//
// The legacy single-queue surface is a thin wrapper over the default stream
// (id 0): ctx.submit() enqueues there, ctx.flush() flushes every stream, so
// existing callers keep compiling and behave exactly as before.
//
// submit() validates against the backend's capabilities() descriptor and
// enqueues; nothing executes until a flush (or a wait).  The deferral is
// the batching opportunity: at flush time a stream's pending set becomes
// one typed batch per job kind — forward transforms with forward
// transforms, ring products with ring products — and the batches, in a
// fixed kind order, become one *dispatch group* carrying the stream's
// dispatch_hints (stream id, priority, deadline, bank subset) and chunk
// budget.
//
// Scheduling is the scheduler module's job (src/runtime/scheduler.h):
// group ordering (priority / EDF + aging behind one comparator), bank
// claiming and placement, cross-stream merging of compatible groups, and
// the yield decision of chunked dispatch all live there.  The context is
// job bookkeeping and result distribution: it builds groups at flush and
// runs every group the scheduler hands back through one loop — a solo
// group is a one-member merge — that gathers each member's slice of a
// kind, dispatches it, accounts it on the scheduler's virtual timeline and
// routes per-job results to completion state.
//
// Accounting runs on a virtual timeline of per-bank frontiers: a batch on
// subset S starts at S's frontier and advances it by the batch's
// wall_cycles, so scheduler_stats::wall_cycles is the makespan — identical
// to the old back-to-back sum when nothing overlaps, strictly smaller when
// streams overlap.  A stream deadline is checked against completion minus
// the frontier at flush; misses mark job_result::deadline_missed and count
// into deadline_misses.
//
// Failure model: a backend exception fails exactly the jobs of the
// dispatch it occurred in (job_status::failed + the backend's message);
// sibling dispatches of the same group, and sibling streams' groups, still
// complete.  wait() throws job_failed_error for a failed job;
// try_wait()/wait_all() return the failed job_result instead.
//
// Cross-stream batching (runtime_options::merge_streams, default off):
// when the scheduler picks a runnable group it absorbs merge-compatible
// ready groups — same ring modulus, banks disjoint-or-shareable — and
// the context runs one dispatch per job kind over every member's jobs,
// distributing each member's outputs back to its own stream with that
// member's deadline accounting.  Outputs are bit-identical to unmerged
// execution; only the makespan and the per-dispatch amortization change.
//
// Preemptive yielding (stream_options::chunk_budget, default unbounded):
// a group dispatches in chunks of at most chunk_budget jobs; between
// chunks the scheduler may order an arriving finite-deadline group ahead,
// in which case the running group releases its banks and re-enters the
// ready queue with its original flush position — budget-based preemption
// without killing in-flight work.
//
// Threading contract: one client thread submits/flushes/waits; the pool
// threads are internal.  A context is not a multi-producer queue — the
// multi-tenant front door over it is service::service (src/service/),
// whose single drainer thread is the one client of the context while any
// number of application threads submit through session handles.
// Exception: stats(), pending() and the cache/stream observability probes
// are safe to call from any thread (a stats or monitoring thread can watch
// a live context).
#pragma once

#include <condition_variable>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "runtime/backend.h"
#include "runtime/executor.h"
#include "runtime/job.h"
#include "runtime/options.h"
#include "runtime/residency_manager.h"
#include "runtime/scheduler.h"
#include "runtime/stream.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace bpntt::runtime {

// Cumulative scheduling counters across the context's lifetime.  A plain
// value snapshot — the live instruments behind every field are registry
// entries (context::metrics()); stats() assembles this struct from them,
// so the snapshot and the registry can never disagree.
struct scheduler_stats {
  u64 jobs_submitted = 0;
  u64 jobs_completed = 0;  // finished ok
  u64 jobs_failed = 0;     // dispatch raised; per-job error recorded
  u64 jobs_in_flight = 0;  // snapshot: dispatched, not yet completed/failed
  u64 groups = 0;          // dispatch groups executed (one per stream flush)
  u64 batches = 0;         // backend dispatches
  u64 waves = 0;           // scheduling waves executed by the backend
  // Virtual-timeline makespan: equals the back-to-back sum of batch
  // wall-clocks when nothing overlaps, strictly smaller when streams do.
  u64 wall_cycles = 0;
  u64 deadline_misses = 0;  // jobs that completed past their stream's deadline
  double energy_nj = 0.0;
  // On-array residency counters (cumulative): transforms served resident
  // vs computed fresh on ring-overridden (RNS limb) dispatches.  All stay
  // 0 on host backends (no device rows) and when residency is disabled
  // (operand_cache_entries == 0).
  u64 operand_cache_hits = 0;
  u64 operand_cache_misses = 0;
  // Residents dropped under capacity pressure (LRU within the unpinned
  // class, charged against each bank's operand slots).
  u64 residency_evictions = 0;
  // Always 0: a dispatch is served only from banks it holds, and an image
  // resident on another bank is a miss, so operands never move between
  // banks.  Kept because external metric readers still read the field.
  u64 residency_moves = 0;
  // Scheduler claims that landed a group on a bank already holding its
  // limb operands.
  u64 residency_affinity_hits = 0;
  // Device rows currently reserved by residents / lifetime high-water mark.
  u64 resident_rows = 0;
  u64 resident_rows_peak = 0;
  // Cross-stream batching: ready groups absorbed into another group's
  // merged dispatch (0 unless runtime_options::merge_streams is on).
  u64 groups_merged = 0;
  // Chunked groups that yielded their banks to an earlier-ordered group
  // mid-plan (0 unless a stream sets a chunk_budget).
  u64 preemption_yields = 0;
};

class context {
 public:
  explicit context(runtime_options opts);
  // Injects a caller-provided backend (stub backends in tests, custom
  // models).  opts still selects ring parameters and pool size.
  context(runtime_options opts, std::unique_ptr<backend> custom_backend);
  ~context();

  context(const context&) = delete;
  context& operator=(const context&) = delete;

  [[nodiscard]] const runtime_options& options() const noexcept { return opts_; }
  [[nodiscard]] backend& active_backend() noexcept { return *backend_; }
  // The backend's execution envelope, captured at construction.
  [[nodiscard]] const backend_caps& capabilities() const noexcept { return caps_; }
  // Jobs one scheduling round absorbs at full utilisation (0 = unbounded).
  [[nodiscard]] unsigned wave_width() const noexcept { return caps_.wave_width; }
  [[nodiscard]] unsigned executor_threads() const noexcept { return pool_.thread_count(); }
  // Counter snapshot (jobs_in_flight is the instantaneous gauge).  Safe
  // from any thread.
  [[nodiscard]] scheduler_stats stats() const;

  // The unified metrics registry behind stats(): every runtime counter
  // ("runtime.jobs_submitted", "runtime.wall_cycles", ...), the scheduler's
  // ("sched.groups_merged"/"sched.preemption_yields") and, where a
  // residency manager exists, its "cache.*"/"residency.*" instruments live
  // here, and the service layer registers its instruments into the same
  // registry.
  // metrics().to_json() is the one serialization bench artifacts embed.
  // Instrument updates and value reads are safe from any thread.
  [[nodiscard]] telemetry::metrics_registry& metrics() noexcept { return registry_; }
  [[nodiscard]] const telemetry::metrics_registry& metrics() const noexcept {
    return registry_;
  }

  // Tracing probes (safe from any thread).  enabled mirrors
  // runtime_options::tracing; the counters are cumulative across the
  // context's lifetime and stay 0 when tracing is off — the zero-overhead
  // guarantee a test can assert.
  struct trace_probe {
    bool enabled = false;
    u64 events_recorded = 0;
    u64 events_dropped = 0;
  };
  [[nodiscard]] trace_probe trace_stats() const noexcept {
    if (!recorder_) return {};
    return {true, recorder_->events_recorded(), recorder_->events_dropped()};
  }

  // Export the recorded virtual-timeline trace as Chrome trace-event JSON
  // (Perfetto / chrome://tracing open it directly).  Throws
  // std::logic_error when the context was built without with_tracing(),
  // and while any job is queued or in flight: the timeline is complete only
  // once every dispatch has been accounted, so call it after
  // sync()/wait_all().
  void export_trace(const std::string& path) const;
  void export_trace(std::ostream& os) const;

  // The raw recorder (nullptr when tracing is off) — the low-level hook the
  // service layer uses to stamp ticket events onto the same timeline.
  [[nodiscard]] telemetry::trace_recorder* tracer() const noexcept { return recorder_.get(); }
  // Jobs enqueued on any stream and not yet handed to the scheduler.  Safe
  // from any thread.
  [[nodiscard]] std::size_t pending() const noexcept;
  // Streams currently open (the default stream included).  Safe from any
  // thread.
  [[nodiscard]] std::size_t open_streams() const noexcept;

  // On-array residency surface.  Operands currently resident (0 when
  // residency is disabled or the backend has no device rows).
  [[nodiscard]] std::size_t operand_cache_size() const noexcept;
  // Device rows currently held by resident operands, and the rows the
  // residency slots can hold (operand_cache_entries x n; see
  // residency_manager.h).  Safe from any thread.
  [[nodiscard]] u64 resident_rows() const noexcept;
  [[nodiscard]] u64 resident_row_capacity() const noexcept;
  // Drop the resident images of one operand (across every limb prime and
  // direction) — for callers that mutate or retire a polynomial the device
  // may hold (a rotated key, a freed ciphertext).  Pinned entries are
  // dropped too, and the operand's pin registration is forgotten: pinning
  // protects against *capacity eviction* only, explicit invalidation
  // always wins.  Returns the number of entries dropped.
  std::size_t invalidate_operand(const std::vector<u64>& coeffs) noexcept;
  // Pin an operand's residency: pinned entries (current and future
  // inserts of the same coefficients) are exempt from capacity eviction —
  // for long-lived operands like evaluation keys that every multiply
  // touches.  No-ops when residency is disabled or the backend has no
  // device rows.
  void pin_operand(const std::vector<u64>& coeffs) noexcept;
  // Limb rings held by the backend's ring cache (LRU-bounded by
  // kRetargetCacheModuli in runtime/ring_cache.h); the configured ring is
  // not counted.
  [[nodiscard]] std::size_t retarget_cache_size() const noexcept {
    return backend_->retarget_cache_size();
  }

  // Open an independent in-order submission lane.  Bank placement is
  // topology-aware (see stream::bank_set()); the handle stays valid for
  // the context's lifetime.  A non-zero sopts.ring_q opens a
  // ring-overridden (RNS limb) stream; it is validated here: odd prime,
  // full negacyclic support at the configured n, inside the backend's
  // modulus envelope.
  [[nodiscard]] runtime::stream stream(stream_options sopts = {});

  // The context-owned limb stream dedicated to one RNS limb prime
  // (created with {.ring_q = prime} on first use, then reused — so every
  // product of a multi-limb workload lands its limb i on the same lane and
  // topology-aware placement spreads limbs across channels).  Same
  // validation as stream() with an explicit ring_q.
  [[nodiscard]] runtime::stream rns_stream(u64 prime);

  // Legacy single-queue surface: validate and enqueue on the default
  // stream; throws std::invalid_argument on jobs the configured ring or
  // backend capabilities cannot execute.
  job_id submit(ntt_job j);
  job_id submit(polymul_job j);

  // Flush every stream: each non-empty queue becomes one dispatch group
  // handed to the scheduler; returns without blocking.
  void flush();
  // flush() + block until nothing is in flight and every bank claim is
  // released, so a flush right after it schedules on idle banks.
  // Unclaimed results stay retrievable afterwards.
  void sync();

  // Blocking retrieval; flushes the owning stream first if the job is
  // still queued.  wait() consumes the result.  Throws
  // std::out_of_range("... unknown job id") for ids never returned by
  // submit, std::out_of_range("... already claimed") for results retrieved
  // before, and job_failed_error (with the backend's message) when the
  // job's dispatch failed.
  [[nodiscard]] job_result wait(job_id id);
  // Non-blocking probe: the result if the job has completed or failed
  // (consuming it — inspect job_result::status), std::nullopt while it is
  // queued or in flight.  Does not flush.  Throws like wait() for unknown
  // or already-claimed ids.
  [[nodiscard]] std::optional<job_result> try_wait(job_id id);
  // Flush, drain, and return all unclaimed results in submission order
  // (failed jobs included, carrying status/error).
  [[nodiscard]] std::vector<job_result> wait_all();

 private:
  friend class runtime::stream;

  // Per-stream client state: policy, placement, and the pre-flush FIFO.
  struct stream_state {
    stream_options sopts;
    std::vector<unsigned> resources;
    std::vector<std::pair<job_id, job>> queue;
  };

  // One member group's share of a dispatch: the member (hints and
  // ref_vtime, for its stream and deadline) and the ids of its jobs, whose
  // outputs are [offset, offset + ids.size()) of the batch.
  struct member_slice {
    const dispatch_group* g = nullptr;
    std::vector<job_id> ids;
    std::size_t offset = 0;
  };

  void finish_construction();

  // Stream plumbing (called by the handle).  submit_on validates a job
  // against its stream's ring and the backend, then enqueues it.
  job_id submit_on(unsigned sid, job j);
  void flush_stream(unsigned sid);
  void close_stream(unsigned sid);
  [[nodiscard]] stream_state& state_of(unsigned sid);
  [[nodiscard]] const stream_state& state_of(unsigned sid) const;
  [[nodiscard]] std::vector<unsigned> auto_bank_set(unsigned sid) const;
  // Partition one stream's queue into a dispatch group (nullptr if empty).
  [[nodiscard]] std::shared_ptr<dispatch_group> build_group(unsigned sid);
  // Hand freshly built groups to the scheduler together — their jobs become
  // in flight, each counts into stats().groups — then schedule.
  void admit(std::vector<std::shared_ptr<dispatch_group>> groups);
  // Pull every runnable group off the scheduler and hand it to the pool.
  // Requires mu_.
  void kick_locked();

  // The stream a still-queued job sits on, if any.
  [[nodiscard]] std::optional<unsigned> queued_on(job_id id) const noexcept;

  // Run a claimed group (and its absorbed members) kind by kind, then
  // release its banks — or, for a budgeted solo group, yield them between
  // chunks and re-enqueue the remainder.
  void run_group(const std::shared_ptr<dispatch_group>& g);
  // One backend dispatch of one kind's jobs.
  batch_result dispatch(batch_kind kind, std::vector<job>&& jobs, const dispatch_hints& hints);

  // Account a finished dispatch once on the host's claim (the scheduler's
  // virtual timeline, the cumulative counters, one trace span per claimed
  // bank), then complete each slice's jobs with its member's deadline
  // judgement.  Throws, before any accounting, when the backend returned
  // the wrong number of outputs.
  void distribute(const dispatch_group& host, const std::vector<member_slice>& slices,
                  batch_result&& r, telemetry::trace_op op);
  // Fail every job of a dispatch that threw.
  void fail(const std::vector<member_slice>& slices, const std::string& what);

  runtime_options opts_;
  std::unique_ptr<backend> backend_;
  backend_caps caps_;
  // The on-array residency manager a banked backend consults on
  // ring-overridden dispatches; null for host backends (no banks) and when
  // disabled (operand_cache_entries == 0).  Built after caps_ — its bank
  // count comes from the capabilities.
  std::unique_ptr<residency_manager> resman_;
  // Client-thread state: per-stream queues and the id counters.  Only the
  // client thread mutates streams_ (always under smu_); smu_ exists so a
  // non-client observer (stats thread) reading pending()/open_streams()
  // sees a consistent map.  Never held while acquiring mu_.
  mutable std::mutex smu_;
  std::map<unsigned, stream_state> streams_;
  // Dedicated RNS limb streams, keyed by limb prime (lazily created).
  std::map<u64, unsigned> rns_streams_;
  unsigned next_stream_id_ = 1;
  job_id next_id_ = 1;
  // The unified instrument store (and the recorder when tracing is on).
  // The scheduler and the residency manager register their own
  // instruments; the context owns the nine runtime.* ones below, each
  // bound on the line that registers it and stable for the registry's
  // lifetime.
  telemetry::metrics_registry registry_;
  std::unique_ptr<telemetry::trace_recorder> recorder_;
  telemetry::counter& jobs_submitted_ = registry_.make_counter("runtime.jobs_submitted");
  telemetry::counter& jobs_completed_ = registry_.make_counter("runtime.jobs_completed");
  telemetry::counter& jobs_failed_ = registry_.make_counter("runtime.jobs_failed");
  telemetry::counter& groups_ = registry_.make_counter("runtime.groups");
  telemetry::counter& batches_ = registry_.make_counter("runtime.batches");
  telemetry::counter& waves_ = registry_.make_counter("runtime.waves");
  telemetry::gauge& wall_cycles_ = registry_.make_gauge("runtime.wall_cycles");  // makespan
  telemetry::counter& deadline_misses_ = registry_.make_counter("runtime.deadline_misses");
  telemetry::real_accum& energy_nj_ = registry_.make_real("runtime.energy_nj");
  // Shared state, guarded by mu_: completion map, in-flight set, and the
  // scheduler module (ready groups, bank claims, bank frontiers).
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;  // export_trace() waits on it too
  std::map<job_id, job_result> done_;
  std::set<job_id> in_flight_;
  // The extracted scheduling engine (src/runtime/scheduler.h); constructed
  // once the backend's bank map is known.  Every access is under mu_ except
  // stats()'s reads of its (atomic) counters.
  std::unique_ptr<scheduler> sched_;
  // Declared last: destroyed first, joining the workers (and finishing any
  // queued dispatch group) before the members those tasks reference go away.
  executor pool_;
};

}  // namespace bpntt::runtime

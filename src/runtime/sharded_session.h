// Sharded parallel Session: the same push API, spread across worker threads.
//
// The paper's pre-processing step (§3.1) partitions each component's stream
// by its group-by attribute precisely because groups never interact: a
// trend, window, graphlet or snapshot only ever involves events of one
// group. ShardedSession exploits that independence for parallelism: it
// hash-partitions incoming events by group-by key across
// RunConfig::num_shards worker shards, each running the unmodified
// single-threaded Session machinery over the subsequence of events whose
// groups it owns. Because a group's whole stream lands on one shard, every
// per-group result is bitwise identical to a single-threaded run — only the
// interleaving of emissions across groups differs.
//
// A drop-in superset of Session (src/runtime/session.h):
//   Result<std::unique_ptr<ShardedSession>> s =
//       ShardedSession::Open(plan, config, &sink);   // config.num_shards
//   s.value()->Push(event);                          // staged to one shard
//   s.value()->AdvanceTo(watermark);                 // flush + broadcast
//   RunMetrics m = s.value()->Close().value();       // join + merged metrics
//
// Mechanics (batch-granular end to end):
//  * Ingress: Push/PushBatch validate ordering once at the front, then
//    stage each event into its shard's staging buffer, so the per-event hot
//    path is a hash plus an append. A shard's staging goes to its bounded
//    SPSC ring (src/common/spsc_queue.h) as ONE batch message when it
//    reaches RunConfig::shard_batch_size, or when the front has run out of
//    input (the end of Push/PushBatch, or of a sequencer merge round) and
//    that shard's queue is empty. The rule decides per burst from what the
//    stream does, with no clock, timer or knob: in a burst the worker is
//    behind, its queue is busy and staging fills whole batches; in a lull
//    the worker is idle and each event goes out as soon as it is pushed.
//    Push checks only the shard it staged to (O(1) in the shard count);
//    PushBatch and the sequencer check every shard.
//    Watermarks, epochs, steals and Close flush all staging first (they are
//    barriers), so results never depend on where batches are cut. A full
//    queue applies backpressure by spinning the caller; idle workers park
//    on a condition variable with a timed wait. Consumed batch buffers are
//    recycled back to the producer through a second SPSC ring, so
//    steady-state ingest allocates nothing.
//  * Placement: events route to shards by group-by hash
//    (src/stream/shard_router.h), balanced by work stealing (below), which
//    is on by default at num_shards > 1. With no placement policy on
//    (work_stealing = false, or one shard), staging is exactly one hash
//    per event. Either policy — skew-aware first-sight placement
//    (RunConfig::shard_rebalance_threshold > 0) or work stealing — makes
//    the front keep ONE two-bucket sliding window of per-shard
//    staged-event counts, and both read it: a NEW group key
//    whose hash shard leads the least-loaded shard by more than the
//    threshold lands on the least-loaded shard instead, and pane-boundary
//    steals pick their victim and thief from the same counts. Placements
//    are router overrides. First-sight placements are sticky — with
//    rebalancing every seen key keeps its shard — so a group's whole
//    stream stays on one shard and per-group results and ordering are
//    unchanged; only steals move an established group, and they move its
//    state with it.
//  * Watermarks: AdvanceTo validates once, flushes staging, then broadcasts
//    the watermark to every shard so pane-aligned window closure happens on
//    all shards — including those that saw no recent events.
//  * Emissions: each shard buffers its emissions locally and publishes them
//    to a per-shard outbox at message boundaries (batch/watermark/stop);
//    the caller thread fans them in to the user sink during subsequent
//    Push/PushBatch/AdvanceTo calls and at Close. No cross-shard lock
//    exists on the emission path, every OnEmission call happens on the
//    caller thread, and per-group emissions arrive in window order
//    (cross-group interleaving is unspecified). Any single-threaded sink
//    works unmodified — including thread-local-keyed ones, which the old
//    worker-side serialized delivery broke.
//  * Metrics: Close() joins the workers and merges per-shard RunMetrics via
//    MergeRunMetrics — counters sum, latency max/avg combine, elapsed is
//    the max, and throughput is recomputed from merged events / elapsed
//    (shards overlap in time, so rates never sum). Merged peak memory is a
//    sampled CONCURRENT high-water mark: workers publish their current
//    footprint, the front samples the sum at flush boundaries, and the
//    result is max(samples, max per-shard peak) — never the sum of
//    per-shard peaks, which overstates the concurrent footprint when
//    shards peak at different times. The ingress layer also reports a
//    batch-size histogram, the max queue depth, per-shard event counts and
//    the rebalanced-key count (RunMetrics ingress fields). Count fields
//    are deterministic for a fixed shard count; the sampled peak is not.
//
//  * Query churn + plan swaps: the session has ONE control plane
//    (src/runtime/control_plane.h), on the front; shard sessions have none
//    and compile nothing. It validates and compiles each AddQuery/
//    RemoveQuery, plan swap (explicit, or from its online re-optimizer)
//    and drained-query drop once, into an immutable plan epoch with ONE
//    pane-aligned activation boundary — computed from the front gate, which
//    has seen every event. The front flushes all staging (the epoch is a
//    barrier in stream order) and sends the same epoch to every shard in
//    one message, so every shard hands its open windows to it at the
//    identical boundary and the union of shard emissions stays
//    bit-identical to a single-threaded session; a rejected op touches no
//    shard. A drop goes out before any event or watermark at or past its
//    boundary is staged. A shard that saw no event since an earlier op
//    keeps that op's pending epoch and hands off at each boundary in turn.
//    The front's own pane grid (steal boundaries, router drains) is the
//    control plane's running epoch's. The re-optimizer reads the shards'
//    merged MetricsSnapshot statistics, on the plain Session's cadence.
//    Worker snapshots lag under sustained load, so an explicit AdvanceTo
//    doubles as the re-optimizer's synchronization checkpoint: each worker
//    publishes fresh metrics before acknowledging the watermark and the
//    re-optimizing front waits for all acknowledgements, guaranteeing that
//    every drift check after a watermark sees statistics covering the
//    whole stream before it (only paid when reoptimize_every_panes > 0).
//    With RunConfig::evict_idle_groups, AdvanceTo also drains router
//    override entries (placed or stolen keys) whose groups' windows have
//    provably all closed (cutoff = current pane boundary minus the largest
//    WITHIN ever compiled), and Close broadcasts a final watermark carrying
//    the front's max seen time before stop so every shard's eviction
//    horizon matches the single-threaded reference during the final flush.
//
//  * Concurrent ingest (AddProducer): N producer threads may ingest
//    concurrently through per-producer handles instead of the single
//    front thread. Each Producer owns a private SPSC ring plus a published
//    lower bound inside an MpscIngestHub (src/common/mpsc_ingest.h); an
//    internal sequencer thread k-way-merges the rings back into ONE
//    time-ordered stream and becomes the front — it runs the same
//    gate/stage/flush machinery, so everything downstream of the merge is
//    identical to single-producer ingest and the emission SET is invariant
//    across producer counts. Per-producer watermarks (Producer::AdvanceTo)
//    merge through the hub frontier — min over producers of (buffered
//    front event, or published bound) — which the sequencer broadcasts as
//    the session watermark whenever it crosses a pane boundary. Producer
//    handles enforce their OWN ordering gates (each producer's stream must
//    be strictly increasing and respect the handle's admission bound, so a
//    late joiner cannot push below what was already broadcast);
//    cross-producer violations the handle gates cannot see — two producers
//    pushing the same timestamp — poison the session with a sticky error
//    instead of feeding engines a misordered stream. Once AddProducer is
//    called, session-level Push/PushBatch/AdvanceTo and query churn return
//    kFailedPrecondition for the session's lifetime (one ingest mode per
//    session), and sink emissions are delivered on the sequencer thread.
//    Close requires every producer handle closed first, and returns the
//    poison status on a poisoned session. Producers may join and leave
//    mid-stream (AddProducer / Producer::Close): the sequencer alone admits
//    a joiner, between merge rounds, above everything released or
//    broadcast, and retires a departed handle once it drained its ring.
//  * Pane-boundary work stealing (RunConfig::work_stealing, on by
//    default): balances what the hash leaves skewed — a few hot groups on
//    one shard, or a group that becomes hot after placement (rebalancing
//    only places NEW keys). The front tracks per-group staged-event loads
//    next to the placement window's per-shard ones; when an event-time pane
//    crossing finds the max-loaded shard above steal_imbalance_ratio x the
//    min-loaded shard plus a floor, whole established groups move at that
//    pane boundary B. Groups never interact (§3.1), so at B a group's whole
//    state is its GroupRunners: the router reassigns the key, and the front
//    sends, back to back, a DETACH to the victim and an ATTACH to the
//    thief, both carrying one hand-off cell. The victim advances panes to
//    B, takes the key's runners out of its Session (HAMLET engine, open
//    windows and per-window engines alike) and fills the cell; the thief
//    advances panes to B, blocks until the cell is full and installs the
//    runners. The front never waits, so the steals of one boundary
//    pipeline. No wait can deadlock: an attach waits only for a detach
//    queued earlier, and whatever the victim meets before that detach
//    belongs to an earlier steal, so chains of waits strictly shrink in
//    steal order. Every event of the key before B reached the victim before
//    the detach and every later one goes to the thief, so no event is
//    processed twice (RunMetrics::duplicated_events stays 0). Every steal
//    decision derives from the event stream alone — never wall-clock or
//    watermark arrival timing — so emissions stay bit-identical across
//    producer counts and stealing on/off, for a fixed shard count.
//    RunMetrics::stolen_panes counts executed migrations. Without
//    rebalancing the router keeps an override only for keys a steal left
//    off their hash shard, so key churn cannot grow the map. Every plan
//    epoch (churn op, plan swap or drop) reaches the victim and the thief
//    in the same stream order, so both run the same plan epoch at every
//    steal boundary. With evict_idle_groups, both shards treat B as
//    observed stream time, so idle groups evict at B as in a
//    single-threaded run; a key evicted before its steal moves nothing and
//    the thief recreates it fresh, and a stolen key's override drains once
//    the key has been idle past every WITHIN.
//
// Threading contract: Open/Push/PushBatch/AdvanceTo/AddQuery/RemoveQuery/
// ApplySharingOverrides/Close must all be called from one thread at a
// time (single producer — matching the SPSC ingress).
// AddProducer may be called from any thread; each Producer handle is
// single-threaded, but DIFFERENT handles may run on different threads
// concurrently — that is the point of the hub. MetricsSnapshot may be
// called concurrently with pushes from any mode.
//
// The contract is statically checked (Clang Thread Safety Analysis, see
// src/common/mutex.h and docs/STATIC_ANALYSIS.md): `front_role_` is the
// capability of "the front thread" — held by the caller in single-producer
// mode and by the sequencer in multi-producer mode — and every front-state
// field below is HAMLET_GUARDED_BY it; the per-shard mutexes in Shard guard
// the worker<->front hand-off state. A build with HAMLET_THREAD_SAFETY=ON
// rejects any new code path that touches front state without the role or
// shard hand-off state without its lock.
//
// Requirement: all exec queries in the plan must share one group-by
// attribute (true for every paper workload; Definition 5 gives it per
// component). Open returns kUnsupported for num_shards > 1 otherwise,
// since a consistent event->shard route would not exist.
#ifndef HAMLET_RUNTIME_SHARDED_SESSION_H_
#define HAMLET_RUNTIME_SHARDED_SESSION_H_

#include <atomic>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/mpsc_ingest.h"
#include "src/common/mutex.h"
#include "src/common/thread.h"
#include "src/runtime/control_plane.h"
#include "src/runtime/session.h"
#include "src/stream/shard_router.h"

namespace hamlet {

/// See file comment. The plan must outlive the session; the sink (if any)
/// must outlive every Push/AdvanceTo/Close call.
class ShardedSession {
 public:
  /// Validates `config` (including num_shards/shard_queue_capacity/
  /// shard_batch_size), builds one Session per shard and starts the
  /// workers. `sink` may be nullptr to drop emissions; otherwise it
  /// receives OnEmission calls on the caller thread (see file comment,
  /// "Emissions").
  static Result<std::unique_ptr<ShardedSession>> Open(
      const WorkloadPlan& plan, const RunConfig& config, EmissionSink* sink);

  /// The pure-hash event->shard map Open derives from the plan, without
  /// building a session. Fails exactly when Open would: invalid
  /// num_shards, or num_shards > 1 on a plan whose exec queries mix
  /// group-by attributes.
  static Result<ShardRouter> RouterFor(const WorkloadPlan& plan,
                                       int num_shards);

  /// Stops and joins the workers (an implicit Close when still open;
  /// the metrics of an implicit Close are discarded, its emissions are
  /// still delivered).
  ~ShardedSession();

  ShardedSession(const ShardedSession&) = delete;
  ShardedSession& operator=(const ShardedSession&) = delete;

  /// Same contract as Session::Push: strictly increasing event times, never
  /// behind the last watermark; violations return kInvalidArgument naming
  /// the offending timestamp. After Close: kFailedPrecondition. A valid
  /// event is staged to the shard owning its group; the staging buffer is
  /// enqueued when it reaches shard_batch_size or when that shard's queue
  /// is empty (backpressure blocks here when that shard's queue is full).
  Status Push(const Event& event);

  /// Ingests a time-ordered batch; stops at the first invalid event.
  Status PushBatch(std::span<const Event> events);

  /// One concurrent-ingest handle (see file comment, "Concurrent
  /// ingest"). Single-threaded per handle; different handles may push from
  /// different threads concurrently. The handle must be closed (or
  /// destroyed) before the session's Close, and must not outlive the
  /// session.
  class Producer {
   public:
    /// Closes the handle if still open (closure status is discarded —
    /// close explicitly to observe it).
    ~Producer();

    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;

    /// Same per-stream contract as Session::Push, enforced per producer:
    /// this handle's event times must strictly increase, never regress
    /// behind its own watermark, and start at or after the handle's
    /// admission bound (above every released event and every broadcast
    /// watermark at AddProducer time — older events are already merged
    /// past). Blocks while the handle's ring is full (the sequencer is
    /// draining it). Returns the session's sticky poison error after a
    /// cross-producer ordering violation.
    Status Push(const Event& event);

    /// Push for each event, stopping at the first invalid one.
    Status PushBatch(std::span<const Event> events);

    /// Per-producer watermark: promises this handle will never push an
    /// event with time < `watermark`. The session watermark is the MERGED
    /// frontier over all producers, so one lagging producer holds
    /// everyone's window closure back until it advances (or closes).
    Status AdvanceTo(Timestamp watermark);

    /// Retires the handle without blocking: the sequencer drains what it
    /// pushed, then the merged frontier no longer waits on it. Idempotent-
    /// ish: a second Close returns kFailedPrecondition.
    Status Close();

   private:
    friend class ShardedSession;
    Producer(ShardedSession* owner, int slot) : owner_(owner), slot_(slot) {}

    ShardedSession* owner_;
    int slot_;
    OrderingGate gate_;
    bool closed_ = false;
  };

  /// Opens a concurrent-ingest handle, switching the session to
  /// multi-producer mode for good on first call (rejected once any
  /// session-level Push/AdvanceTo committed — one ingest mode per
  /// session). Callable from any thread, concurrently with other
  /// producers' traffic — this is how producers join mid-stream — and
  /// from a sink's OnEmission. Returns once the sequencer has admitted the
  /// handle. Fails with kResourceExhausted when all
  /// MpscIngestHub::kMaxProducers slots are held by open handles or by
  /// closed ones the sequencer has not drained yet.
  Result<std::unique_ptr<Producer>> AddProducer();

  /// Validates the watermark once, flushes all staged events, then
  /// broadcasts it to every shard so all panes/windows ending at or before
  /// it close. Same contract as Session::AdvanceTo. Also the checkpoint at
  /// which stale router overrides drain, and — when online
  /// re-optimization is enabled — the barrier at which the front waits for
  /// every shard's statistics before drift checks (see file comment).
  Status AdvanceTo(Timestamp watermark);

  /// Registers `query` on every shard at one shared pane-aligned activation
  /// boundary (returned). Same validation as Session::AddQuery — performed
  /// and compiled once, by the front's control plane.
  Result<Timestamp> AddQuery(const Query& query);

  /// Deactivates `name` on every shard at one shared pane boundary; its
  /// windows open there run to completion and emit.
  Result<Timestamp> RemoveQuery(const std::string& name);

  /// Hot-swaps the sharing plan (unchanged query set) on every shard — the
  /// broadcast the front's online re-optimizer uses, exposed for tests and
  /// manual plan pinning.
  Result<Timestamp> ApplySharingOverrides(
      std::span<const SharingOverride> overrides);

  /// The front re-optimizer's decision log (empty when
  /// RunConfig::reoptimize_every_panes == 0).
  const std::vector<ReoptDecision>& reopt_log() const {
    return control_->reopt_log();
  }

  /// Flushes staging, sends stop to every shard, joins the workers,
  /// delivers all remaining emissions to the sink, and returns the merged
  /// final metrics — or, on a poisoned session, the poison status (after
  /// the same shutdown). A second Close returns kFailedPrecondition (the
  /// first call's metrics remain available through MetricsSnapshot).
  Result<RunMetrics> Close();

  /// Merged metrics over what the shards have processed so far (staged or
  /// queued but unprocessed events are not yet counted). Safe to call while
  /// pushing.
  RunMetrics MetricsSnapshot() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The session's event->shard map: RouterFor's hash plus the overrides
  /// placement wrote so far. Front thread only.
  const ShardRouter& router() const { return router_; }

 private:
  struct Shard;

  ShardedSession() = default;

  /// Broadcasts a successful control-plane op; returns its boundary.
  Result<Timestamp> Apply(const Result<QueryLifecycle::Scheduled>& op)
      HAMLET_REQUIRES(front_role_);
  /// Flushes staging and sends the epoch to every shard in one message
  /// each, to take over at its boundary.
  void Broadcast(const QueryLifecycle::Scheduled& next)
      HAMLET_REQUIRES(front_role_);
  /// Tells the control plane that stream time reached `time` and
  /// broadcasts the drops it compiles, before anything at `time` is staged.
  void SyncControl(Timestamp time) HAMLET_REQUIRES(front_role_);
  /// Runs the control plane's re-optimization check when one is due, on
  /// the shards' merged statistics, and broadcasts the swap it asks for.
  void MaybeReoptimize() HAMLET_REQUIRES(front_role_);
  /// Pane size of the control plane's running epoch: the grid steal
  /// boundaries and router drains are computed on.
  Timestamp PaneSize() const { return control_->running()->plan->pane_size; }
  /// Drains router overrides — first-sight placements and steals alike —
  /// whose groups can no longer have open windows anywhere (requires
  /// evict_idle_groups — the group's engine state is then also gone from
  /// its shard, so a re-appearing key may re-route freely).
  void MaybeDrainRouter() HAMLET_REQUIRES(front_role_);

  /// Body of AdvanceTo after the closed/mode checks — shared with the
  /// sequencer's frontier broadcasts, which are ordinary watermarks.
  Status AdvanceToInternal(Timestamp watermark) HAMLET_REQUIRES(front_role_);
  /// Churn rejection after Close and in multi-producer mode.
  Status ChurnGuard(const char* op) const;
  /// The front gate plus CheckGroupKeys over group_by_attrs_.
  Status CheckEvent(const Event& event) const HAMLET_REQUIRES(front_role_);
  const Schema& schema() const { return *plan_->workload->schema(); }

  // --- multi-producer ingest (sequencer thread) ---
  /// The sequencer: drains the hub's merge until stuck, broadcasts the
  /// frontier at pane crossings, exits on seq_stop_ after a final drain.
  void SequencerLoop();
  /// Front-side handling of one merged event: gate (poison on
  /// cross-producer violations), stage, re-optimize, drain — the
  /// sequencer's equivalent of Push's body.
  void IngestReleased(const Event& event) HAMLET_REQUIRES(front_role_);
  /// Broadcasts the hub frontier as a session watermark when it crossed a
  /// pane boundary since the last broadcast.
  void MaybeBroadcastFrontier() HAMLET_REQUIRES(front_role_);
  /// Admits the hub's requested handles at or above everything released
  /// or broadcast so far (the sequencer, or the thread that is the front
  /// before the sequencer starts).
  void AdmitRequested() HAMLET_REQUIRES(front_role_);
  void StopSequencer();
  /// Sticky cross-producer ordering error (set once, then returned by
  /// every producer call).
  void Poison(Status status) HAMLET_EXCLUDES(producer_mu_);
  Status PoisonStatus() HAMLET_EXCLUDES(producer_mu_);

  // --- shard placement (front/sequencer thread) ---
  /// The first-sight rule for a key the router just bound to its hash
  /// shard: keep it there, or move it to the least-loaded shard when the
  /// hash shard leads that one by more than the threshold. Returns the
  /// key's shard.
  size_t PlaceNewKey(int64_t key, size_t hash_shard, Timestamp time)
      HAMLET_REQUIRES(front_role_);
  /// Steal-trigger evaluation at event-time pane boundary `boundary`:
  /// executes up to kMaxStealsPerBoundary migrations while the load
  /// imbalance persists and a candidate key improves it.
  void MaybeSteal(Timestamp boundary) HAMLET_REQUIRES(front_role_);
  /// One migration: reassign the key, then send the victim its detach and
  /// the thief its attach, back to back, sharing one hand-off cell.
  void ExecuteSteal(int64_t key, size_t victim, size_t thief,
                    Timestamp boundary) HAMLET_REQUIRES(front_role_);
  /// Rolls the two-bucket sliding load window (per shard and per key).
  void RollLoadWindow() HAMLET_REQUIRES(front_role_);
  /// Mirrors the router's override count into route_map_size_.
  void PublishMapSize() HAMLET_REQUIRES(front_role_);

  /// Routes one event (hash, or override map + first-sight rule + window
  /// update when a placement policy is on) and stages it. Returns the shard
  /// it was staged to.
  Shard& StageEvent(const Event& event) HAMLET_REQUIRES(front_role_);
  /// The single-shard tail of StageEvent: append to `shard`'s staging
  /// buffer and flush at shard_batch_size.
  void StageTo(Shard& shard, const Event& event) HAMLET_REQUIRES(front_role_);
  /// Hands the shard's staged events to its queue as one batch message.
  void FlushShard(Shard& shard) HAMLET_REQUIRES(front_role_);
  void FlushAllShards() HAMLET_REQUIRES(front_role_);
  /// The out-of-input rule: flushes `shard`'s staging when its queue is
  /// empty (the worker has taken every message).
  void FlushIfIdle(Shard& shard) HAMLET_REQUIRES(front_role_);
  void FlushIdleShards() HAMLET_REQUIRES(front_role_);
  /// Samples the sum of worker-published current footprints into
  /// mem_high_water_ (called every kMemSampleEveryFlushes staging flushes —
  /// cheap, amortized even at batch size 1).
  void SampleConcurrentMemory() HAMLET_REQUIRES(front_role_);
  /// Fills the merged metrics' ingress fields (batch histogram, queue
  /// depth, per-shard events, rebalanced keys, concurrent peak).
  void FillIngressMetrics(RunMetrics& merged) const;
  /// Fans shard outboxes in to the user sink (caller thread only).
  void DrainEmissions() HAMLET_REQUIRES(front_role_);
  static void WorkerLoop(Shard* shard);

  /// THE front capability (see the threading contract above): held by the
  /// caller thread in single-producer mode, by the sequencer thread in
  /// multi-producer mode, and by Open until it returns. Public entry points
  /// acquire it with a ThreadRoleGuard (zero-cost — the capability is
  /// phantom); private helpers declare HAMLET_REQUIRES(front_role_).
  /// Mutable so const snapshots of role-guarded state could acquire it if
  /// ever needed (mirrors the usual mutable-mutex idiom).
  mutable ThreadRole front_role_;

  /// Set once by Open, read-only afterwards (any thread).
  const WorkloadPlan* plan_ = nullptr;
  RunConfig config_;
  EmissionSink* sink_ = nullptr;
  /// Front-thread state (placement writes its overrides), left unannotated
  /// only because router() hands front-thread callers a const view.
  /// Monitor threads read the placement counters from the atomics below,
  /// never the router.
  ShardRouter router_;
  /// The session's one control plane (shards have none), created by Open
  /// and never replaced. Front-mutated, but NOT role-guarded: monitor
  /// threads read its counters (atomics) through MetricsSnapshot, producer
  /// handles read its group-by attributes (churn is rejected once
  /// producers exist, so they no longer change), and reopt_log() is a
  /// post-Close/test accessor. All *mutating* uses sit behind
  /// HAMLET_REQUIRES(front_role_) helpers.
  std::unique_ptr<ControlPlane> control_;
  /// Largest WITHIN across every epoch ever compiled (a removed query's
  /// windows may still be open) — the router-drain safety margin.
  Timestamp within_high_water_ HAMLET_GUARDED_BY(front_role_) = 0;
  /// The vector itself is frozen by Open (workers receive raw Shard*);
  /// mutable cross-thread state lives INSIDE Shard behind its own locks.
  std::vector<std::unique_ptr<Shard>> shards_;
  OrderingGate gate_ HAMLET_GUARDED_BY(front_role_);
  /// Reused scratch for DrainEmissions, so steady-state fan-in allocates
  /// nothing.
  std::vector<Emission> drain_scratch_ HAMLET_GUARDED_BY(front_role_);
  /// Reentrancy guard: a sink that calls Push/AdvanceTo from OnEmission
  /// recurses into DrainEmissions while drain_scratch_ is mid-iteration;
  /// the nested drain must no-op (its emissions leave on the next drain).
  bool draining_ HAMLET_GUARDED_BY(front_role_) = false;
  /// Set by any worker publishing to its outbox, cleared by the front when
  /// it drains: the per-push "anything to drain?" check is one load
  /// regardless of shard count.
  std::atomic<bool> any_outbox_ready_{false};
  /// Atomic (release on Close, acquire in MetricsSnapshot) so a monitor
  /// thread polling MetricsSnapshot during Close sees final_metrics_ fully
  /// written, never a half-merged value.
  std::atomic<bool> closed_{false};
  /// Published through closed_'s release/acquire pair above — a
  /// write-once-then-read hand-off TSA has no vocabulary for, so it stays
  /// unannotated on purpose (the publication comment IS the contract).
  RunMetrics final_metrics_;
  /// Largest observed sum of simultaneous per-shard footprints (see
  /// SampleConcurrentMemory). Atomic so MetricsSnapshot may read it from a
  /// monitor thread while the front samples.
  std::atomic<int64_t> mem_high_water_{0};
  /// Front-thread throttle for SampleConcurrentMemory.
  int flushes_since_mem_sample_ HAMLET_GUARDED_BY(front_role_) = 0;

  // --- multi-producer ingest state ---
  /// Created once by the first AddProducer (under producer_mu_, before
  /// mp_mode_'s release store publishes it); producers and the sequencer
  /// then read the pointer lock-free. Init-once publication is another
  /// pattern TSA cannot express — the hub's own API is the thread-safe
  /// surface, so the pointer stays unannotated.
  std::unique_ptr<MpscIngestHub<Event>> hub_;
  /// Spawned with hub_ under producer_mu_, after the first handle is
  /// admitted; joined only by Close/~ after every producer handle closed.
  /// NOT guarded by producer_mu_: the sequencer itself takes producer_mu_
  /// in Poison(), so a join under the lock could deadlock — the join-side
  /// exclusivity comes from the single-front Close contract instead.
  Thread sequencer_;
  std::atomic<bool> seq_stop_{false};
  /// Sticky: once true, session-level ingest entry points are rejected.
  std::atomic<bool> mp_mode_{false};
  /// Guards AddProducer's one-time switch and poison_status_.
  Mutex producer_mu_;
  Status poison_status_ HAMLET_GUARDED_BY(producer_mu_);
  std::atomic<bool> poisoned_{false};   ///< lock-free "is poisoned" hint
  /// Largest pane boundary the sequencer has broadcast the frontier at.
  Timestamp last_frontier_pane_ HAMLET_GUARDED_BY(front_role_) = -1;

  // --- shard placement state (front-role state, except the atomic
  // counters) ---
  /// Set by Open, read-only afterwards; both are off at one shard, where
  /// staging is then one hash per event with no load bookkeeping.
  /// rebalance_threshold_ 0 disables first-sight placement.
  int64_t rebalance_threshold_ = 0;
  bool stealing_ = false;
  /// Two-bucket sliding window of per-shard staged-event counts, kept
  /// while either placement policy is on.
  std::vector<int64_t> load_cur_ HAMLET_GUARDED_BY(front_role_);
  std::vector<int64_t> load_prev_ HAMLET_GUARDED_BY(front_role_);
  int64_t in_window_ HAMLET_GUARDED_BY(front_role_) = 0;
  struct KeyLoad {
    int64_t cur = 0;
    int64_t prev = 0;
  };
  /// Per-group-key staged-event counts over the same window (stealing
  /// only); entries idle for two half-windows drop out, bounding the map
  /// by active keys.
  std::unordered_map<int64_t, KeyLoad> key_load_
      HAMLET_GUARDED_BY(front_role_);
  /// Placement counters (RunMetrics::rebalanced_keys /
  /// rebalance_map_size). Atomic so a monitor thread's MetricsSnapshot may
  /// read them while the front routes.
  std::atomic<int64_t> rebalanced_keys_{0};
  std::atomic<int64_t> route_map_size_{0};
  /// Pane of the last staged event — steal triggers fire exactly when this
  /// advances (event-time pane crossings; never watermark-driven, which
  /// would be nondeterministic across producer counts).
  Timestamp last_staged_pane_ HAMLET_GUARDED_BY(front_role_) = 0;
  bool staged_any_ HAMLET_GUARDED_BY(front_role_) = false;
  /// Executed migrations (RunMetrics::stolen_panes). Atomic so a monitor
  /// thread's MetricsSnapshot may read it while the front steals.
  std::atomic<int64_t> stolen_panes_{0};
};

}  // namespace hamlet

#endif  // HAMLET_RUNTIME_SHARDED_SESSION_H_

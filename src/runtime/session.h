// Push-based streaming session: the runtime's one entry point, at every
// shard count.
//
// A Session evaluates a compiled workload incrementally: callers push events
// (singly or in batches) as they arrive, and every query result is delivered
// to a pluggable EmissionSink once its window closes — no O(stream) input
// buffer and no grow-forever output buffer on the hot path. The batch
// StreamExecutor::Run in src/runtime/executor.h is a thin wrapper over this
// class with a CollectingSink.
//
//   Result<std::unique_ptr<Session>> s = Session::Open(plan, config, &sink);
//   s.value()->Push(event);              // or PushBatch(span)
//   s.value()->AdvanceTo(watermark);     // force window closure, no event
//   RunMetrics m = s.value()->Close().value();  // final flush + metrics
//
// After Close, every entry point (including a second Close) returns
// kFailedPrecondition instead of relying on caller discipline.
//
// The paper's pre-processing step (§3.1) partitions each component's stream
// by its group-by attribute precisely because groups never interact: a
// trend, window, graphlet or snapshot only ever involves events of one
// group. The session hash-partitions incoming events by group-by key across
// RunConfig::num_shards shards, each running one ShardEngine
// (src/runtime/shard_engine.h: panes, windows, engine dispatch, hand-off)
// over the subsequence of events whose groups it owns. Because a group's
// whole stream lands on one shard, every per-group result is bitwise
// identical at every shard count — only the interleaving of emissions
// across groups differs. The shard count is a setting, not a second API:
// this class is the front for all of them. It owns the ordering gate and
// the group-key checks, the one control plane, producers and sequencer,
// placement and stealing, emission fan-in and metrics.
//
// Mechanics:
//  * One shard runs inline: the front calls its engine on the front thread
//    (the caller, or the sequencer once producers exist). There is no
//    worker thread, ring or per-event copy: Push/PushBatch commit the valid
//    prefix at the gate, bring the control plane up to date and hand the
//    caller's span straight to the engine; the sequencer hands it the
//    events of one merge round (at most 128) per call.
//    The contracts are the multi-shard ones: emissions are buffered during
//    the engine call and delivered after it returns, so a sink may call
//    back into the session, and MetricsSnapshot is safe from any thread
//    (the front holds engine_mu_ only across engine calls), exact at call
//    boundaries.
//  * Ingress at more than one shard: Push/PushBatch validate ordering once at
//    the front, then write each event straight into its shard's bounded
//    SPSC event ring (src/common/spsc_queue.h), so the per-event hot path is
//    a hash plus a slot copy. Watermarks, epochs, steals and stop travel on
//    a small second ring per shard, each stamped with the number of events
//    pushed to that shard before it. The worker hands its engine every
//    ready event up to the next control message's stamp in one call (two at
//    a ring wrap), then applies that message. So batches form from the
//    worker's backlog: in a burst the worker is behind and each call takes
//    hundreds of events; in a lull it is idle and takes each event as it is
//    published. Every published event is ready, so none waits for a later
//    push or barrier, and results never depend on where batches are cut.
//    Idle workers park on a condition variable with a timed wait; the front
//    checks for them once per call, never per event: Push on the shard it
//    wrote to, PushBatch on every shard (each check is a seq_cst
//    read-modify-write). A full ring wakes its worker and the front
//    sleeps, with a doubling interval, until half of it is free.
//  * Placement: events route to shards by group-by hash
//    (src/stream/shard_router.h), balanced by work stealing (below), which
//    is on by default at num_shards > 1. With stealing off
//    (work_stealing = false, or one shard), routing is exactly one hash
//    per event. With it on, the front keeps a two-bucket sliding window of
//    per-shard and per-key staged-event counts, and pane-boundary steals
//    pick their victim, thief and key from it. A stolen key is a router
//    override (dropped again when a steal moves the key back to its hash
//    shard); every other key routes by hash. A group's stream stays on
//    one shard between steals, so per-group results and ordering are
//    unchanged, and a steal moves the group's state with it.
//  * Watermarks: AdvanceTo validates once, then broadcasts the watermark,
//    stamped behind every event already pushed, to every shard so pane-aligned window closure happens on
//    all shards — including those that saw no recent events.
//  * Emissions: each shard buffers its emissions locally and publishes them
//    to a per-shard outbox after each engine call and control message;
//    the caller thread fans them in to the user sink during subsequent
//    Push/PushBatch/AdvanceTo calls and at Close. No cross-shard lock
//    exists on the emission path, every OnEmission call happens on the
//    caller thread, and per-group emissions arrive in window order
//    (cross-group interleaving is unspecified). Any single-threaded sink
//    works unmodified — including thread-local-keyed ones, which the old
//    worker-side serialized delivery broke.
//  * Metrics: Close() joins the workers and merges per-shard RunMetrics via
//    MergeRunMetrics — counters sum, latency max/avg combine, elapsed (a
//    shard's busy time: its worker's engine calls, or at one shard the
//    front's whole calls from the gate commit through the re-optimization
//    check, emission delivery excluded) is the max, and throughput is
//    recomputed from merged events / elapsed (shards overlap in time, so
//    rates never sum). Merged peak memory is a sampled CONCURRENT
//    high-water mark: workers publish their current
//    footprint, the front samples the sum every few calls, and the
//    result is max(samples, max per-shard peak) — never the sum of
//    per-shard peaks, which overstates the concurrent footprint when
//    shards peak at different times. The ingress layer also reports a
//    batch-size histogram, the max queue depth, per-shard event counts and
//    the override-map size (RunMetrics ingress fields). Count fields
//    are deterministic for a fixed shard count; the sampled peak is not.
//
//  * Query churn + plan swaps: the session has ONE control plane
//    (src/runtime/control_plane.h), on the front; shard engines have none
//    and compile nothing. It validates and compiles each AddQuery/
//    RemoveQuery, plan swap (explicit, or from its online re-optimizer)
//    and drained-query drop once, into an immutable plan epoch with ONE
//    pane-aligned activation boundary — computed from the front gate, which
//    has seen every event. The front sends the same epoch to every shard in
//    one control message, stamped behind every event pushed before it (the
//    epoch is a barrier in stream order), so every shard hands its open windows to it at the
//    identical boundary and the union of shard emissions stays
//    bit-identical to a 1-shard session; a rejected op touches no shard.
//    A drop goes out before any event or watermark at or past its
//    boundary is staged. A shard that saw no event since an earlier op
//    keeps that op's pending epoch and hands off at each boundary in turn.
//    The front's own pane grid (steal boundaries, router drains) is the
//    control plane's running epoch's. The re-optimizer reads the shards'
//    merged MetricsSnapshot statistics (exact at one shard), on one cadence
//    at every shard count.
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
//    horizon matches the 1-shard reference during the final flush.
//
//  * Concurrent ingest (AddProducer): N producer threads may ingest
//    concurrently through per-producer handles instead of the single
//    front thread. Each Producer owns a private SPSC ring plus a published
//    lower bound inside an MpscIngestHub (src/common/mpsc_ingest.h); an
//    internal sequencer thread k-way-merges the rings back into ONE
//    time-ordered stream and becomes the front — it runs the same
//    gate and ring machinery, so everything downstream of the merge is
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
//    one shard, or a group that becomes hot later. The front tracks
//    per-group staged-event loads next to the per-shard ones; when an
//    event-time pane crossing finds the max-loaded shard above
//    steal_imbalance_ratio x the min-loaded shard plus a floor, whole
//    established groups move at that pane boundary B. Groups never
//    interact (§3.1), so at B a group's whole state is its GroupRunners:
//    the router reassigns the key, and the front sends, back to back, a
//    DETACH to the victim and an ATTACH to the thief, both carrying one
//    hand-off cell. The victim advances panes to
//    B, takes the key's runners out of its engine (HAMLET engine, open
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
//    RunMetrics::stolen_panes counts executed migrations. The router keeps
//    an override only for keys a steal left off their hash shard, so key
//    churn cannot grow the map. Every plan epoch (churn op, plan swap or
//    drop) reaches the victim and the thief in the same stream order, so
//    both run the same plan epoch at every steal boundary. With
//    evict_idle_groups, both shards treat B as observed stream time, so
//    idle groups evict at B as in a 1-shard run; a key evicted before its
//    steal moves nothing and the thief recreates it fresh, and a stolen
//    key's override drains once the key has been idle past every WITHIN.
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
// field below is HAMLET_GUARDED_BY it; the inline engine at one shard is
// guarded by engine_mu_, and the per-shard mutexes in Shard guard the
// worker<->front hand-off state. A build with HAMLET_THREAD_SAFETY=ON
// rejects any new code path that touches front state without the role or
// shard hand-off state without its lock.
//
// Requirement: all exec queries in the plan must share one group-by
// attribute (true for every paper workload; Definition 5 gives it per
// component). Open returns kUnsupported for num_shards > 1 otherwise,
// since a consistent event->shard route would not exist.
#ifndef HAMLET_RUNTIME_SESSION_H_
#define HAMLET_RUNTIME_SESSION_H_

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mpsc_ingest.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread.h"
#include "src/hamlet/batch_eval.h"
#include "src/optimizer/online_optimizer.h"
#include "src/optimizer/policies.h"
#include "src/query/columnar_predicate.h"
#include "src/runtime/query_lifecycle.h"
#include "src/stream/event_batch.h"
#include "src/stream/shard_router.h"

namespace hamlet {

class ControlPlane;

enum class EngineKind {
  kHamletDynamic,  ///< the paper's HAMLET: per-burst benefit decisions
  kHamletStatic,   ///< static optimizer: always share (Figs. 12/13 baseline)
  kHamletNoShare,  ///< HAMLET machinery, sharing disabled
  kGretaGraph,     ///< GRETA baseline, faithful O(n^2) graph mode
  kGretaPrefix,    ///< GRETA with running sums (tuned-baseline ablation)
  kTwoStep,        ///< MCEP-style construct-then-aggregate
  kSharon,         ///< SHARON-style fixed-length flattening
};

const char* EngineKindName(EngineKind kind);

struct RunConfig {
  EngineKind kind = EngineKind::kHamletDynamic;
  /// SHARON's provisioned longest-match length l. Must be >= 1.
  int sharon_max_length = 64;
  /// Two-step trend budget per window; exceeding it records a DNF.
  /// Must be > 0.
  int64_t two_step_budget = 20'000'000;
  /// The cost model of the dynamic policy and the online re-optimizer:
  /// kRuntime prices the engine's code per propagation mode; kSimple and
  /// kRefined are the paper's Definitions 11/12.
  CostModelVariant cost_variant = CostModelVariant::kRuntime;
  /// Shards of the Session: events are hash-partitioned by group-by key
  /// across this many engines, each on its own worker thread, and
  /// work_stealing rebalances the groups. One shard runs its engine inline
  /// on the front thread. Must be in [1, kMaxShards].
  int num_shards = 1;
  /// Per-shard ingress ring capacity, in events, before the front applies
  /// backpressure (a full ring wakes its worker and the front sleeps until
  /// half of it is free). Must be in [2, kMaxQueuedEventsPerShard]; rounded
  /// up to a power of two. A worker hands its engine every ready event in
  /// one call, so this also caps the batch an engine call gets. One shard
  /// has no ring and ignores it.
  int shard_queue_capacity = 8192;
  /// Online plan re-optimization cadence, in panes: every this many pane
  /// boundaries the session re-derives the cost-model inputs from live
  /// statistics (src/optimizer/online_optimizer.h), re-runs the pruned plan
  /// search, and hot-swaps the sharing plan at the next pane boundary when
  /// the observed cost drifts past reoptimize_threshold. 0 (default)
  /// freezes the plan chosen at Open. Requires a HAMLET engine kind with a
  /// sharing plan to act on (kHamletDynamic or kHamletStatic); each plan
  /// epoch compiles its own predicate program. The front's control
  /// plane re-optimizes and hands the swap to every shard, so all shards
  /// always run the identical plan.
  int reoptimize_every_panes = 0;
  /// Relative cost drift that triggers a plan swap: swap when
  /// (observed - best) / observed exceeds this. Must be > 0 — a zero or
  /// negative threshold would swap on every check and thrash epochs.
  /// Ignored while reoptimize_every_panes == 0.
  double reoptimize_threshold = 0.2;
  /// Evict a group's engine state once a pane boundary passes its last
  /// event by the component's largest WITHIN: all windows that could hold
  /// any of its events have closed, so the state can only produce
  /// empty-window results. Eviction therefore DROPS the zero-valued
  /// emissions idle groups would otherwise produce every slide — that is
  /// the (documented, opt-in) trade for bounded state under high group-key
  /// cardinality. Deterministic in event time, so runs at every shard
  /// count with the knob ON stay emission-identical; it is also the
  /// prerequisite for the front draining stale steal overrides
  /// (RunMetrics::rebalance_map_size).
  bool evict_idle_groups = false;
  /// Pane-boundary work stealing (on by default; set
  /// false to opt out into pure hash placement): when an existing group
  /// key's shard is overloaded (by more than steal_imbalance_ratio x the
  /// least-loaded shard over a sliding window of staged events), the front
  /// moves whole group keys to the least-loaded shard at the next
  /// event-time pane boundary. The key's group runners (HAMLET engine, open
  /// windows, per-window baseline engines) leave the victim's engine and
  /// join the thief's, and the key's events from the boundary on route to
  /// the thief; no event is processed twice, and the front never waits for
  /// the hand-off. This balances the few hot groups a hash puts on one
  /// shard, and the groups that become hot later. Steal decisions derive
  /// purely from the merged event stream, so emission sets stay
  /// bit-identical across stealing on/off, shard counts and producer
  /// counts. Combines with every other knob
  /// (see ValidateRunConfig / docs/API.md knob matrix); inert at one shard.
  bool work_stealing = true;
  /// Work-stealing trigger: steal when the hottest shard's windowed load
  /// exceeds this multiple of the coldest shard's (plus a small absolute
  /// floor, so near-idle streams never thrash). Must be > 1.0 — checked
  /// even while work_stealing is off, so flipping the knob on later can
  /// never trip a latent bad value. Ignored while work_stealing is false.
  double steal_imbalance_ratio = 2.0;
  /// Multi-producer ingest (Session::AddProducer): capacity, in events, of
  /// each producer's SPSC staging ring feeding the sequencer
  /// (src/common/mpsc_ingest.h). Must be >= 2; rounded up to a power of
  /// two. Session-level Push ignores it.
  int producer_queue_capacity = 16384;
  /// Test hook: overrides the monotonic wall clock (in seconds) used for
  /// latency attribution and busy-time accounting, so timing-sensitive
  /// tests run deterministically under sanitizer/CI load.
  /// Null (the default) uses MonotonicSeconds().
  std::function<double()> clock_override;
};

/// Upper bound on RunConfig::num_shards — far above any sane core count,
/// low enough to catch garbage (e.g. an uninitialized int) at Open.
inline constexpr int kMaxShards = 1024;

/// Upper bound on shard_queue_capacity, in events: the per-shard ring a
/// config may ask for (~320 MB at the 80-byte Event). Catches garbage
/// capacities at Open instead of at allocation.
inline constexpr int64_t kMaxQueuedEventsPerShard = int64_t{1} << 22;

/// Monotonic wall clock in seconds (steady_clock) — the default behind
/// RunConfig::clock_override, shared by the session and the benches so all
/// latency numbers are on one timebase.
double MonotonicSeconds();

/// Reads a session clock: the given override when set, MonotonicSeconds()
/// otherwise. The single dispatch point for RunConfig::clock_override, so
/// the front thread and the per-shard workers can never drift onto
/// different timebases.
double ClockNow(const std::function<double()>& override_fn);

/// Checks the config invariants documented above; Session::Open (and thus
/// Run) fails fast with kInvalidArgument instead of tripping deep inside an
/// engine.
Status ValidateRunConfig(const RunConfig& config);

/// One query result for one (group, window). Self-describing: carries the
/// window bounds and the query's name so sinks can render results without
/// holding the Workload.
struct Emission {
  QueryId query = -1;
  int64_t group_key = 0;
  Timestamp window_start = 0;
  Timestamp window_end = 0;
  double value = 0.0;
  std::string query_name;
};

/// Tracks the ingestion-side ordering contract of a Session and of each
/// producer handle: event times strictly increase, watermarks never regress,
/// and no event arrives behind a watermark. Check* report kInvalidArgument
/// naming the offending timestamp; Commit* record an accepted call.
class OrderingGate {
 public:
  Status CheckEvent(Timestamp event_time) const;
  void CommitEvent(Timestamp event_time) {
    last_event_time_ = event_time;
    has_event_ = true;
  }

  Status CheckWatermark(Timestamp watermark) const;
  void CommitWatermark(Timestamp watermark) {
    watermark_ = watermark;
    has_watermark_ = true;
  }

  /// True once any event or watermark was committed.
  bool any_seen() const { return has_event_ || has_watermark_; }
  /// Largest committed event time or watermark (0 before any_seen()).
  /// Query churn activates at the first pane boundary strictly after this.
  Timestamp max_seen() const {
    Timestamp m = has_event_ ? last_event_time_ : 0;
    if (has_watermark_ && watermark_ > m) m = watermark_;
    return m;
  }

 private:
  Timestamp last_event_time_ = 0;
  bool has_event_ = false;
  Timestamp watermark_ = 0;
  bool has_watermark_ = false;
};

/// Appends the group-by attributes of `plan`'s exec queries that `attrs`
/// does not hold yet.
void AddGroupByAttrs(const WorkloadPlan& plan, std::vector<AttrId>* attrs);

/// Checks that `event` carries a usable group key in each of `key_attrs`
/// it has: finite and inside int64 once rounded (the group key is the
/// rounded value). Otherwise kInvalidArgument naming the event's timestamp
/// and the attribute. Ingest runs it next to the OrderingGate, so a
/// rejected event leaves the session as an out-of-order one does.
Status CheckGroupKeys(const Event& event, std::span<const AttrId> key_attrs,
                      const Schema& schema);

struct RunMetrics {
  int64_t events = 0;
  int64_t emissions = 0;
  /// Busy time: at one shard the time spent inside session calls
  /// (push/advance/churn/close) minus emission delivery; at more shards the
  /// longest any worker spent inside its engine calls. Either way it
  /// excludes the caller's time between pushes, so streaming and batch
  /// ingestion report comparable engine throughput.
  double elapsed_seconds = 0.0;
  double avg_latency_seconds = 0.0;
  double max_latency_seconds = 0.0;
  double throughput_eps = 0.0;
  /// Peak engine-state footprint. Per engine (so at one shard): the exact
  /// high-water mark.
  /// Merged over shards: a sampled CONCURRENT high-water mark — the
  /// largest observed sum of simultaneous per-shard footprints, never the
  /// sum of per-shard peaks (shards peak at different times, so that sum
  /// overstated the concurrent footprint by up to the shard count).
  int64_t peak_memory_bytes = 0;
  /// Engine-state footprint at the time of the snapshot; per-shard workers
  /// publish it so the front can sample the concurrent sum.
  int64_t current_memory_bytes = 0;
  /// Two-step windows that exceeded the trend budget.
  int64_t dnf_windows = 0;
  /// Partial OR/AND composition entries discarded because their window
  /// closed with at least one branch never emitting (two-step DNF, SHARON
  /// unsupported queries). Nonzero values flag dropped composed results.
  int64_t evicted_compositions = 0;
  /// Aggregated HAMLET statistics (HAMLET kinds only).
  HamletStats hamlet;
  /// Sharing decisions taken (dynamic policy only).
  int64_t decisions = 0;
  /// Runs the pushed batches were cut into: same-type, same-pass-set,
  /// pane- and group-confined spans, each fed in one call to its group's
  /// runner in every component that reacts to its type, and counted once;
  /// every per-event Push is a 1-row run. Every event lies in one run, so
  /// events / runs is the mean run length the engines see.
  int64_t runs = 0;
  /// Histogram of dispatched run lengths: bucket i counts runs of length in
  /// [2^i, 2^(i+1)). Bucket 0 dominating means the stream interleaves types
  /// too finely for run propagation to pay; mass in higher buckets is the
  /// paper's bursty regime. Merged across shards by bucket-wise sum.
  std::vector<int64_t> run_len_hist;
  /// Sharded ingress (empty/0 at one shard, which has no ring):
  /// Histogram of the workers' engine calls by size: bucket i counts calls
  /// that handed the engine [2^i, 2^(i+1)) events from the shard's ring.
  /// The spread shows how often a worker took events as they came (small
  /// buckets, lulls) and how often a backlog formed (high buckets, bursts).
  std::vector<int64_t> shard_batch_hist;
  /// Deepest event backlog any shard's ring held, in events, as the front
  /// saw it at the end of its calls (the name predates the ring; the
  /// end-to-end benchmark reads it).
  int64_t max_queue_depth_msgs = 0;
  /// Events processed per shard (index = shard id) — the imbalance surface
  /// work stealing evens out.
  std::vector<int64_t> shard_events;
  /// Key->shard overrides the router currently holds: the keys a steal
  /// left off their hash shard (0 with stealing off). With
  /// evict_idle_groups the front drains entries whose windows all closed,
  /// bounding this under key churn.
  int64_t rebalance_map_size = 0;
  /// Query-lifecycle counters (src/runtime/query_lifecycle.h), counted once
  /// by the session's control plane (src/runtime/control_plane.h); shard
  /// engines report 0.
  int64_t queries_added = 0;
  int64_t queries_removed = 0;
  /// Pane-aligned sharing-plan hot swaps (explicit ApplySharingOverrides
  /// calls plus online re-optimizer swaps).
  int64_t plan_swaps = 0;
  /// Online re-optimizer activity (control plane only, like the lifecycle
  /// counters).
  int64_t reopt_checks = 0;
  int64_t reopt_swaps = 0;
  /// Plan epochs live at snapshot time: always 1, since a churn op hands
  /// its state over at the activation boundary instead of draining a second
  /// epoch. Kept only because the end-to-end benchmark reports it.
  int64_t active_epochs = 0;
  /// Group runners evicted by RunConfig::evict_idle_groups.
  int64_t evicted_idle_groups = 0;
  /// Group-key migrations executed by pane-boundary work stealing
  /// (RunConfig::work_stealing; counted on the front). Deterministic for a
  /// fixed stream and shard count.
  int64_t stolen_panes = 0;
  /// Always 0: a steal moves the key's runners instead of staging its
  /// events to two shards. Kept only because the end-to-end benchmark
  /// reports it.
  int64_t duplicated_events = 0;
};

/// Folds `from` into `into` the way a Session combines per-shard
/// metrics: counters (events, emissions, DNFs, evictions, decisions,
/// HAMLET stats, batch histogram buckets) and CURRENT
/// memory are summed; peak memory takes the max — shards peak at different
/// times, so summing per-shard peaks overstated the concurrent footprint
/// exactly the way summing per-shard rates overstated throughput, and the
/// max is the always-true lower bound which the front then raises with
/// its sampled concurrent high-water mark (see RunMetrics::
/// peak_memory_bytes); the control-plane counters (queries_added/removed,
/// plan_swaps, reopt_checks/swaps) sum — a shard has no control plane and
/// reports 0, and the front fills them in after the merge;
/// active_epochs and rebalance_map_size take the MAX (every shard runs one
/// epoch, and the front fills the map size in too); evicted idle groups
/// are per-shard state and sum; elapsed and max queue depth are the max over shards
/// (shards run concurrently over overlapping busy intervals, so summing
/// busy time would double-count wall time); throughput is recomputed as
/// merged events / merged elapsed — never summed, since summing per-shard
/// rates over overlapping intervals inflates the merge by up to the shard
/// count; avg latency is re-weighted by emission count and max latency is
/// the max; shard_events concatenates. Count fields stay deterministic for
/// a fixed shard count.
void MergeRunMetrics(RunMetrics& into, const RunMetrics& from);

/// Receives query results as their windows close. Implementations must not
/// retain the reference past the call.
class EmissionSink {
 public:
  virtual ~EmissionSink() = default;
  virtual void OnEmission(const Emission& emission) = 0;
};

/// Buffers every emission; Take() returns them sorted by
/// (window_start, query, group) — the historical batch Run() order.
class CollectingSink : public EmissionSink {
 public:
  void OnEmission(const Emission& emission) override {
    emissions_.push_back(emission);
  }

  /// Emissions in arrival (window-close) order.
  const std::vector<Emission>& emissions() const { return emissions_; }

  /// Moves the buffer out, sorted by (window_start, query, group).
  std::vector<Emission> Take();

 private:
  std::vector<Emission> emissions_;
};

/// Invokes a callback per emission (live dashboards, tests).
class CallbackSink : public EmissionSink {
 public:
  explicit CallbackSink(std::function<void(const Emission&)> fn)
      : fn_(std::move(fn)) {}

  void OnEmission(const Emission& emission) override { fn_(emission); }

 private:
  std::function<void(const Emission&)> fn_;
};

/// Streams emissions as CSV rows ("query,name,group,window_start,
/// window_end,value") to a FILE* the caller owns; writes the header on
/// construction. Constant memory — the bench-friendly sink.
class CsvSink : public EmissionSink {
 public:
  explicit CsvSink(std::FILE* out);

  void OnEmission(const Emission& emission) override;

  int64_t rows_written() const { return rows_written_; }

 private:
  std::FILE* out_;
  int64_t rows_written_ = 0;
};

class ControlPlane;
class ShardEngine;

/// See file comment. The plan must outlive the session; the sink (if any)
/// must outlive every Push/AdvanceTo/Close call.
class Session {
 public:
  /// Validates `config`, compiles the opening plan epoch and builds one
  /// engine per shard, starting a worker per shard at num_shards > 1.
  /// `sink` may be nullptr to drop emissions (metrics-only runs, e.g.
  /// throughput benches); otherwise it receives OnEmission calls on the
  /// front thread (see file comment, "Emissions").
  static Result<std::unique_ptr<Session>> Open(const WorkloadPlan& plan,
                                               const RunConfig& config,
                                               EmissionSink* sink);

  /// The pure-hash event->shard map Open derives from the plan, without
  /// building a session. Fails exactly when Open would: invalid
  /// num_shards, or num_shards > 1 on a plan whose exec queries mix
  /// group-by attributes.
  static Result<ShardRouter> RouterFor(const WorkloadPlan& plan,
                                       int num_shards);

  /// Stops and joins the workers (an implicit Close when still open;
  /// the metrics of an implicit Close are discarded, its emissions are
  /// still delivered).
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Ingests one event. Events must be strictly increasing in time (the
  /// engines' contract) and at or after the last AdvanceTo watermark, with
  /// usable group keys (CheckGroupKeys); violations return kInvalidArgument
  /// naming the offending timestamp and leave the session state untouched.
  /// After Close: kFailedPrecondition. At more than one shard a valid event
  /// is written to the ring of the shard owning its group, and that shard's
  /// worker is woken if it parked (backpressure blocks here while the ring
  /// is full).
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
    friend class Session;
    Producer(Session* owner, int slot) : owner_(owner), slot_(slot) {}

    Session* owner_;
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

  /// Declares that no event before `watermark` will arrive, closing every
  /// pane/window that ends at or before it on every shard without waiting
  /// for an event. The watermark must not regress below prior events or
  /// watermarks. Every shard applies it after the events pushed before
  /// it. Also the checkpoint at which stale router overrides drain, and — when online
  /// re-optimization is enabled — the barrier at which the front waits for
  /// every shard's statistics before drift checks (see file comment).
  Status AdvanceTo(Timestamp watermark);

  /// Adds a named query to the LIVE session (query lifecycle subsystem, see
  /// src/runtime/query_lifecycle.h) at one pane-aligned activation boundary
  /// shared by every shard, and returns it: the first boundary strictly
  /// after everything already pushed, where the query opens its windows.
  /// The front's control plane validates and compiles it once into a plan
  /// epoch; at the boundary each shard hands every open window over to it,
  /// so running queries keep their open trend aggregations and
  /// per-interval emissions match a fresh session (query_churn_test). The
  /// query's event types and attributes must already exist in the schema;
  /// unknown names are rejected (validation never registers names).
  Result<Timestamp> AddQuery(const Query& query);

  /// Removes a query by name at the returned pane boundary: it opens no
  /// window from there on, and its windows that started earlier run to
  /// completion and emit normally (the query drains inside the one running
  /// plan, which drops it at the first pane boundary after its last window
  /// closed). Removing the last query is rejected — Close instead.
  Result<Timestamp> RemoveQuery(const std::string& name);

  /// Hot-swaps the sharing plan of the CURRENT query set on every shard at
  /// the returned boundary, by the same hand-off. Sharing never changes
  /// emission values, so the swap is invisible in results. This is the
  /// online re-optimizer's apply path, public for tests, tools and manual
  /// plan pinning.
  Result<Timestamp> ApplySharingOverrides(
      std::span<const SharingOverride> overrides);

  /// The re-optimizer's decision log (empty when
  /// RunConfig::reoptimize_every_panes == 0).
  const std::vector<ReoptDecision>& reopt_log() const;

  /// The session's CURRENT query set (reflects Add/RemoveQuery; draining
  /// queries are not in it). Front thread only.
  std::vector<Query> queries() const;

  /// Closes every shard's open windows once it has run the events pushed
  /// to it (joining the workers), delivers all remaining emissions to the sink, and returns
  /// the merged final metrics — or, on a poisoned session, the poison
  /// status (after the same shutdown). A second Close returns
  /// kFailedPrecondition (the first call's metrics remain available
  /// through MetricsSnapshot).
  Result<RunMetrics> Close();

  /// Merged metrics over what the shards have processed so far (events
  /// still in a ring are not yet counted; emission-dependent
  /// fields lag until windows close). Safe to call from any thread,
  /// including while pushing; exact at one shard.
  RunMetrics MetricsSnapshot() const;

  int num_shards() const { return config_.num_shards; }

  /// The session's event->shard map: RouterFor's hash plus the overrides
  /// placement wrote so far. Front thread only.
  const ShardRouter& router() const { return router_; }

 private:
  struct Shard;
  struct BufferingSink;

  Session() = default;

  /// Broadcasts a successful control-plane op; returns its boundary.
  Result<Timestamp> Apply(const Result<QueryLifecycle::Scheduled>& op)
      HAMLET_REQUIRES(front_role_);
  /// Hands the epoch to every engine, to take over at its boundary: to the
  /// inline engine directly, or in one control message to each shard.
  void Broadcast(const QueryLifecycle::Scheduled& next)
      HAMLET_REQUIRES(front_role_);
  /// Tells the control plane that stream time reached `time` and
  /// broadcasts the drops it compiles, before anything at `time` is staged.
  void SyncControl(Timestamp time) HAMLET_REQUIRES(front_role_);
  /// Runs the control plane's re-optimization check when one is due, on
  /// the shards' merged statistics (the inline engine's own at one shard),
  /// and broadcasts the swap it asks for.
  void MaybeReoptimize() HAMLET_REQUIRES(front_role_);
  /// Pane size of the control plane's running epoch: the grid steal
  /// boundaries and router drains are computed on.
  Timestamp PaneSize() const;
  /// Drains the overrides of stolen keys whose groups can no longer have
  /// open windows anywhere (requires evict_idle_groups — the group's engine
  /// state is then also gone from its shard, so a re-appearing key may
  /// re-route freely).
  void MaybeDrainRouter() HAMLET_REQUIRES(front_role_);

  /// Body of AdvanceTo after the closed/mode checks — shared with the
  /// sequencer's frontier broadcasts, which are ordinary watermarks.
  Status AdvanceToInternal(Timestamp watermark) HAMLET_REQUIRES(front_role_);
  /// Rejects session-level ingest and churn after Close and in
  /// multi-producer mode.
  Status FrontGuard(const char* op) const;
  /// The front gate plus CheckGroupKeys over group_by_attrs_.
  Status CheckEvent(const Event& event) const HAMLET_REQUIRES(front_role_);
  const Schema& schema() const { return *plan_->workload->schema(); }

  // --- multi-producer ingest (sequencer thread) ---
  /// The sequencer: drains the hub's merge until stuck, broadcasts the
  /// frontier at pane crossings, exits on seq_stop_ after a final drain.
  void SequencerLoop();
  /// Front-side handling of one merged event: gate (poison on
  /// cross-producer violations), then stage it into its shard's ring, or at
  /// one shard add it to released_.
  void IngestReleased(const Event& event) HAMLET_REQUIRES(front_role_);
  /// Ends a run of merged events (a merge round, or kMaxReleasedRun
  /// events of one), as PushBatch ends a batch: at one shard runs
  /// released_ through the inline engine in one call, at more wakes every
  /// parked worker; then re-optimizes and drains once for the run.
  void RunReleased() HAMLET_REQUIRES(front_role_);
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

  /// Routes one event (hash, or steal triggers + override map + window
  /// update with stealing on) and writes it into its shard's ring, waiting
  /// while the ring is full. Returns that shard.
  Shard& StageEvent(const Event& event) HAMLET_REQUIRES(front_role_);
  /// Ends a front call that wrote to `only`, or to any shard when null:
  /// records the backlog of that shard (of every shard) and wakes its
  /// worker if it parked — once per shard per call, not per event. Every
  /// kMemSampleEveryCalls calls it also samples the concurrent footprint.
  void WakeShards(Shard* only) HAMLET_REQUIRES(front_role_);
  /// Samples the sum of worker-published current footprints into
  /// mem_high_water_.
  void SampleConcurrentMemory() HAMLET_REQUIRES(front_role_);
  /// Fills the merged metrics' ingress fields (batch histogram, queue
  /// depth, per-shard events, override-map size, steals, concurrent
  /// peak).
  void FillIngressMetrics(RunMetrics& merged) const;
  /// Hands committed `events` (may be empty) straight to the inline
  /// engine, after the control plane caught up with them. `arrival` as in
  /// ShardEngine::Push.
  void RunInline(std::span<const Event> events, double arrival)
      HAMLET_REQUIRES(front_role_);
  /// The busy-time total a front call adds to: the inline engine's at one
  /// shard, none otherwise (each worker times its own engine).
  std::atomic<double>* InlineBusy() {
    return engine_ != nullptr ? &inline_busy_seconds_ : nullptr;
  }
  /// Fans the inline engine's buffered emissions or the shard outboxes in
  /// to the user sink (front thread only).
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

  /// Where the inline engine's emissions wait until its call returns
  /// (declared before the engine, which points at it).
  std::unique_ptr<BufferingSink> inline_sink_
      HAMLET_PT_GUARDED_BY(front_role_);
  /// The one engine at num_shards == 1 (null otherwise), run inline by the
  /// front. The front holds engine_mu_ across each call into it and never
  /// while delivering emissions, so MetricsSnapshot may read the engine
  /// from any thread and a sink may call back into the session.
  mutable Mutex engine_mu_;
  std::unique_ptr<ShardEngine> engine_ HAMLET_PT_GUARDED_BY(engine_mu_);
  /// The inline engine's busy time (RunMetrics::elapsed_seconds): the
  /// front's calls that reach it, from the gate commit through the
  /// re-optimization check, emission delivery excluded. Written by the
  /// front only; atomic so MetricsSnapshot may read it from any thread.
  std::atomic<double> inline_busy_seconds_{0.0};
  /// Merged producer events waiting for one inline engine call (sequencer
  /// at one shard only; see IngestReleased).
  std::vector<Event> released_ HAMLET_GUARDED_BY(front_role_);

  /// Set once by Open, read-only afterwards (any thread).
  const WorkloadPlan* plan_ = nullptr;
  RunConfig config_;
  EmissionSink* sink_ = nullptr;
  /// Front-thread state (placement writes its overrides), left unannotated
  /// only because router() hands front-thread callers a const view.
  /// Monitor threads read the placement counters from the atomics below,
  /// never the router.
  ShardRouter router_;
  /// The session's one control plane (engines have none), created by Open
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
  int calls_since_mem_sample_ HAMLET_GUARDED_BY(front_role_) = 0;

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
  /// Set by Open, read-only afterwards; off at one shard, and while off
  /// routing is one hash per event with no load bookkeeping.
  bool stealing_ = false;
  /// Two-bucket sliding window of per-shard staged-event counts, kept
  /// while stealing is on.
  std::vector<int64_t> load_cur_ HAMLET_GUARDED_BY(front_role_);
  std::vector<int64_t> load_prev_ HAMLET_GUARDED_BY(front_role_);
  int64_t in_window_ HAMLET_GUARDED_BY(front_role_) = 0;
  struct KeyLoad {
    int64_t cur = 0;
    int64_t prev = 0;
  };
  /// Per-group-key staged-event counts over the same window; entries idle
  /// for two half-windows drop out, bounding the map by active keys.
  std::unordered_map<int64_t, KeyLoad> key_load_
      HAMLET_GUARDED_BY(front_role_);
  /// Override count (RunMetrics::rebalance_map_size). Atomic so a monitor
  /// thread's MetricsSnapshot may read it while the front routes.
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

#endif  // HAMLET_RUNTIME_SESSION_H_

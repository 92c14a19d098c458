// Push-based streaming session: the runtime's primary entry point.
//
// A Session evaluates a compiled workload incrementally: callers push events
// (singly or in batches) as they arrive, and every query result is delivered
// to a pluggable EmissionSink the moment its window closes — no O(stream)
// input buffer and no grow-forever output buffer on the hot path.
//
// Lifecycle:
//   Result<std::unique_ptr<Session>> s = Session::Open(plan, config, &sink);
//   s.value()->Push(event);              // or PushBatch(span)
//   s.value()->AdvanceTo(watermark);     // force window closure, no event
//   RunMetrics m = s.value()->Close().value();  // final flush + metrics
//
// After Close, every entry point (including a second Close) returns
// kFailedPrecondition instead of relying on caller discipline.
//
// Query churn and plan swaps (src/runtime/query_lifecycle.h) never run two
// plans at once. The session's control plane (src/runtime/control_plane.h)
// compiles each op into a plan epoch that the runtime holds pending; when
// the pane clock reaches its activation boundary, the session builds the
// epoch's runtime,
// hands every open window over — HAMLET state query by query through
// HamletEngine::ExportQuery/ImportQuery, per-window baseline engines whole
// — and frees the old runtime. Every event is processed once, by the one
// runtime whose epoch covers it. A removed query leaves the plan the same
// way, at the first pane boundary after its last window closed.
//
// The session owns all stream-time machinery (paper §3.1 pre-processing +
// §6.1 metrics): partitioning exec queries into components connected by
// share groups, partitioning each component's stream by its group-by
// attribute, pane-aligned window management (tumbling and sliding),
// dispatch to the selected engine (HAMLET dynamic/static/no-share, GRETA
// graph/prefix, two-step, SHARON), OR/AND branch composition, and the
// paper's latency / throughput / peak-memory accounting. The batch
// StreamExecutor::Run in src/runtime/executor.h is a thin wrapper over this
// class with a CollectingSink.
#ifndef HAMLET_RUNTIME_SESSION_H_
#define HAMLET_RUNTIME_SESSION_H_

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/baselines/sharon_engine.h"
#include "src/baselines/two_step_engine.h"
#include "src/common/status.h"
#include "src/greta/greta_engine.h"
#include "src/hamlet/batch_eval.h"
#include "src/optimizer/online_optimizer.h"
#include "src/optimizer/policies.h"
#include "src/query/columnar_predicate.h"
#include "src/runtime/query_lifecycle.h"
#include "src/stream/event_batch.h"

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
  /// Worker shards for ShardedSession (src/runtime/sharded_session.h):
  /// events are hash-partitioned by group-by key across this many threads,
  /// and work_stealing rebalances the groups.
  /// Must be in [1, kMaxShards]. Plain Session ignores it (always 1).
  int num_shards = 1;
  /// Per-shard ingress queue capacity in *MESSAGES* — event batches plus
  /// control messages, NOT events — before Push applies backpressure. Must
  /// be >= 2; rounded up to a power of two. The implied per-shard event
  /// buffer is therefore ~shard_queue_capacity * shard_batch_size events;
  /// Open rejects configs whose product exceeds kMaxQueuedEventsPerShard so
  /// the two knobs cannot silently compound into gigabytes of queue.
  int shard_queue_capacity = 8192;
  /// ShardedSession ingress granularity: the most events staged per shard
  /// before the producer hands them to that shard's queue as one batch
  /// message. A shard whose queue is empty gets its staging sooner, when
  /// the front runs out of input (src/runtime/sharded_session.h), so this
  /// caps the batch in a burst and costs nothing in a lull. 1 reproduces
  /// per-event hand-off. Watermarks and Close flush staging, so results
  /// never depend on this knob. Must be >= 1. Plain Session ignores it.
  int shard_batch_size = 128;
  /// Skew-aware routing (ShardedSession only): when > 0, a group key seen
  /// for the FIRST time whose hash shard leads the least-loaded shard by
  /// more than this many recently staged events is routed to the
  /// least-loaded shard instead. The load is the ShardedSession front's
  /// one sliding placement window, shared with work_stealing. Assignments
  /// are sticky, so per-group window order is preserved. 0 disables
  /// first-sight placement; must be >= 0.
  int64_t shard_rebalance_threshold = 0;
  /// Online plan re-optimization cadence, in panes: every this many pane
  /// boundaries the session re-derives the cost-model inputs from live
  /// statistics (src/optimizer/online_optimizer.h), re-runs the pruned plan
  /// search, and hot-swaps the sharing plan at the next pane boundary when
  /// the observed cost drifts past reoptimize_threshold. 0 (default)
  /// freezes the plan chosen at Open. Requires a HAMLET engine kind with a
  /// sharing plan to act on (kHamletDynamic or kHamletStatic); each plan
  /// epoch compiles its own predicate program. In a ShardedSession the
  /// front's control plane re-optimizes and hands the swap to every shard,
  /// so all shards always run the identical plan.
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
  /// cardinality. Deterministic in event time, so single-threaded and
  /// sharded runs with the knob ON stay emission-identical; it is also the
  /// prerequisite for ShardedSession draining stale placement and steal
  /// overrides (RunMetrics::rebalance_map_size).
  bool evict_idle_groups = false;
  /// Pane-boundary work stealing (ShardedSession only, on by default; set
  /// false to opt out into pure hash placement): when an existing group
  /// key's shard is overloaded (by more than steal_imbalance_ratio x the
  /// least-loaded shard over a sliding window of staged events), the front
  /// moves whole group keys to the least-loaded shard at the next
  /// event-time pane boundary. The key's group runners (HAMLET engine, open
  /// windows, per-window baseline engines) leave the victim's Session and
  /// join the thief's, and the key's events from the boundary on route to
  /// the thief; no event is processed twice, and the front never waits for
  /// the hand-off. This balances the few hot groups a hash puts on one
  /// shard, and the groups that become hot after shard_rebalance_threshold
  /// placed them. Steal decisions derive purely from the merged event
  /// stream, so emission sets stay bit-identical across stealing on/off,
  /// shard counts and producer counts. Combines with every other knob
  /// (see ValidateRunConfig / docs/API.md knob matrix); inert at one shard.
  bool work_stealing = true;
  /// Work-stealing trigger: steal when the hottest shard's windowed load
  /// exceeds this multiple of the coldest shard's (plus a small absolute
  /// floor, so near-idle streams never thrash). Must be > 1.0 — checked
  /// even while work_stealing is off, so flipping the knob on later can
  /// never trip a latent bad value. Ignored while work_stealing is false.
  double steal_imbalance_ratio = 2.0;
  /// Multi-producer ingest (ShardedSession::AddProducer only): capacity,
  /// in events, of each producer's SPSC staging ring feeding the sequencer
  /// (src/common/mpsc_ingest.h). Must be >= 2; rounded up to a power of
  /// two. Plain Session and the single-producer sharded path ignore it.
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

/// Upper bound on shard_queue_capacity * shard_batch_size, the per-shard
/// buffered-event footprint a config may imply (~200 MB of Events at the
/// default Event size). Catches knob combinations that each look sane alone.
inline constexpr int64_t kMaxQueuedEventsPerShard = int64_t{1} << 22;

/// Monotonic wall clock in seconds (steady_clock) — the default behind
/// RunConfig::clock_override, shared by Session, ShardedSession and the
/// benches so all latency numbers are on one timebase.
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

/// Tracks the ingestion-side ordering contract shared by Session and
/// ShardedSession: event times strictly increase, watermarks never regress,
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
  /// Time spent inside session calls (push/advance/close), excluding the
  /// caller's time between pushes — so streaming and batch ingestion report
  /// comparable engine throughput.
  double elapsed_seconds = 0.0;
  double avg_latency_seconds = 0.0;
  double max_latency_seconds = 0.0;
  double throughput_eps = 0.0;
  /// Peak engine-state footprint. Per Session: the exact high-water mark.
  /// Merged (ShardedSession): a sampled CONCURRENT high-water mark — the
  /// largest observed sum of simultaneous per-shard footprints, never the
  /// sum of per-shard peaks (shards peak at different times, so that sum
  /// overstated the concurrent footprint by up to the shard count).
  int64_t peak_memory_bytes = 0;
  /// Engine-state footprint at the time of the snapshot; per-shard workers
  /// publish it so the sharded front can sample the concurrent sum.
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
  /// Sharded ingress only (empty/0 for plain Sessions):
  /// Histogram of flushed staging-batch sizes across all shards: bucket i
  /// counts batch messages of size in [2^i, 2^(i+1)). The spread shows how
  /// often a shard got its staging while idle (small buckets, lulls) and
  /// how often a busy queue let it fill (high buckets, bursts).
  std::vector<int64_t> shard_batch_hist;
  /// Group keys first-sight placement diverted off their hash shard.
  int64_t rebalanced_keys = 0;
  /// Deepest any shard's ingress queue got, in messages (producer-observed).
  int64_t max_queue_depth_msgs = 0;
  /// Events processed per shard (index = shard id) — the imbalance surface
  /// the rebalancer optimizes.
  std::vector<int64_t> shard_events;
  /// Key->shard overrides the router currently holds: every seen key with
  /// shard_rebalance_threshold > 0, else only keys a steal left off their
  /// hash shard (0 with neither policy). With evict_idle_groups the front
  /// drains entries whose windows all closed, bounding this under key
  /// churn.
  int64_t rebalance_map_size = 0;
  /// Query-lifecycle counters (src/runtime/query_lifecycle.h), counted once
  /// by the session's control plane (src/runtime/control_plane.h); shard
  /// sessions report 0.
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
  /// (RunConfig::work_stealing; counted on the ShardedSession front, 0
  /// elsewhere). Deterministic for a fixed stream and shard count.
  int64_t stolen_panes = 0;
  /// Always 0: a steal moves the key's runners instead of staging its
  /// events to two shards. Kept only because the end-to-end benchmark
  /// reports it.
  int64_t duplicated_events = 0;
};

/// Folds `from` into `into` the way ShardedSession combines per-shard
/// metrics: counters (events, emissions, DNFs, evictions, decisions,
/// rebalanced keys, HAMLET stats, batch histogram buckets) and CURRENT
/// memory are summed; peak memory takes the max — shards peak at different
/// times, so summing per-shard peaks overstated the concurrent footprint
/// exactly the way summing per-shard rates overstated throughput, and the
/// max is the always-true lower bound which ShardedSession then raises with
/// its sampled concurrent high-water mark (see RunMetrics::
/// peak_memory_bytes); the control-plane counters (queries_added/removed,
/// plan_swaps, reopt_checks/swaps) sum — a shard has no control plane and
/// reports 0, and the ShardedSession front fills them in after the merge;
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

/// See file comment. The plan must outlive the session; the sink (if any)
/// must outlive every Push/AdvanceTo/Close call.
class Session {
  struct GroupRunner;

 public:
  /// Validates `config` and builds the component/engine state. `sink` may be
  /// nullptr to drop emissions (metrics-only runs, e.g. throughput benches).
  static Result<std::unique_ptr<Session>> Open(const WorkloadPlan& plan,
                                               const RunConfig& config,
                                               EmissionSink* sink);

  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Ingests one event. Events must be strictly increasing in time (the
  /// engines' contract) and at or after the last AdvanceTo watermark;
  /// violations return kInvalidArgument naming the offending timestamp and
  /// leave the session state untouched. After Close: kFailedPrecondition.
  Status Push(const Event& event);

  /// Ingests a time-ordered batch; stops at the first invalid event.
  Status PushBatch(std::span<const Event> events);

  /// Declares that no event before `watermark` will arrive, closing every
  /// pane/window that ends at or before it without waiting for an event.
  /// The watermark must not regress below prior events or watermarks.
  Status AdvanceTo(Timestamp watermark);

  /// Adds a named query to the LIVE session (query lifecycle subsystem, see
  /// src/runtime/query_lifecycle.h). The query opens windows starting at or
  /// after the returned pane boundary — the first boundary strictly after
  /// everything already pushed. The op records a pending plan epoch; when
  /// the pane clock reaches the boundary, the session builds its runtime,
  /// hands every open window over to it and frees the old one, so running
  /// queries keep their open trend aggregations and per-interval emissions
  /// match a fresh session (query_churn_test).
  /// The query's event types and attributes must already exist in the
  /// schema; unknown names are rejected (validation never registers names).
  Result<Timestamp> AddQuery(const Query& query);

  /// Removes a query by name at the returned pane boundary: it opens no
  /// window from there on, and its windows that started earlier run to
  /// completion and emit normally (the query drains inside the one running
  /// plan, which drops it at the first pane boundary after its last window
  /// closed). Removing the last query is rejected — Close instead.
  Result<Timestamp> RemoveQuery(const std::string& name);

  /// Hot-swaps the sharing plan of the CURRENT query set (merged template,
  /// predicate program and cohort masks rebuilt) at the returned boundary,
  /// by the same hand-off. Sharing never changes emission values, so the
  /// swap is invisible in results. This is the online re-optimizer's apply
  /// path, public for tests/tools.
  Result<Timestamp> ApplySharingOverrides(
      std::span<const SharingOverride> overrides);

  /// Online re-optimizer decision log (empty unless
  /// RunConfig::reoptimize_every_panes > 0).
  const std::vector<ReoptDecision>& reopt_log() const;

  /// The session's CURRENT query set (reflects Add/RemoveQuery; draining
  /// queries are not in it).
  std::vector<Query> queries() const;

  /// A group key's runners taken out of a session by DetachGroup, for
  /// AttachGroup on another session over the same plan (work stealing):
  /// one slot per component in the deterministic component order, null
  /// where the session held no runner for the key.
  struct DetachedGroup {
    DetachedGroup();
    DetachedGroup(DetachedGroup&&) noexcept;
    DetachedGroup& operator=(DetachedGroup&&) noexcept;
    ~DetachedGroup();
    std::vector<std::unique_ptr<GroupRunner>> runners;
  };

  /// Victim side of a pane-boundary group steal (ShardedSession). The
  /// caller has pushed every event of the key before `boundary`. Advances
  /// panes to `boundary` (activating a pending epoch on the way, exactly as
  /// the thief does), then takes the key's runners out of every component:
  /// HAMLET engine, open windows and per-window engines move whole.
  DetachedGroup DetachGroup(int64_t group_key, Timestamp boundary);

  /// Thief side: advances panes to `boundary` and installs the runners a
  /// DetachGroup(group_key, boundary) on another session returned. The
  /// key's events from `boundary` on then feed them here.
  void AttachGroup(int64_t group_key, Timestamp boundary,
                   DetachedGroup group);

  /// Flushes all remaining open windows and returns the final metrics.
  /// A second Close returns kFailedPrecondition (the first call's metrics
  /// remain available through MetricsSnapshot).
  Result<RunMetrics> Close();

  /// Metrics accumulated so far, without flushing open windows (live
  /// dashboards; emission-dependent fields lag until windows close).
  RunMetrics MetricsSnapshot() const;

 private:
  struct Component;
  /// A compiled plan plus what derives from it alone (session.cc).
  struct PlanEpoch;
  struct WindowSlot;
  /// The running plan epoch: a compiled plan (PlanEpoch, shared with the
  /// per-window engines opened under it) plus the state that runs it —
  /// components with their group runners, columnar staging and the pane
  /// clock. A session runs exactly one.
  struct Runtime;
  /// A ShardedSession opens its shards without a control plane and hands
  /// them the front's epochs through Schedule.
  friend class ShardedSession;
  /// A session running `opening`, with no control plane.
  static std::unique_ptr<Session> OpenShard(QueryLifecycle::Epoch opening,
                                            const RunConfig& config,
                                            EmissionSink* sink);

  Session(const RunConfig& config, EmissionSink* sink);

  /// Builds components, masks and cohorts for `compiled`'s plan.
  std::unique_ptr<Runtime> BuildRuntime(QueryLifecycle::Epoch compiled);
  /// Has `next.epoch` take over at pane boundary `next.at`: pending until
  /// the pane clock reaches it, or at once while the runtime has not
  /// started (it holds no state). The boundary must lie ahead of the pane
  /// clock, on the grid of the last epoch scheduled and not before its
  /// boundary (checked); an epoch for the same boundary replaces it.
  void Schedule(QueryLifecycle::Scheduled next);
  /// Replaces the runtime with one running `compiled`, at a pane boundary
  /// after the old one closed its expiring windows: every open window moves
  /// over (HAMLET contexts through HamletEngine::ExportQuery/ImportQuery,
  /// per-window engines whole), and the old runtime is freed.
  void HandOff(QueryLifecycle::Epoch compiled);
  /// Tells the control plane that stream time reached `time` and schedules
  /// the drops it compiles.
  void SyncControl(Timestamp time);
  /// Schedules a successful control-plane op; returns its boundary.
  Result<Timestamp> Apply(Result<QueryLifecycle::Scheduled> op);
  /// Runs the control plane's re-optimization check when one is due and
  /// schedules the swap it asks for.
  void MaybeReoptimize();
  HamletStats AggregateHamletStats() const;

  /// The ordering gate plus CheckGroupKeys over group_by_attrs_.
  Status CheckEvent(const Event& event) const;
  /// Shared body of Push and PushBatch (`events` non-empty): commits the
  /// time-ordered prefix and dispatches it, handing off to a pending epoch
  /// at its boundary. `per_event` (Push) stamps the lone run with the
  /// call's entry time.
  Status Ingest(std::span<const Event> events, bool per_event);
  /// Run-granular dispatch: stages `events` into the runtime's SoA batch
  /// (group-major when every query groups by one attribute), runs the
  /// predicate kernels, segments the rows into runs and feeds each through
  /// the engines in one call. `arrival` is the rows' arrival wall time; a
  /// negative value samples it once per run.
  void DispatchRuns(std::span<const Event> events, double arrival);
  /// A runner for `key` in `comp` with no window open yet.
  std::unique_ptr<GroupRunner> MakeRunner(Runtime& rt, Component& comp,
                                          int64_t key);
  /// Creates the runner for `key` in `comp`, opening every window instance
  /// covering the current pane.
  GroupRunner& NewGroupRunner(Runtime& rt, Component& comp, int64_t key);
  /// Advances the pane clock to the pane containing `time`. At every
  /// boundary crossed, windows ending there close, a pending epoch whose
  /// boundary it is takes over, and windows starting there open.
  void AdvancePaneTo(Timestamp time);
  /// AdvancePaneTo(boundary) for a steal, with the boundary committed as
  /// observed stream time first (DetachGroup / AttachGroup).
  void AdvanceToStealBoundary(Timestamp boundary);
  void CloseExpiredWindows(GroupRunner& runner, Timestamp now);
  void OpenDueWindows(Runtime& rt, GroupRunner& runner, Timestamp pane_start,
                      bool retroactive);
  void EmitExecValue(const PlanEpoch& epoch, int exec_id, int64_t group_key,
                     Timestamp window_start, Timestamp window_end,
                     double value, double arrival_wall);
  /// Drops pending composition entries whose window closed at or before
  /// `boundary` with a branch missing — they can never complete (see
  /// RunMetrics::evicted_compositions).
  void EvictDeadCompositions(Timestamp boundary);
  void FillMetrics(RunMetrics* m) const;
  int64_t CurrentMemory() const;

  RunConfig config_;
  EmissionSink* sink_;
  /// Null on a ShardedSession's shards.
  std::unique_ptr<ControlPlane> control_;
  std::unique_ptr<Runtime> rt_;
  /// Scheduled epochs, in boundary order, each until the pane clock
  /// reaches its boundary: an op's and the drops after it, or on a shard
  /// the front's clock ran ahead of, several ops'.
  std::vector<QueryLifecycle::Scheduled> pending_;
  /// Branch values awaiting OR/AND composition, keyed by (lifecycle query
  /// id, group, window start); the value is (window end, branch values).
  std::map<std::tuple<int64_t, int64_t, Timestamp>,
           std::pair<Timestamp, std::vector<double>>>
      pending_compositions_;
  /// Accumulators for state that no longer exists: replaced runtimes' and
  /// evicted idle groups' engine stats and policy decisions.
  HamletStats retired_stats_;
  int64_t retired_decisions_ = 0;
  int64_t evicted_idle_groups_ = 0;
  int64_t evicted_compositions_ = 0;
  /// Latency samples per emission.
  double latency_sum_ = 0.0;
  double latency_max_ = 0.0;
  int64_t latency_count_ = 0;
  int64_t peak_memory_ = 0;
  int64_t dnf_windows_ = 0;
  int64_t events_ = 0;
  /// Run-shape counters behind RunMetrics::runs / run_len_hist.
  int64_t runs_ = 0;
  std::vector<int64_t> run_len_hist_;
  OrderingGate gate_;
  /// Sum of wall time spent inside session calls.
  double busy_seconds_ = 0.0;
  bool closed_ = false;
  RunMetrics final_metrics_;
};

}  // namespace hamlet

#endif  // HAMLET_RUNTIME_SESSION_H_

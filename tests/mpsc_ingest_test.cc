// Multi-producer ingest tests (Session::AddProducer).
//
// The core property is producer-count invariance: for every EngineKind,
// the emission set of a Session fed by P = 1/2/4 concurrent
// Producer handles over N = 1/2/4 shards equals the single-threaded batch
// Run() on the same stream. The sequencer releases events in global time
// order (timestamps are unique, so the merged order is a total order), the
// router is deterministic, and frontier broadcasts are emission-neutral by
// construction — so the fan-in must be bitwise reproducible no matter how
// the producer threads race.
//
// Also covered: the per-producer ordering gate (out-of-order and watermark
// regression rejected synchronously on the offending handle), mode
// exclusivity (session-level ingest locked out after AddProducer and vice
// versa), Close-with-open-handles, the sticky cross-producer duplicate
// poison, late-joiner admission bounds, watermark merging across a
// laggard, producer churn (handles joining and leaving mid-stream, also
// many short-lived handles beside a long-lived one), a sink that opens a
// handle from OnEmission, and — driven by hand from one thread — the hub's
// roster invariants: the frontier never passes an unreleased element, and
// a joiner is admitted above everything released or broadcast.
//
// This suite runs under TSan and ASan in CI alongside sharded_session_test
// — it is the primary concurrency torture for the MPSC hub + sequencer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/benchlib/workloads.h"
#include "src/common/mpsc_ingest.h"
#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/runtime/session.h"

namespace hamlet {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

struct MpResult {
  std::vector<Emission> emissions;
  RunMetrics metrics;
};

// Exact (bitwise) equality, except that two NaNs compare equal.
void ExpectSameValue(double a, double b, const std::string& label) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << label;
}

void ExpectSameEmissionSet(const std::vector<Emission>& expected,
                           const std::vector<Emission>& actual,
                           const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Emission& a = expected[i];
    const Emission& b = actual[i];
    const std::string at = label + " emission #" + std::to_string(i);
    EXPECT_EQ(a.query, b.query) << at;
    EXPECT_EQ(a.query_name, b.query_name) << at;
    EXPECT_EQ(a.group_key, b.group_key) << at;
    EXPECT_EQ(a.window_start, b.window_start) << at;
    EXPECT_EQ(a.window_end, b.window_end) << at;
    ExpectSameValue(a.value, b.value, at);
  }
}

// Round-robin split of a strictly increasing stream: producer i owns the
// events at indices == i (mod P), so every handle's subsequence is itself
// strictly increasing — the per-producer ordering contract.
std::vector<EventVector> SplitRoundRobin(const EventVector& ev,
                                         int num_producers) {
  std::vector<EventVector> parts(static_cast<size_t>(num_producers));
  for (size_t i = 0; i < ev.size(); ++i) {
    parts[i % static_cast<size_t>(num_producers)].push_back(ev[i]);
  }
  return parts;
}

// Pushes `ev` through P concurrent Producer handles (round-robin split,
// one thread per handle, PushBatch in small chunks with a mid-stream
// per-producer watermark), then a final producer watermark at the global
// last event time, Close on every handle, and session Close. The final
// watermark equals RunSharded's trailing AdvanceTo, so emissions compare
// directly against both the batch reference and the single-producer path.
MpResult RunMultiProducer(const WorkloadPlan& plan, RunConfig config,
                          int num_shards, int num_producers,
                          const EventVector& ev) {
  config.num_shards = num_shards;
  CollectingSink sink;
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, config, &sink);
  HAMLET_CHECK(session.ok());
  std::vector<std::unique_ptr<Session::Producer>> producers;
  for (int p = 0; p < num_producers; ++p) {
    Result<std::unique_ptr<Session::Producer>> handle =
        session.value()->AddProducer();
    HAMLET_CHECK(handle.ok());
    producers.push_back(std::move(handle).value());
  }
  const std::vector<EventVector> parts = SplitRoundRobin(ev, num_producers);
  const Timestamp last_time = ev.empty() ? 0 : ev.back().time;
  std::vector<std::thread> threads;
  threads.reserve(producers.size());
  for (size_t p = 0; p < producers.size(); ++p) {
    threads.emplace_back([&, p] {
      Session::Producer& producer = *producers[p];
      const EventVector& mine = parts[p];
      constexpr size_t kChunk = 7;
      for (size_t i = 0; i < mine.size(); i += kChunk) {
        const size_t len = std::min(kChunk, mine.size() - i);
        Status s = producer.PushBatch(
            std::span<const Event>(mine.data() + i, len));
        ASSERT_TRUE(s.ok()) << s.ToString();
        // Mid-stream per-producer watermark at the handle's own last event
        // time: legal (equality is allowed) and exercises the merge.
        if (i / kChunk % 4 == 3) {
          ASSERT_TRUE(producer.AdvanceTo(mine[i + len - 1].time).ok());
        }
      }
      if (!ev.empty()) {
        ASSERT_TRUE(producer.AdvanceTo(last_time).ok());
      }
      ASSERT_TRUE(producer.Close().ok());
    });
  }
  for (std::thread& t : threads) t.join();
  producers.clear();
  MpResult out;
  out.metrics = session.value()->Close().value();
  out.emissions = sink.Take();
  return out;
}

EventVector Workload1Stream(BenchWorkload* bw, uint64_t seed) {
  GeneratorConfig gen;
  gen.seed = seed;
  gen.events_per_minute = 600;
  gen.duration_minutes = 1;
  gen.num_groups = 8;
  gen.burstiness = 0.6;
  gen.max_burst = 8;
  return bw->generator->Generate(gen);
}

// 1, 2 and 4 concurrent handles at `shards` shards compute exactly what
// the batch Run computes, for every engine kind.
void ExpectProducersMatchRun(int shards) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  EventVector ev = Workload1Stream(&bw, 77);
  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*bw.plan, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    ASSERT_GT(batch.emissions.size(), 0u) << EngineKindName(kind);
    for (int producers : {1, 2, 4}) {
      MpResult mp = RunMultiProducer(*bw.plan, config, shards, producers, ev);
      const std::string label = std::string(EngineKindName(kind)) + "/N=" +
                                std::to_string(shards) + "/P=" +
                                std::to_string(producers);
      ExpectSameEmissionSet(batch.emissions, mp.emissions, label);
      // Every event is merged, routed and processed exactly once.
      EXPECT_EQ(batch.metrics.events, mp.metrics.events) << label;
      EXPECT_EQ(batch.metrics.emissions, mp.metrics.emissions) << label;
    }
  }
}

// At one shard the sequencer runs the engine inline (no worker thread).
// Its own test, so CI can repeat it under the sanitizers.
TEST(MultiProducerInvariance, AllEnginesProducersOneShard) {
  ExpectProducersMatchRun(1);
}

TEST(MultiProducerInvariance, AllEnginesProducersShards) {
  for (int shards : {2, 4}) ExpectProducersMatchRun(shards);
}

TEST(MultiProducerInvariance, SlidingWindowsAndTinyRings) {
  Schema schema;
  schema.AddAttr("v");
  schema.AddAttr("g");
  Workload workload(&schema);
  for (const char* text :
       {"RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g WITHIN 30 ms "
        "SLIDE 10 ms",
        "RETURN SUM(B.v) PATTERN SEQ(C, B+) GROUPBY g WITHIN 30 ms "
        "SLIDE 10 ms"}) {
    ASSERT_TRUE(workload.Add(ParseQuery(text).value()).ok());
  }
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  Rng rng(21);
  EventVector ev;
  Timestamp t = 1;
  const char* alphabet[] = {"A", "B", "C"};
  for (int i = 0; i < 400; ++i) {
    Event e(t, schema.AddType(alphabet[rng.NextBelow(3)]));
    e.set_attr(0, static_cast<double>(rng.NextInt(0, 9)));
    e.set_attr(1, static_cast<double>(rng.NextBelow(5)));
    ev.push_back(e);
    t += 1 + static_cast<Timestamp>(rng.NextBelow(3));
  }
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  // A two-slot producer ring forces every handle through the
  // ring-full wait on nearly every push; results must not change.
  config.producer_queue_capacity = 2;
  StreamExecutor executor(plan, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok());
  for (int producers : {2, 4}) {
    MpResult mp = RunMultiProducer(plan, config, /*num_shards=*/2, producers,
                                   ev);
    ExpectSameEmissionSet(batch.emissions, mp.emissions,
                          "sliding/P=" + std::to_string(producers));
  }
}

// ---------------------------------------------------------------------------
// Contract tests share one tiny fixture plan.

class MpContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_.AddAttr("v");
    schema_.AddAttr("g");
    type_a_ = schema_.AddType("A");
    type_b_ = schema_.AddType("B");
    workload_ = std::make_unique<Workload>(&schema_);
    ASSERT_TRUE(workload_
                    ->Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                                     "GROUPBY g WITHIN 100 ms")
                              .value())
                    .ok());
    // The plan keeps a pointer into the workload, so both live on the
    // fixture.
    plan_ =
        std::make_unique<WorkloadPlan>(AnalyzeWorkload(*workload_).value());
  }

  Event Make(Timestamp t, TypeId type, double group) {
    Event e(t, type);
    e.set_attr(0, 1.0);
    e.set_attr(1, group);
    return e;
  }

  std::unique_ptr<Session> Open(int num_shards, CollectingSink* sink,
                                RunConfig config = RunConfig{}) {
    config.kind = EngineKind::kHamletDynamic;
    config.num_shards = num_shards;
    Result<std::unique_ptr<Session>> session =
        Session::Open(*plan_, config, sink);
    EXPECT_TRUE(session.ok());
    return std::move(session).value();
  }

  Schema schema_;
  TypeId type_a_ = 0;
  TypeId type_b_ = 0;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<WorkloadPlan> plan_;
};

TEST_F(MpContractTest, PerProducerOutOfOrderRejectedSynchronously) {
  CollectingSink sink;
  auto session = Open(2, &sink);
  auto producer = session->AddProducer().value();
  ASSERT_TRUE(producer->Push(Make(50, type_a_, 1)).ok());
  // Duplicate and regressing times bounce off the handle's own gate,
  // before anything reaches the hub — the handle stays usable.
  Status dup = producer->Push(Make(50, type_b_, 1));
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument) << dup.ToString();
  Status old = producer->Push(Make(20, type_b_, 1));
  EXPECT_EQ(old.code(), StatusCode::kInvalidArgument) << old.ToString();
  EXPECT_NE(old.message().find("20"), std::string::npos) << old.ToString();
  EXPECT_TRUE(producer->Push(Make(60, type_b_, 1)).ok());
  ASSERT_TRUE(producer->Close().ok());
  EXPECT_TRUE(session->Close().ok());
}

TEST_F(MpContractTest, ProducerWatermarkContract) {
  CollectingSink sink;
  auto session = Open(1, &sink);
  auto producer = session->AddProducer().value();
  ASSERT_TRUE(producer->Push(Make(10, type_a_, 1)).ok());
  ASSERT_TRUE(producer->AdvanceTo(100).ok());
  // An event below the handle's own watermark is a broken promise.
  Status low = producer->Push(Make(50, type_b_, 1));
  EXPECT_EQ(low.code(), StatusCode::kInvalidArgument) << low.ToString();
  // Watermarks must not regress either.
  Status back = producer->AdvanceTo(40);
  EXPECT_EQ(back.code(), StatusCode::kInvalidArgument) << back.ToString();
  // Equality is allowed: an event AT the watermark is still in-order.
  EXPECT_TRUE(producer->Push(Make(100, type_b_, 1)).ok());
  ASSERT_TRUE(producer->Close().ok());
  EXPECT_TRUE(session->Close().ok());
}

TEST_F(MpContractTest, SessionLevelIngestLockedOutInProducerMode) {
  CollectingSink sink;
  auto session = Open(2, &sink);
  auto producer = session->AddProducer().value();
  const Event e = Make(10, type_a_, 1);
  EXPECT_EQ(session->Push(e).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->PushBatch(std::span<const Event>(&e, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->AdvanceTo(100).code(), StatusCode::kFailedPrecondition);
  // Live churn is front-thread-only and the front thread no longer owns
  // ingest ordering, so plan changes are refused in producer mode too.
  Query q = ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g "
                       "WITHIN 50 ms")
                .value();
  EXPECT_EQ(session->AddQuery(q).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(producer->Close().ok());
  EXPECT_TRUE(session->Close().ok());
}

TEST_F(MpContractTest, AddProducerAfterSessionIngestRejected) {
  CollectingSink sink;
  auto session = Open(2, &sink);
  ASSERT_TRUE(session->Push(Make(10, type_a_, 1)).ok());
  Result<std::unique_ptr<Session::Producer>> handle =
      session->AddProducer();
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(session->Close().ok());
}

TEST_F(MpContractTest, CloseWithOpenProducersRejected) {
  CollectingSink sink;
  auto session = Open(2, &sink);
  auto producer = session->AddProducer().value();
  Result<RunMetrics> early = session->Close();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(producer->Close().ok());
  EXPECT_TRUE(session->Close().ok());
}

TEST_F(MpContractTest, ProducerHandleCloseContract) {
  CollectingSink sink;
  auto session = Open(1, &sink);
  auto producer = session->AddProducer().value();
  ASSERT_TRUE(producer->Push(Make(10, type_a_, 1)).ok());
  ASSERT_TRUE(producer->Close().ok());
  EXPECT_EQ(producer->Close().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(producer->Push(Make(20, type_b_, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(producer->AdvanceTo(30).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(session->Close().ok());
}

TEST_F(MpContractTest, CrossProducerDuplicateTimestampPoisons) {
  CollectingSink sink;
  auto session = Open(2, &sink);
  auto p1 = session->AddProducer().value();
  auto p2 = session->AddProducer().value();
  // Each handle's own gate accepts t=10 (both were admitted at the
  // stream start), but the merged stream now carries a duplicate — the
  // sequencer's front gate rejects whichever copy merges second and the
  // session poisons, surfacing the error on EVERY producer.
  ASSERT_TRUE(p1->Push(Make(10, type_a_, 1)).ok());
  ASSERT_TRUE(p2->Push(Make(10, type_b_, 1)).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Status poisoned;
  Timestamp t = 11;
  while (std::chrono::steady_clock::now() < deadline) {
    poisoned = p1->Push(Make(t++, type_b_, 1));
    if (!poisoned.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(poisoned.ok()) << "session never poisoned";
  EXPECT_EQ(poisoned.code(), StatusCode::kInvalidArgument)
      << poisoned.ToString();
  // The poison is sticky and shared: the sibling handle and new joiners
  // see it too.
  EXPECT_FALSE(p2->Push(Make(t + 100, type_a_, 1)).ok());
  EXPECT_FALSE(session->AddProducer().ok());
  ASSERT_TRUE(p1->Close().ok());
  ASSERT_TRUE(p2->Close().ok());
  // Close still shuts everything down, but the answer is incomplete, so
  // it reports the poison instead of OK.
  EXPECT_EQ(session->Close().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MpContractTest, LateJoinerAdmittedAtTheFrontier) {
  CollectingSink sink;
  auto session = Open(2, &sink);
  auto p1 = session->AddProducer().value();
  for (Timestamp t = 1; t <= 250; ++t) {
    ASSERT_TRUE(p1->Push(Make(t, t % 5 == 0 ? type_a_ : type_b_, 1)).ok());
  }
  // Wait for a frontier broadcast: the first window [0,100) closing
  // proves a watermark past t=100 was broadcast.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (session->MetricsSnapshot().emissions < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(session->MetricsSnapshot().emissions, 1);
  // A joiner is admitted at the merged frontier: events the merge already
  // passed are rejected synchronously on the new handle, not poisoned.
  auto p2 = session->AddProducer().value();
  Status old = p2->Push(Make(50, type_a_, 2));
  EXPECT_EQ(old.code(), StatusCode::kInvalidArgument) << old.ToString();
  EXPECT_TRUE(p2->Push(Make(1000, type_a_, 2)).ok());
  ASSERT_TRUE(p1->Close().ok());
  ASSERT_TRUE(p2->Close().ok());
  EXPECT_TRUE(session->Close().ok());
}

TEST_F(MpContractTest, WatermarkMergeHoldsForTheLaggard) {
  CollectingSink sink;
  auto session = Open(2, &sink);
  auto fast = session->AddProducer().value();
  auto slow = session->AddProducer().value();
  ASSERT_TRUE(slow->Push(Make(5, type_a_, 2)).ok());
  for (Timestamp t = 10; t <= 500; t += 5) {
    ASSERT_TRUE(fast->Push(Make(t, t % 25 == 0 ? type_a_ : type_b_, 1)).ok());
  }
  ASSERT_TRUE(fast->AdvanceTo(500).ok());
  // The merged frontier is pinned at the laggard's bound (t=6): only its
  // own event may merge; none of the fast producer's events can release
  // and no window may close, no matter how long we wait.
  const auto hold = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < hold) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  RunMetrics held = session->MetricsSnapshot();
  EXPECT_LE(held.events, 1) << "fast producer's events merged past laggard";
  EXPECT_EQ(held.emissions, 0);
  // The laggard's watermark releases everything.
  ASSERT_TRUE(slow->AdvanceTo(500).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (session->MetricsSnapshot().emissions < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(session->MetricsSnapshot().emissions, 1);
  ASSERT_TRUE(fast->Close().ok());
  ASSERT_TRUE(slow->Close().ok());
  EXPECT_TRUE(session->Close().ok());
}

TEST_F(MpContractTest, ProducerChurnPreservesEmissions) {
  // Build a reference stream: two groups, strictly increasing times.
  EventVector ev;
  for (Timestamp t = 1; t <= 600; ++t) {
    ev.push_back(Make(t, t % 7 == 0 ? type_a_ : type_b_,
                      static_cast<double>(t % 3)));
  }
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(*plan_, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok());
  ASSERT_GT(batch.emissions.size(), 0u);

  CollectingSink sink;
  auto session = Open(2, &sink, config);
  // Phase A: two producers split the first half even/odd, then leave.
  {
    auto pa = session->AddProducer().value();
    auto pb = session->AddProducer().value();
    for (size_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(((i % 2 == 0) ? pa : pb)->Push(ev[i]).ok());
    }
    ASSERT_TRUE(pa->Close().ok());
    ASSERT_TRUE(pb->Close().ok());
  }
  // Phase B: a fresh pair joins for the tail. Their admission bound is
  // at most the last merged time + 1 <= 301, so the tail is accepted.
  {
    auto pc = session->AddProducer().value();
    auto pd = session->AddProducer().value();
    for (size_t i = 300; i < ev.size(); ++i) {
      ASSERT_TRUE(((i % 2 == 0) ? pc : pd)->Push(ev[i]).ok());
    }
    ASSERT_TRUE(pc->AdvanceTo(ev.back().time).ok());
    ASSERT_TRUE(pd->AdvanceTo(ev.back().time).ok());
    ASSERT_TRUE(pc->Close().ok());
    ASSERT_TRUE(pd->Close().ok());
  }
  RunMetrics metrics = session->Close().value();
  ExpectSameEmissionSet(batch.emissions, sink.Take(), "producer-churn");
  EXPECT_EQ(metrics.events, batch.metrics.events);
}

TEST_F(MpContractTest, PoisonedCloseStillShutsDown) {
  CollectingSink sink;
  auto session = Open(2, &sink);
  auto p1 = session->AddProducer().value();
  auto p2 = session->AddProducer().value();
  ASSERT_TRUE(p1->Push(Make(10, type_a_, 1)).ok());
  ASSERT_TRUE(p2->Push(Make(10, type_b_, 1)).ok());
  ASSERT_TRUE(p1->Close().ok());
  ASSERT_TRUE(p2->Close().ok());
  // Close drains both rings, so the duplicate has surely merged by the
  // time it returns: it reports the poison, yet every thread is joined,
  // the final metrics stay readable and the session counts as closed.
  Result<RunMetrics> closed = session->Close();
  EXPECT_EQ(closed.status().code(), StatusCode::kInvalidArgument)
      << closed.status().ToString();
  EXPECT_EQ(session->MetricsSnapshot().events, 1);
  EXPECT_EQ(session->Close().status().code(),
            StatusCode::kFailedPrecondition);
}

// Many short-lived producers each join, push a few hundred events,
// publish a watermark and close at once, while one long-lived producer
// keeps pushing: the roster changes all the time under a running merge.
// Segment k of the stream is [k * kSegment, (k + 1) * kSegment). Segment 0
// belongs to the first short-lived producer alone, which joins before the
// long-lived one; in every later segment short-lived producer k takes the
// even times and the long-lived producer the odd ones, and the long-lived
// producer enters segment k only once producer k was admitted. Every
// admission bound is therefore at most k * kSegment, the joiner's first
// time, and each round must reproduce the batch run exactly.
TEST_F(MpContractTest, ShortLivedProducersBesideALongLivedOne) {
  constexpr int kSegments = 8;
  constexpr Timestamp kSegment = 400;
  constexpr int kRounds = 10;
  EventVector ev;
  for (Timestamp t = 1; t < kSegments * kSegment; ++t) {
    ev.push_back(Make(t, t % 7 == 0 ? type_a_ : type_b_,
                      static_cast<double>(t % 3)));
  }
  const Timestamp last = ev.back().time;
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(*plan_, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok());
  ASSERT_GT(batch.emissions.size(), 0u);
  auto segment_of = [](Timestamp t) { return static_cast<int>(t / kSegment); };
  auto short_lived = [&](Timestamp t) {
    return segment_of(t) == 0 || t % 2 == 0;
  };
  for (int round = 0; round < kRounds; ++round) {
    const std::string label = "round " + std::to_string(round);
    CollectingSink sink;
    auto session = Open(2, &sink, config);
    std::atomic<int> admitted_segment{0};
    auto run_short_lived = [&](int k) {
      Result<std::unique_ptr<Session::Producer>> handle =
          session->AddProducer();
      admitted_segment.store(k, std::memory_order_release);
      ASSERT_TRUE(handle.ok()) << label << ": " << handle.status().ToString();
      Session::Producer& producer = *handle.value();
      for (Timestamp t = std::max<Timestamp>(1, k * kSegment);
           t < (k + 1) * kSegment; ++t) {
        if (!short_lived(t)) continue;
        const Status pushed = producer.Push(ev[static_cast<size_t>(t - 1)]);
        ASSERT_TRUE(pushed.ok()) << label << ": " << pushed.ToString();
      }
      ASSERT_TRUE(
          producer.AdvanceTo(std::min((k + 1) * kSegment - 1, last)).ok());
      ASSERT_TRUE(producer.Close().ok());
    };
    run_short_lived(0);
    auto long_lived = session->AddProducer().value();
    std::thread long_thread([&] {
      for (const Event& e : ev) {
        if (short_lived(e.time)) continue;
        while (admitted_segment.load(std::memory_order_acquire) <
               segment_of(e.time)) {
          std::this_thread::yield();
        }
        const Status pushed = long_lived->Push(e);
        ASSERT_TRUE(pushed.ok()) << label << ": " << pushed.ToString();
      }
      ASSERT_TRUE(long_lived->AdvanceTo(last).ok());
      ASSERT_TRUE(long_lived->Close().ok());
    });
    for (int k = 1; k < kSegments; ++k) run_short_lived(k);
    long_thread.join();
    Result<RunMetrics> closed = session->Close();
    ASSERT_TRUE(closed.ok()) << label << ": " << closed.status().ToString();
    EXPECT_EQ(closed.value().events, batch.metrics.events) << label;
    ExpectSameEmissionSet(batch.emissions, sink.Take(), label);
  }
}

// OnEmission runs on the sequencer thread. A sink that opens a producer
// there, pushes one event above the frontier and closes the handle must
// neither deadlock (AddProducer returns once the sequencer admitted the
// handle, and here the caller IS the sequencer) nor lose the event.
TEST_F(MpContractTest, SinkAddsAProducerFromOnEmission) {
  constexpr Timestamp kLate = 5000;
  constexpr double kLateGroup = 7;
  class JoiningSink : public EmissionSink {
   public:
    JoiningSink(Session** session, Event late)
        : session_(session), late_(late) {}
    void OnEmission(const Emission& emission) override {
      emissions.push_back(emission);
      if (joined.load(std::memory_order_relaxed)) return;
      Result<std::unique_ptr<Session::Producer>> handle =
          (*session_)->AddProducer();
      status = handle.status();
      if (handle.ok()) {
        status = handle.value()->Push(late_);
        if (status.ok()) status = handle.value()->Close();
      }
      joined.store(true, std::memory_order_release);
    }
    std::vector<Emission> emissions;
    Status status;
    std::atomic<bool> joined{false};

   private:
    Session** session_;
    Event late_;
  };
  Session* raw = nullptr;
  JoiningSink sink(&raw, Make(kLate, type_a_, kLateGroup));
  RunConfig opened;
  opened.kind = EngineKind::kHamletDynamic;
  opened.num_shards = 2;
  auto session = Session::Open(*plan_, opened, &sink).value();
  raw = session.get();
  auto p1 = session->AddProducer().value();
  for (Timestamp t = 1; t <= 250; ++t) {
    ASSERT_TRUE(p1->Push(Make(t, t % 5 == 0 ? type_a_ : type_b_, 1)).ok());
  }
  // The first window [0,100) closes once the frontier passes it; its
  // emission reaches the sink on the sequencer thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sink.joined.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(sink.joined.load(std::memory_order_acquire));
  EXPECT_TRUE(sink.status.ok()) << sink.status.ToString();
  ASSERT_TRUE(p1->Close().ok());
  Result<RunMetrics> closed = session->Close();
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed.value().events, 251);
  const bool late_window_emitted = std::any_of(
      sink.emissions.begin(), sink.emissions.end(), [&](const Emission& e) {
        return e.group_key == static_cast<int64_t>(kLateGroup) &&
               e.window_start <= kLate && kLate < e.window_end;
      });
  EXPECT_TRUE(late_window_emitted);
}

// The hub driven by hand from one thread, producer calls and sequencer
// calls interleaved: at every step the frontier is at most the smallest
// element still in a ring, and every admission bound lies above each
// released time and at or above the floor the caller passes (the runtime
// passes its last broadcast watermark).
TEST(MpscIngestHubTest, SequencerOwnsTheRoster) {
  struct Item {
    int64_t time = 0;
  };
  using Hub = MpscIngestHub<Item>;
  Hub hub(/*ring_capacity=*/4);
  std::multiset<int64_t> unreleased;
  int64_t released_max = Hub::kTimeMin;
  auto expect_frontier_sound = [&](const std::string& at) {
    if (!unreleased.empty()) {
      EXPECT_LE(hub.Frontier(), *unreleased.begin()) << at;
    }
  };
  auto push = [&](int slot, int64_t t) {
    ASSERT_TRUE(hub.TryPush(slot, Item{t}));
    unreleased.insert(t);
    expect_frontier_sound("after push " + std::to_string(t));
  };
  auto drain = [&] {
    Item item;
    while (hub.TryNext(&item)) {
      ASSERT_FALSE(unreleased.empty());
      EXPECT_EQ(item.time, *unreleased.begin()) << "release order";
      unreleased.erase(unreleased.begin());
      released_max = std::max(released_max, item.time);
      expect_frontier_sound("after release " + std::to_string(item.time));
    }
    // Stuck: the frontier bounds every released time.
    EXPECT_GE(hub.Frontier(), released_max);
  };
  auto admit = [&](int slot, int64_t floor) {
    hub.AdmitRequested(floor);
    const int64_t bound = hub.AwaitAdmission(slot);  // admitted: no wait
    if (released_max != Hub::kTimeMin) {
      EXPECT_GT(bound, released_max);
    }
    EXPECT_GE(bound, floor);
    return bound;
  };

  const int a = hub.Request();
  ASSERT_GE(a, 0);
  EXPECT_EQ(admit(a, Hub::kTimeMin), Hub::kTimeMin);
  push(a, 10);
  push(a, 20);
  drain();
  EXPECT_EQ(hub.Frontier(), 21);
  // A requested slot is not on the roster yet: it cannot hold the merge
  // back, and it is admitted above what the merge released meanwhile.
  const int b = hub.Request();
  ASSERT_GE(b, 0);
  push(a, 30);
  drain();
  EXPECT_TRUE(unreleased.empty());
  EXPECT_EQ(admit(b, /*floor=*/15), 31);
  // Departure in stream order: a closes with an event still queued; the
  // frontier waits for it, and the slot stays held until it is drained.
  push(b, 40);
  push(a, 35);
  hub.CloseSlot(a);
  EXPECT_EQ(hub.Frontier(), 35);
  drain();
  EXPECT_TRUE(unreleased.empty());
  EXPECT_EQ(hub.Frontier(), 41);
  // With the roster empty the frontier is the largest final bound, which
  // only the sequencer writes, when it retires a drained slot.
  hub.PublishBound(b, 100);
  hub.CloseSlot(b);
  const int c = hub.Request();
  ASSERT_EQ(c, a) << "a drained slot is free again";
  drain();
  EXPECT_EQ(hub.Frontier(), 100);
  EXPECT_EQ(admit(c, /*floor=*/99), 99);
  EXPECT_EQ(hub.Frontier(), 99);
  // A closed slot whose ring still holds an element is not handed out.
  push(c, 150);
  hub.CloseSlot(c);
  for (int i = 1; i < Hub::kMaxProducers; ++i) {
    ASSERT_GE(hub.Request(), 0) << i;
  }
  EXPECT_EQ(hub.Request(), -1);
  drain();
  EXPECT_TRUE(unreleased.empty());
  EXPECT_EQ(hub.Request(), c);
}

}  // namespace
}  // namespace hamlet

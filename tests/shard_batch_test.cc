// Batched shard ingress tests.
//
// The core property extends shard-count invariance to ingress granularity:
// for every EngineKind, shard count (1/2/4/8) and shard_batch_size
// (1 = per-event hand-off through 1024 ≫ stream chunks), the emission set
// of a Session equals the single-threaded batch Run() on the same
// stream — staging, batch flushes, watermark barriers and the emission
// fan-in must never change *what* is computed, only how it is handed off.
// Also covered: RouterFor consistency with the session's own router,
// reentrant and closing sinks at one shard (inline) and several, delivery
// before AdvanceTo returns at one shard, Open's batching-knob validation,
// and backpressure with tiny queues and tiny batches at once.
//
// Registered in the ASan and TSan CI jobs next to sharded_session_test:
// together they drive every cross-thread path of the batched runtime —
// SPSC batch hand-off, buffer recycling, parking, outbox fan-in — under
// real concurrency.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/benchlib/workloads.h"
#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/runtime/session.h"
#include "src/stream/shard_router.h"

namespace hamlet {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

// Exact (bitwise) equality, except that two NaNs compare equal.
void ExpectSameValue(double a, double b, const std::string& label) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << label;
}

// Set equality via the shared normalized order: one emission per
// (query, group, window) makes the sorted sequences directly comparable.
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

struct ShardedResult {
  std::vector<Emission> emissions;
  RunMetrics metrics;
};

// Pushes `ev` through a Session in mixed granularity (singles via
// Push, chunks via PushBatch) with occasional interleaved watermarks (each
// one a staging-flush barrier) and a trailing watermark, then Close.
ShardedResult RunSharded(const WorkloadPlan& plan, RunConfig config,
                         int num_shards, int batch_size,
                         const EventVector& ev, int queue_capacity = 8192) {
  config.num_shards = num_shards;
  config.shard_batch_size = batch_size;
  config.shard_queue_capacity = queue_capacity;
  CollectingSink sink;
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, config, &sink);
  HAMLET_CHECK(session.ok());
  Rng rng(static_cast<uint64_t>(num_shards) * 1000 +
          static_cast<uint64_t>(batch_size));
  size_t i = 0;
  while (i < ev.size()) {
    size_t len = 1 + static_cast<size_t>(rng.NextBelow(100));
    len = std::min(len, ev.size() - i);
    Status s = len == 1 ? session.value()->Push(ev[i])
                        : session.value()->PushBatch(
                              std::span<const Event>(ev.data() + i, len));
    EXPECT_TRUE(s.ok()) << s.ToString();
    i += len;
    if (i < ev.size() && rng.NextBelow(8) == 0) {
      EXPECT_TRUE(session.value()->AdvanceTo(ev[i].time - 1).ok());
    }
  }
  if (!ev.empty()) {
    EXPECT_TRUE(session.value()->AdvanceTo(ev.back().time).ok());
  }
  ShardedResult out;
  out.metrics = session.value()->Close().value();
  out.emissions = sink.Take();
  return out;
}

EventVector RidesharingStream(uint64_t seed, int num_groups) {
  GeneratorConfig gen;
  gen.seed = seed;
  gen.events_per_minute = 600;
  gen.duration_minutes = 1;
  gen.num_groups = num_groups;
  gen.burstiness = 0.6;
  gen.max_burst = 8;
  return MakeGenerator("ridesharing")->Generate(gen);
}

TEST(BatchGranularityEquivalence, AllEnginesAllShardCounts) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  EventVector ev = RidesharingStream(/*seed=*/91, /*num_groups=*/8);
  for (EngineKind kind : kAllKinds) {
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*bw.plan, config);
    RunOutput batch = executor.Run(ev);
    ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
    ASSERT_GT(batch.emissions.size(), 0u) << EngineKindName(kind);
    for (int shards : {1, 2, 4, 8}) {
      ShardedResult sharded =
          RunSharded(*bw.plan, config, shards, /*batch_size=*/7, ev);
      const std::string label = std::string(EngineKindName(kind)) + "/N=" +
                                std::to_string(shards);
      ExpectSameEmissionSet(batch.emissions, sharded.emissions, label);
      EXPECT_EQ(batch.metrics.events, sharded.metrics.events) << label;
      EXPECT_EQ(batch.metrics.emissions, sharded.metrics.emissions) << label;
      EXPECT_EQ(batch.metrics.dnf_windows, sharded.metrics.dnf_windows)
          << label;
    }
  }
}

TEST(BatchGranularityEquivalence, BatchSizeSweep) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  EventVector ev = RidesharingStream(/*seed=*/92, /*num_groups=*/8);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(*bw.plan, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok());
  // 1 is the per-event hand-off baseline; 1024 exceeds every chunk, so all
  // flushes come from the watermark/Close barriers. The queue shrinks as
  // the batch grows: capacity counts messages, and Open rejects
  // capacity * batch products past kMaxQueuedEventsPerShard.
  for (int batch_size : {1, 2, 64, 1024}) {
    ShardedResult sharded =
        RunSharded(*bw.plan, config, /*num_shards=*/3, batch_size, ev,
                   /*queue_capacity=*/batch_size >= 1024 ? 512 : 8192);
    const std::string label = "batch=" + std::to_string(batch_size);
    ExpectSameEmissionSet(batch.emissions, sharded.emissions, label);
    EXPECT_EQ(batch.metrics.events, sharded.metrics.events) << label;
  }
}

// Tiny everything: a two-slot queue and three-event batches force the
// producer through backpressure on nearly every flush; results must not
// change.
TEST(BatchGranularityEquivalence, TinyQueueTinyBatchBackpressure) {
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 4, /*window_ms=*/2 * kMillisPerSecond);
  EventVector ev = RidesharingStream(/*seed=*/93, /*num_groups=*/8);
  RunConfig config;
  config.kind = EngineKind::kHamletDynamic;
  StreamExecutor executor(*bw.plan, config);
  RunOutput batch = executor.Run(ev);
  ASSERT_TRUE(batch.status.ok());
  ShardedResult sharded =
      RunSharded(*bw.plan, config, /*num_shards=*/3, /*batch_size=*/3, ev,
                 /*queue_capacity=*/2);
  ExpectSameEmissionSet(batch.emissions, sharded.emissions, "tiny");
  EXPECT_EQ(batch.metrics.events, sharded.metrics.events);
}

class ShardedContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_.AddAttr("v");
    schema_.AddAttr("g");
    ASSERT_TRUE(
        workload_
            .Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) GROUPBY g "
                            "WITHIN 100 ms")
                     .value())
            .ok());
    plan_ = std::make_unique<WorkloadPlan>(
        AnalyzeWorkload(workload_).value());
  }

  Event Make(Timestamp t, const char* type, double group = 0.0) {
    Event e(t, schema_.AddType(type));
    e.set_attr(0, 1.0);
    e.set_attr(1, group);
    return e;
  }

  Schema schema_;
  Workload workload_{&schema_};
  std::unique_ptr<WorkloadPlan> plan_;
};

TEST_F(ShardedContractTest, RouterForMatchesSessionRouter) {
  RunConfig config;
  config.num_shards = 4;
  Result<std::unique_ptr<Session>> session =
      Session::Open(*plan_, config, nullptr);
  ASSERT_TRUE(session.ok());
  Result<ShardRouter> standalone = Session::RouterFor(*plan_, 4);
  ASSERT_TRUE(standalone.ok());
  EXPECT_EQ(standalone.value().num_shards(), 4);
  EXPECT_EQ(standalone.value().partition_attr(),
            session.value()->router().partition_attr());
  for (int g = 0; g < 64; ++g) {
    Event e = Make(10 + g, "A", /*group=*/static_cast<double>(g));
    EXPECT_EQ(standalone.value().Route(e), session.value()->router().Route(e))
        << g;
  }
  ASSERT_TRUE(session.value()->Close().ok());
  // RouterFor fails exactly like Open on garbage shard counts.
  EXPECT_EQ(Session::RouterFor(*plan_, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// Sinks run on the front thread, so a feedback-style sink may call Push
// from OnEmission. The reentrant call must neither corrupt the fan-in
// scratch (reentrancy guard) nor, during Close's final drain, stage events
// no engine will ever process (the session is closed by then). At one
// shard the inline engine's emissions are delivered after its call
// returns, so the same holds there.
TEST_F(ShardedContractTest, ReentrantFeedbackSinkIsSafe) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunConfig config;
    config.num_shards = shards;
    config.shard_batch_size = 1;  // surface emissions promptly
    Session* raw = nullptr;
    int accepted = 0;
    int rejected = 0;
    // Far past every driver watermark below, near enough that Close's
    // pane-by-pane flush to the feedback windows stays cheap.
    Timestamp next_feedback = 100'000;
    CallbackSink sink([&](const Emission&) {
      if (raw == nullptr) return;
      Status s = raw->Push(Make(next_feedback++, "A"));
      if (s.ok()) {
        ++accepted;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
        ++rejected;
      }
    });
    Result<std::unique_ptr<Session>> session =
        Session::Open(*plan_, config, &sink);
    ASSERT_TRUE(session.ok());
    raw = session.value().get();
    ASSERT_TRUE(raw->Push(Make(10, "A")).ok());
    ASSERT_TRUE(raw->Push(Make(20, "B")).ok());
    // Drive drains with growing watermarks until the [0,100) emission fans
    // in and the sink's reentrant Push lands (then stop: the feedback
    // events are far in the future, so further small watermarks would
    // regress).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    Timestamp w = 500;
    while (accepted == 0 && std::chrono::steady_clock::now() < deadline) {
      ASSERT_TRUE(raw->AdvanceTo(w++).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(accepted, 1);
    // Close flushes the feedback events' windows; their emissions hit the
    // sink during the final drain, when the session is already closed.
    RunMetrics m = raw->Close().value();
    EXPECT_EQ(m.events, 2 + accepted);
    EXPECT_GE(rejected, 1);
  }
}

// A sink that calls Close() from OnEmission ("stop after first alert")
// interrupts a drain mid-iteration. Close's final fan-in must still
// deliver every remaining emission — including those of shards the
// interrupted drain had already passed, or at one shard those the inline
// engine buffered behind the interrupted round — and nothing may be
// delivered twice.
TEST_F(ShardedContractTest, CloseFromSinkDeliversEverything) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunConfig config;
    config.num_shards = shards;
    config.shard_batch_size = 1;
    Session* raw = nullptr;
    int received = 0;
    bool closed = false;
    int64_t emissions_at_close = -1;
    CallbackSink sink([&](const Emission&) {
      ++received;
      if (raw != nullptr && !closed) {
        closed = true;
        Result<RunMetrics> m = raw->Close();  // nested: inside a drain
        ASSERT_TRUE(m.ok());
        emissions_at_close = m.value().emissions;
      }
    });
    Result<std::unique_ptr<Session>> session =
        Session::Open(*plan_, config, &sink);
    ASSERT_TRUE(session.ok());
    raw = session.value().get();
    // Several groups so multiple shards hold emissions when Close
    // interrupts.
    for (int g = 0; g < 8; ++g) {
      ASSERT_TRUE(raw->Push(Make(10 + g, "A", static_cast<double>(g))).ok());
    }
    for (int g = 0; g < 8; ++g) {
      ASSERT_TRUE(
          raw->Push(Make(30 + g * 2, "B", static_cast<double>(g))).ok());
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    Timestamp w = 200;
    while (!closed && std::chrono::steady_clock::now() < deadline) {
      Status s = raw->AdvanceTo(w++);
      if (!s.ok()) break;  // the sink closed the session mid-drive
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(closed);
    // Every emission the closed session counted reached the sink exactly
    // once, despite the drain interruption.
    EXPECT_EQ(received, emissions_at_close);
    EXPECT_EQ(raw->Close().status().code(), StatusCode::kFailedPrecondition);
  }
}

// One shard runs its engine inline on the front thread: the emission of a
// window reaches the sink before the AdvanceTo that closes the window
// returns, with no polling and no worker to wait for.
TEST_F(ShardedContractTest, OneShardDeliversBeforeAdvanceToReturns) {
  CollectingSink sink;
  Result<std::unique_ptr<Session>> session =
      Session::Open(*plan_, RunConfig(), &sink);
  ASSERT_TRUE(session.ok());
  Session& s = *session.value();
  ASSERT_EQ(s.num_shards(), 1);
  ASSERT_TRUE(s.Push(Make(10, "A")).ok());
  ASSERT_TRUE(s.Push(Make(20, "B")).ok());
  ASSERT_TRUE(s.AdvanceTo(99).ok());
  EXPECT_TRUE(sink.emissions().empty());
  ASSERT_TRUE(s.AdvanceTo(100).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);
  EXPECT_EQ(sink.emissions()[0].window_start, 0);
  EXPECT_EQ(sink.emissions()[0].window_end, 100);
  EXPECT_EQ(sink.emissions()[0].value, 1.0);  // the trend (A@10, B@20)
  ASSERT_TRUE(s.Close().ok());
}

TEST_F(ShardedContractTest, OpenValidatesShardBatchSize) {
  RunConfig config;
  config.shard_batch_size = 0;
  Result<std::unique_ptr<Session>> r =
      Session::Open(*plan_, config, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("shard_batch_size"), std::string::npos);
}

// shard_queue_capacity counts MESSAGES, so its event footprint scales with
// shard_batch_size: capacity=8192/batch=1 buffers at most 8192 events while
// capacity=8192/batch=128 buffers ~1M. Open relates the two knobs
// explicitly — both extremes of the documented contract.
TEST_F(ShardedContractTest, OpenRelatesQueueCapacityToBatchSize) {
  // Low extreme: a big message queue of single-event batches is a small
  // event buffer — fine.
  RunConfig config;
  config.num_shards = 2;
  config.shard_queue_capacity = 8192;
  config.shard_batch_size = 1;
  EXPECT_TRUE(Session::Open(*plan_, config, nullptr).ok());
  // Default-shaped product right at ~1M events — fine.
  config.shard_batch_size = 128;
  EXPECT_TRUE(Session::Open(*plan_, config, nullptr).ok());
  // High extreme: the same capacity with huge batches implies an event
  // buffer past kMaxQueuedEventsPerShard; rejected, naming both knobs.
  config.shard_batch_size = 2048;
  ASSERT_GT(static_cast<int64_t>(config.shard_queue_capacity) *
                config.shard_batch_size,
            kMaxQueuedEventsPerShard);
  Result<std::unique_ptr<Session>> r =
      Session::Open(*plan_, config, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("shard_queue_capacity"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("shard_batch_size"), std::string::npos);
  EXPECT_NE(r.status().message().find("messages"), std::string::npos);
}

}  // namespace
}  // namespace hamlet

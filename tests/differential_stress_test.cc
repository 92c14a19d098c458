// Differential stress harness: ONE generated stream, replayed under a
// seeded random sample of runtime configurations — engine kind x shard
// count x ingest mode (session-level batches of varying size, optionally
// with query churn, or 1/2/4 concurrent producers, optionally with
// mid-stream producer churn) x work stealing (with or without idle-group
// eviction) x skew-aware first-sight placement x shard ring capacity (2
// and 16 wrap the ring and hit backpressure constantly) — asserting the emission set is
// bit-identical to the 1-shard reference every time: the batch Run, or
// with query churn a 1-shard Session given the same AddQuery (at 1/3 of
// the stream) and RemoveQuery (at 2/3), each with the sampled
// evict_idle_groups. Every documented emission-neutral knob has to
// actually be neutral, in combination, under real concurrency.
//
// The sample is drawn from a seed that is logged on entry and printed in
// every failure label, and overridable via --seed= / HAMLET_TEST_SEED
// (tests/test_seed.h), so any failure replays exactly. The tier-1 run
// samples a small config set; `ctest -C long` (differential_stress_long)
// replays the same stream under --stress_configs=50.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/benchlib/workloads.h"
#include "src/runtime/executor.h"
#include "src/runtime/session.h"
#include "tests/test_seed.h"

namespace hamlet {
namespace {

int g_stress_configs = 12;

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

struct StressConfig {
  EngineKind kind = EngineKind::kHamletDynamic;
  int shards = 1;
  int producers = 0;  // 0 = session-level ingest
  int push_batch = 16;
  int queue_capacity = 8192;
  bool stealing = false;
  bool evict = false;  // evict_idle_groups, sampled only with stealing
  int64_t rebalance_threshold = 0;
  bool churn = false;  // producer handles leave/join at mid-stream
  bool query_churn = false;  // AddQuery at 1/3, RemoveQuery at 2/3

  std::string Describe() const {
    std::string s = EngineKindName(kind);
    s += "/N=" + std::to_string(shards);
    s += producers == 0 ? "/session" : "/P=" + std::to_string(producers);
    s += "/push=" + std::to_string(push_batch);
    s += "/q=" + std::to_string(queue_capacity);
    if (stealing) s += "/steal";
    if (evict) s += "/evict";
    if (rebalance_threshold > 0) {
      s += "/rebal=" + std::to_string(rebalance_threshold);
    }
    if (churn) s += "/churn";
    if (query_churn) s += "/qchurn";
    return s;
  }
};

StressConfig SampleConfig(Rng& rng) {
  StressConfig c;
  c.kind = kAllKinds[rng.NextBelow(7)];
  c.shards = static_cast<int>(rng.NextBelow(4)) + 1;
  const int producer_choices[] = {0, 1, 2, 4};
  c.producers = producer_choices[rng.NextBelow(4)];
  const int push_choices[] = {1, 16, 64};
  c.push_batch = push_choices[rng.NextBelow(3)];
  const int queue_choices[] = {2, 16, RunConfig().shard_queue_capacity};
  c.queue_capacity = queue_choices[rng.NextBelow(3)];
  c.stealing = rng.NextBelow(2) == 1;
  c.rebalance_threshold = rng.NextBelow(2) == 1 ? 4 : 0;
  c.churn = c.producers >= 2 && rng.NextBelow(2) == 1;
  c.query_churn = c.producers == 0 && rng.NextBelow(2) == 1;
  c.evict = c.stealing && rng.NextBelow(2) == 1;
  return c;
}

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
    EXPECT_EQ(a.group_key, b.group_key) << at;
    EXPECT_EQ(a.window_start, b.window_start) << at;
    EXPECT_EQ(a.window_end, b.window_end) << at;
    ExpectSameValue(a.value, b.value, at);
  }
}

// Feeds `ev` through P concurrent producer handles; with `churn`, the
// first wave of handles retires at mid-stream and a fresh wave carries
// the tail.
void FeedProducers(Session* session, const EventVector& ev,
                   int num_producers, bool churn) {
  const size_t mid = churn ? ev.size() / 2 : ev.size();
  for (int phase = 0; phase < (churn ? 2 : 1); ++phase) {
    const size_t begin = phase == 0 ? 0 : mid;
    const size_t end = phase == 0 ? mid : ev.size();
    std::vector<std::unique_ptr<Session::Producer>> producers;
    for (int p = 0; p < num_producers; ++p) {
      producers.push_back(session->AddProducer().value());
    }
    std::vector<std::thread> threads;
    for (int p = 0; p < num_producers; ++p) {
      threads.emplace_back([&, p, begin, end] {
        Session::Producer& producer =
            *producers[static_cast<size_t>(p)];
        for (size_t i = begin + static_cast<size_t>(p); i < end;
             i += static_cast<size_t>(num_producers)) {
          ASSERT_TRUE(producer.Push(ev[i]).ok());
        }
        if (end == ev.size() && !ev.empty()) {
          ASSERT_TRUE(producer.AdvanceTo(ev.back().time).ok());
        }
        ASSERT_TRUE(producer.Close().ok());
      });
    }
    for (std::thread& t : threads) t.join();
  }
}

// Session-level ingest in `push_batch` chunks; with `churn`, `add` joins
// after the first third of the stream and `remove` leaves after the second.
void PushSessionLevel(Session& session, const EventVector& ev,
                      size_t push_batch, bool churn, const Query& add,
                      const std::string& remove) {
  const size_t cuts[] = {ev.size() / 3, 2 * ev.size() / 3, ev.size()};
  size_t j = 0;
  for (int phase = 0; phase < 3; ++phase) {
    const size_t end = churn ? cuts[phase] : ev.size();
    for (; j < end; j += std::min(push_batch, end - j)) {
      const size_t len = std::min(push_batch, end - j);
      Status s = session.PushBatch(std::span<const Event>(ev.data() + j, len));
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    if (!churn) break;
    if (phase == 0) {
      ASSERT_TRUE(session.AddQuery(add).ok());
    } else if (phase == 1) {
      ASSERT_TRUE(session.RemoveQuery(remove).ok());
    }
  }
  ASSERT_TRUE(session.AdvanceTo(ev.back().time).ok());
}

TEST(DifferentialStress, SampledConfigsMatchBatchReference) {
  const uint64_t seed = test::SeedOr(0x5EED5);
  BenchWorkload bw =
      MakeWorkload1("ridesharing", 6, /*window_ms=*/5 * kMillisPerSecond);
  GeneratorConfig gen;
  gen.seed = seed;
  gen.events_per_minute = 900;
  gen.duration_minutes = 1;
  gen.num_groups = 8;
  gen.burstiness = 0.7;
  gen.max_burst = 10;
  EventVector ev = bw.generator->Generate(gen);
  ASSERT_FALSE(ev.empty());

  // Query churn adds a finer-grained sibling of the first query (its
  // windows span two panes) and removes the second query.
  Query add = bw.plan->workload->query(0);
  add.name = "churn_add";
  add.window = WindowSpec::Sliding(add.window.within, add.window.within / 2);
  const std::string remove = bw.plan->workload->query(1).name;

  // One reference per (engine kind, query churn, eviction), computed on
  // demand: the batch Run, or a 1-shard Session with the churn ops.
  std::map<std::tuple<EngineKind, bool, bool>, RunOutput> references;
  auto reference = [&](EngineKind kind, bool churn,
                       bool evict) -> const RunOutput& {
    auto it = references.find({kind, churn, evict});
    if (it == references.end()) {
      RunConfig config;
      config.kind = kind;
      config.evict_idle_groups = evict;
      RunOutput out;
      if (churn) {
        CollectingSink sink;
        std::unique_ptr<Session> session =
            Session::Open(*bw.plan, config, &sink).value();
        PushSessionLevel(*session, ev, ev.size(), churn, add, remove);
        out.metrics = session->Close().value();
        out.emissions = sink.Take();
      } else {
        out = StreamExecutor(*bw.plan, config).Run(ev);
      }
      it = references.emplace(std::make_tuple(kind, churn, evict),
                              std::move(out))
               .first;
      EXPECT_TRUE(it->second.status.ok()) << it->second.status.ToString();
      EXPECT_GT(it->second.emissions.size(), 0u) << EngineKindName(kind);
    }
    return it->second;
  };

  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  for (int i = 0; i < g_stress_configs; ++i) {
    const StressConfig sc = SampleConfig(rng);
    const std::string label = "seed=" + std::to_string(seed) + " config#" +
                              std::to_string(i) + " " + sc.Describe();
    SCOPED_TRACE(label);
    RunConfig config;
    config.kind = sc.kind;
    config.num_shards = sc.shards;
    config.shard_queue_capacity = sc.queue_capacity;
    config.work_stealing = sc.stealing;
    config.evict_idle_groups = sc.evict;
    config.shard_rebalance_threshold = sc.rebalance_threshold;
    CollectingSink sink;
    Result<std::unique_ptr<Session>> opened =
        Session::Open(*bw.plan, config, &sink);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Session& session = *opened.value();
    if (sc.producers == 0) {
      PushSessionLevel(session, ev, static_cast<size_t>(sc.push_batch),
                       sc.query_churn, add, remove);
    } else {
      FeedProducers(&session, ev, sc.producers, sc.churn);
    }
    Result<RunMetrics> metrics = session.Close();
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    const RunOutput& ref = reference(sc.kind, sc.query_churn, sc.evict);
    ExpectSameEmissionSet(ref.emissions, sink.Take(), label);
    EXPECT_EQ(ref.metrics.events, metrics.value().events) << label;
    EXPECT_EQ(ref.metrics.emissions, metrics.value().emissions) << label;
    if (!sc.stealing) {
      EXPECT_EQ(metrics.value().stolen_panes, 0) << label;
    }
  }
}

}  // namespace
}  // namespace hamlet

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--stress_configs=", 17) == 0) {
      hamlet::g_stress_configs = std::atoi(argv[i] + 17);
    }
  }
  return hamlet::test::RunSeededSuite(argc, argv);
}

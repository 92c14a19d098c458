// Unit tests for src/common: QuerySet, Rng, Status/Result, Table, stats,
// the SPSC ring.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/memory_meter.h"
#include "src/common/query_set.h"
#include "src/common/rng.h"
#include "src/common/spsc_queue.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"

namespace hamlet {
namespace {

TEST(QuerySetTest, InsertContainsErase) {
  QuerySet s;
  EXPECT_TRUE(s.Empty());
  s.Insert(0);
  s.Insert(63);
  s.Insert(64);
  s.Insert(255);
  EXPECT_EQ(s.Count(), 4);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(63));
  EXPECT_TRUE(s.Contains(64));
  EXPECT_TRUE(s.Contains(255));
  EXPECT_FALSE(s.Contains(1));
  s.Erase(63);
  EXPECT_FALSE(s.Contains(63));
  EXPECT_EQ(s.Count(), 3);
}

TEST(QuerySetTest, SetAlgebra) {
  QuerySet a = QuerySet::FirstN(5);           // {0..4}
  QuerySet b;
  b.Insert(3);
  b.Insert(4);
  b.Insert(7);
  EXPECT_EQ(a.Union(b).Count(), 6);
  EXPECT_EQ(a.Intersect(b).Count(), 2);
  EXPECT_EQ(a.Minus(b).Count(), 3);
  EXPECT_TRUE(a.Intersect(b).IsSubsetOf(a));
  EXPECT_TRUE(a.Intersect(b).IsSubsetOf(b));
  EXPECT_FALSE(a.IsSubsetOf(b));
}

TEST(QuerySetTest, ForEachVisitsInOrder) {
  QuerySet s;
  s.Insert(70);
  s.Insert(2);
  s.Insert(130);
  std::vector<QueryId> seen;
  s.ForEach([&](QueryId q) { seen.push_back(q); });
  EXPECT_EQ(seen, (std::vector<QueryId>{2, 70, 130}));
  EXPECT_EQ(s.First(), 2);
  EXPECT_EQ(s.ToString(), "{2,70,130}");
}

TEST(QuerySetTest, SingleAndFirstN) {
  EXPECT_EQ(QuerySet::Single(9).Count(), 1);
  EXPECT_TRUE(QuerySet::Single(9).Contains(9));
  EXPECT_EQ(QuerySet::FirstN(0).Count(), 0);
  EXPECT_EQ(QuerySet::FirstN(100).Count(), 100);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, RangesRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, BurstLengthDistribution) {
  Rng rng(11);
  double total = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) total += rng.NextBurstLength(0.9, 1000);
  // Mean of 1 + Geometric(0.9) is 10.
  EXPECT_NEAR(total / kSamples, 10.0, 0.5);
  for (int i = 0; i < 100; ++i) EXPECT_LE(rng.NextBurstLength(0.99, 7), 7);
}

TEST(RngTest, PoissonMean) {
  Rng rng(13);
  double total = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) total += rng.NextPoisson(4.0);
  EXPECT_NEAR(total / kSamples, 4.0, 0.15);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "invalid_argument: bad");
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(TableTest, AlignedAndCsv) {
  Table t({"a", "metric"});
  t.AddRow({"1", "2.5"});
  t.AddRow({"1000", "x"});
  std::string aligned = t.ToAligned();
  EXPECT_NE(aligned.find("| a    | metric |"), std::string::npos);
  EXPECT_EQ(t.ToCsv(), "a,metric\n1,2.5\n1000,x\n");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(2.5, 1), "2.5");
  EXPECT_EQ(Table::Num(0.0), "0.000");
  // Very large/small magnitudes switch to scientific notation.
  EXPECT_NE(Table::Num(1e9).find("e"), std::string::npos);
}

TEST(RunningStatsTest, Moments) {
  RunningStats s;
  s.Add(1.0);
  s.Add(3.0);
  s.Add(5.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(PercentilesTest, InterpolatedQuantiles) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_NEAR(p.Percentile(50), 50.5, 0.01);
  EXPECT_DOUBLE_EQ(p.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.Percentile(100), 100.0);
}

TEST(MemoryMeterTest, TracksPeak) {
  MemoryMeter m;
  m.Add(100);
  m.Add(50);
  m.Sub(120);
  EXPECT_EQ(m.current(), 30);
  EXPECT_EQ(m.peak(), 150);
  m.SetCurrent(500);
  EXPECT_EQ(m.peak(), 500);
}

TEST(SpscQueueTest, PushPopFifoAndCapacity) {
  SpscQueue<int> q(3);  // rounds up to 4
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_EQ(q.Peek(), nullptr);
  EXPECT_EQ(q.ApproxSize(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(std::move(i)));
  EXPECT_EQ(q.ApproxSize(), 4u);
  int overflow = 99;
  EXPECT_FALSE(q.TryPush(std::move(overflow)));
  EXPECT_EQ(overflow, 99);  // left intact for retry
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    EXPECT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  int out;
  EXPECT_FALSE(q.TryPop(&out));
}

// Regression: TryPop used to leave the moved-from payload in its ring slot,
// so up to `capacity` popped heap-backed buffers (the sharded runtime's
// event batches) stayed alive inside the queue — retained memory invisible
// to the memory meter. A popped slot must release its payload immediately.
TEST(SpscQueueTest, PopReleasesSlotPayload) {
  SpscQueue<std::shared_ptr<int>> q(8);
  const size_t cap = q.capacity();
  std::vector<std::shared_ptr<int>> payloads;
  // Several laps around the ring so every slot has held a payload.
  for (size_t lap = 0; lap < 3; ++lap) {
    for (size_t i = 0; i < cap; ++i) {
      auto p = std::make_shared<int>(static_cast<int>(i));
      payloads.push_back(p);
      ASSERT_TRUE(q.TryPush(std::move(p)));
    }
    for (size_t i = 0; i < cap; ++i) {
      std::shared_ptr<int> out;
      ASSERT_TRUE(q.TryPop(&out));
      ASSERT_NE(out, nullptr);
      out.reset();
    }
  }
  // The queue is empty and every pop consumer released its copy: nothing
  // may still co-own the payloads. Pre-fix, the last `cap` pushes were
  // still referenced by their ring slots (use_count 2).
  for (const auto& p : payloads) {
    EXPECT_EQ(p.use_count(), 1) << "ring slot retains a popped payload";
  }
}

// The consumer's span view: a readable run that crosses the end of the
// storage comes back as two spans, in queue order.
TEST(SpscQueueTest, ReadableWrapsIntoTwoSpans) {
  SpscQueue<int> q(4);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.TryPush(i));
  std::array<std::span<int>, 2> r = q.Readable(2);
  ASSERT_EQ(r[0].size(), 2u);
  EXPECT_TRUE(r[1].empty());
  q.Consume(2);
  EXPECT_EQ(q.popped(), 2u);
  // Slots 3, 0 and 1 take the next three: the readable run 2, 3, 4, 5
  // starts at slot 2 and wraps after slot 3.
  for (int i = 3; i < 6; ++i) ASSERT_TRUE(q.TryPush(i));
  EXPECT_EQ(q.pushed(), 6u);
  r = q.Readable(SIZE_MAX);
  ASSERT_EQ(r[0].size(), 2u);
  ASSERT_EQ(r[1].size(), 2u);
  EXPECT_EQ(r[0][0], 2);
  EXPECT_EQ(r[0][1], 3);
  EXPECT_EQ(r[1][0], 4);
  EXPECT_EQ(r[1][1], 5);
  // A bound inside the first span cuts there; one inside the second cuts
  // the second.
  r = q.Readable(1);
  EXPECT_EQ(r[0].size(), 1u);
  EXPECT_TRUE(r[1].empty());
  r = q.Readable(3);
  EXPECT_EQ(r[0].size(), 2u);
  EXPECT_EQ(r[1].size(), 1u);
  q.Consume(4);
  r = q.Readable(SIZE_MAX);
  EXPECT_TRUE(r[0].empty());
  EXPECT_TRUE(r[1].empty());
  EXPECT_EQ(q.Peek(), nullptr);
}

// A 2-slot ring under backpressure: the producer is refused while both
// slots are readable, and Consume frees exactly the slots it is given.
TEST(SpscQueueTest, CapacityTwoBackpressureAndConsume) {
  SpscQueue<int> q(2);
  ASSERT_EQ(q.capacity(), 2u);
  ASSERT_TRUE(q.TryPush(10));
  ASSERT_TRUE(q.TryPush(11));
  EXPECT_FALSE(q.TryPush(12));
  EXPECT_EQ(q.ApproxSize(), 2u);
  // Reading does not free a slot; only Consume does.
  std::array<std::span<int>, 2> r = q.Readable(SIZE_MAX);
  ASSERT_EQ(r[0].size() + r[1].size(), 2u);
  EXPECT_FALSE(q.TryPush(12));
  q.Consume(1);
  EXPECT_EQ(q.ApproxSize(), 1u);
  ASSERT_TRUE(q.TryPush(12));
  EXPECT_FALSE(q.TryPush(13));
  r = q.Readable(SIZE_MAX);
  ASSERT_EQ(r[0].size(), 1u);
  ASSERT_EQ(r[1].size(), 1u);
  EXPECT_EQ(r[0][0], 11);
  EXPECT_EQ(r[1][0], 12);
  q.Consume(2);
  EXPECT_EQ(q.Peek(), nullptr);
  EXPECT_EQ(q.popped(), 3u);
}

// Consume destroys what it frees, so a consumed payload is released at
// once, and the ring's destructor releases what was never consumed.
TEST(SpscQueueTest, ConsumeReleasesPayloads) {
  auto payload = std::make_shared<int>(7);
  {
    SpscQueue<std::shared_ptr<int>> q(4);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.TryPush(payload));
    EXPECT_EQ(payload.use_count(), 4);
    q.Consume(2);
    EXPECT_EQ(payload.use_count(), 2);
  }
  EXPECT_EQ(payload.use_count(), 1);
}

// One producer thread and one consumer thread: the consumer takes spans
// and frees them, and sees every value once, in order, across many wraps.
TEST(SpscQueueTest, SpanConsumerSeesEveryValueInOrder) {
  constexpr uint64_t kValues = 200'000;
  SpscQueue<uint64_t> q(64);
  std::thread producer([&q] {
    for (uint64_t v = 0; v < kValues; ++v) {
      while (!q.TryPush(v)) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  bool in_order = true;
  while (expected < kValues) {
    const std::array<std::span<uint64_t>, 2> r = q.Readable(SIZE_MAX);
    size_t n = 0;
    for (std::span<uint64_t> span : r) {
      for (uint64_t v : span) {
        in_order = in_order && v == expected;
        ++expected;
        ++n;
      }
    }
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    q.Consume(n);
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(q.popped(), kValues);
  EXPECT_EQ(q.Peek(), nullptr);
}

}  // namespace
}  // namespace hamlet

// Columnar hot-path tests.
//
// Pins down the three contracts of the columnar hot path:
//  1. EQUIVALENCE — for every engine kind and shard count, a ShardedSession
//     yields the BIT-IDENTICAL emission set of a plain single-threaded
//     Session (values compared with EXPECT_EQ, not tolerances).
//  2. KERNEL SEMANTICS — CmpColumnKernel/TypeGateAnd/PackMask/
//     MaskedLinAggKernel agree element-for-element with the scalar row path
//     (EvalCmp), including IEEE NaN behaviour and empty/full selections.
//  3. ALLOCATION — steady-state HAMLET evaluation performs ZERO heap
//     allocations per event (arena-pooled graphlets + Expr/CtxMap small
//     buffers), enforced with global operator new/delete counters.
#include <gtest/gtest.h>

#include <atomic>

// This file replaces the global allocator with a malloc-backed counting
// one; GCC's heuristic pairing of allocation/deallocation calls does not
// know that and flags `std::free` on new-ed pointers.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "src/benchlib/workloads.h"
#include "src/common/arena.h"
#include "src/query/columnar_predicate.h"
#include "src/query/parser.h"
#include "src/runtime/executor.h"
#include "src/runtime/sharded_session.h"
#include "src/stream/event_batch.h"
#include "src/stream/stream_builder.h"

// ---------------------------------------------------------------------------
// Global allocation counters. Interposing replaceable operator new/delete is
// the one observation point that sees EVERY heap allocation in the process
// (std::vector growth, node push_back, map rebalancing...), works under
// ASan, and needs no allocator hooks in the production code.
namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocation_count{0};

void NoteAllocation() {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  NoteAllocation();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  NoteAllocation();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace hamlet {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::kHamletDynamic, EngineKind::kHamletStatic,
    EngineKind::kHamletNoShare, EngineKind::kGretaGraph,
    EngineKind::kGretaPrefix,   EngineKind::kTwoStep,
    EngineKind::kSharon};

constexpr CmpOp kAllOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                             CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};

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

// Runs `ev` through a ShardedSession in fixed-size chunks and returns the
// normalized emission set.
std::vector<Emission> RunSharded(const WorkloadPlan& plan,
                                 const RunConfig& config, int shards,
                                 const EventVector& ev) {
  RunConfig cfg = config;
  cfg.num_shards = shards;
  CollectingSink sink;
  Result<std::unique_ptr<ShardedSession>> session =
      ShardedSession::Open(plan, cfg, &sink);
  HAMLET_CHECK(session.ok());
  constexpr size_t kChunk = 64;
  for (size_t i = 0; i < ev.size(); i += kChunk) {
    const size_t len = std::min(kChunk, ev.size() - i);
    Status s = session.value()->PushBatch(
        std::span<const Event>(ev.data() + i, len));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  if (!ev.empty()) {
    EXPECT_TRUE(session.value()->AdvanceTo(ev.back().time).ok());
  }
  EXPECT_TRUE(session.value()->Close().ok());
  return sink.Take();
}

// ---------------------------------------------------------------------------
// 1. Sharded-vs-plain emission equivalence, all engines x shard counts.

void CheckRowColumnarEquivalence(const BenchWorkload& bw,
                                 const EventVector& ev,
                                 const std::string& workload_label) {
  for (EngineKind kind : kAllKinds) {
    // Baseline: plain single-threaded Session.
    RunConfig config;
    config.kind = kind;
    StreamExecutor executor(*bw.plan, config);
    RunOutput baseline = executor.Run(ev);
    ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
    ASSERT_GT(baseline.emissions.size(), 0u)
        << workload_label << "/" << EngineKindName(kind);

    for (int shards : {1, 2, 4, 8}) {
      std::vector<Emission> got = RunSharded(*bw.plan, config, shards, ev);
      ExpectSameEmissionSet(baseline.emissions, got,
                            workload_label + "/" + EngineKindName(kind) +
                                "/N=" + std::to_string(shards));
    }
  }
}

TEST(RowColumnarEquivalence, Workload1WithPredicatesAllEnginesAllShards) {
  BenchWorkload bw = MakeWorkload1("ridesharing", 5,
                                   /*window_ms=*/5 * kMillisPerSecond,
                                   /*with_predicate=*/true);
  GeneratorConfig gen;
  gen.seed = 1234;
  gen.events_per_minute = 500;
  gen.duration_minutes = 1;
  gen.num_groups = 8;
  gen.burstiness = 0.6;
  gen.max_burst = 8;
  EventVector ev = bw.generator->Generate(gen);
  CheckRowColumnarEquivalence(bw, ev, "w1");
}

TEST(RowColumnarEquivalence, Workload2DiverseAllEnginesAllShards) {
  BenchWorkload bw = MakeWorkload2(6);
  // Kept deliberately small: the two-step baseline's trend enumeration is
  // superlinear in Kleene-run length, and this sweep runs it 5 times
  // (baseline + 4 shard counts) under ASan in CI.
  GeneratorConfig gen;
  gen.seed = 99;
  gen.events_per_minute = 150;
  gen.duration_minutes = 1;
  gen.num_groups = 4;
  gen.burstiness = 0.5;
  gen.max_burst = 4;
  EventVector ev = bw.generator->Generate(gen);
  CheckRowColumnarEquivalence(bw, ev, "w2");
}

// ---------------------------------------------------------------------------
// 2. Kernel unit tests.

TEST(PredicateKernels, CmpColumnKernelMatchesEvalCmpIncludingNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> col = {-3.5, 0.0, -0.0, 2.0,  2.0000001,
                                   nan,  inf, -inf, 7.25, 2.0};
  const std::vector<double> constants = {2.0, 0.0, nan, -inf};
  std::vector<uint8_t> out(col.size());
  for (CmpOp op : kAllOps) {
    for (double c : constants) {
      CmpColumnKernel(op, col.data(), static_cast<int>(col.size()), c,
                      out.data());
      for (size_t i = 0; i < col.size(); ++i) {
        EXPECT_EQ(out[i] != 0, EvalCmp(op, col[i], c))
            << CmpOpName(op) << " col[" << i << "]=" << col[i]
            << " const=" << c;
      }
    }
  }
}

TEST(PredicateKernels, TypeGateOnlyConstrainsOwnType) {
  const std::vector<TypeId> types = {0, 1, 0, 2, 1, 0};
  const std::vector<uint8_t> pass = {0, 0, 1, 0, 1, 0};
  std::vector<uint8_t> acc(types.size(), 1);
  TypeGateAnd(types.data(), static_cast<int>(types.size()), /*type=*/1,
              pass.data(), acc.data());
  // Rows of other types are untouched; type-1 rows take their pass bit.
  const std::vector<uint8_t> expect = {1, 0, 1, 1, 1, 1};
  EXPECT_EQ(acc, expect);
}

TEST(PredicateKernels, PackMaskAndSelectionMaskEdges) {
  // 70 rows crosses the word boundary; pattern 1 0 1 0 ...
  std::vector<uint8_t> bytes(70);
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = (i % 2 == 0) ? 1 : 0;
  SelectionMask mask;
  PackMask(bytes.data(), static_cast<int>(bytes.size()), &mask);
  EXPECT_EQ(mask.rows(), 70);
  EXPECT_EQ(mask.CountSelected(), 35);
  for (int i = 0; i < 70; ++i) EXPECT_EQ(mask.Test(i), i % 2 == 0) << i;

  SelectionMask all;
  all.AssignAll(70);
  EXPECT_EQ(all.CountSelected(), 70);  // tail bits beyond row 70 are clear
  SelectionMask none;
  none.AssignNone(70);
  EXPECT_EQ(none.CountSelected(), 0);
  for (int i = 0; i < 70; ++i) {
    EXPECT_TRUE(all.Test(i));
    EXPECT_FALSE(none.Test(i));
  }
}

TEST(PredicateKernels, MaskedLinAggMatchesScalarLoop) {
  const std::vector<double> col = {1.5, -2.0, 4.25, 0.0, 100.0, -7.5};
  const std::vector<uint8_t> mask = {1, 0, 1, 1, 0, 1};
  double count = 0.0, sum = 0.0;
  MaskedLinAggKernel(col.data(), mask.data(), static_cast<int>(col.size()),
                     &count, &sum);
  double want_count = 0.0, want_sum = 0.0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (mask[i]) {
      want_count += 1.0;
      want_sum += col[i];
    }
  }
  EXPECT_EQ(count, want_count);
  EXPECT_EQ(sum, want_sum);
}

TEST(PredicateKernels, ProgramEvalBatchEmptyAndFullSelections) {
  Schema schema;
  Workload workload{&schema};
  workload.Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                          "WHERE B.x > 100 WITHIN 1 s")
                   .value())
      .ok();
  workload.Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                          "WHERE B.x > -100 WITHIN 1 s")
                   .value())
      .ok();
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  PredicateProgram program = CompilePredicateProgram(plan).value();
  ASSERT_EQ(program.predicated_queries().size(), 2u);

  StreamBuilder sb(&schema);
  sb.Add("A", {1.0});
  sb.AddRun(5, "B", {2.0});  // 2 > -100, not > 100
  EventBatch batch = EventBatch::FromRows(sb.Take(), schema.num_attrs());
  BatchSelection sel;
  program.EvalBatch(batch, &sel);
  ASSERT_EQ(sel.masks.size(), 2u);
  // Query 0 (x > 100): B rows fail, the A row passes (type gate).
  // Query 1 (x > -100): every row passes.
  EXPECT_EQ(sel.masks[0].CountSelected(), 1);
  EXPECT_EQ(sel.masks[1].CountSelected(), batch.size());
  for (int i = 0; i < batch.size(); ++i) {
    Event row;
    batch.CopyRow(i, &row);
    EXPECT_EQ(sel.masks[0].Test(i), program.EvalRow(0, row)) << i;
    EXPECT_EQ(sel.masks[1].Test(i), program.EvalRow(1, row)) << i;
  }
}

// ---------------------------------------------------------------------------
// EventBatch round-trip.

TEST(EventBatchTest, RoundTripIsBitIdentical) {
  EventBatch batch(2);
  std::vector<Event> rows;
  Event e;
  e.time = 5;
  e.type = 1;
  e.num_attrs = 2;
  e.attrs[0] = 1.5;
  e.attrs[1] = -0.0;
  rows.push_back(e);
  Event narrow;  // fewer attrs than the batch's columns
  narrow.time = 6;
  narrow.type = 0;
  narrow.num_attrs = 1;
  narrow.attrs[0] = 42.0;
  rows.push_back(narrow);
  Event wide;  // more attrs than the batch started with: widens
  wide.time = 7;
  wide.type = 2;
  wide.num_attrs = 4;
  wide.attrs[0] = 1;
  wide.attrs[1] = 2;
  wide.attrs[2] = 3;
  wide.attrs[3] = std::numeric_limits<double>::quiet_NaN();
  rows.push_back(wide);
  for (const Event& r : rows) batch.Append(r);

  auto expect_rows = [&](const std::string& label) {
    ASSERT_EQ(batch.size(), 3) << label;
    EXPECT_EQ(batch.num_attr_columns(), 4) << label;  // widened by row 3
    for (int i = 0; i < batch.size(); ++i) {
      Event got;
      batch.CopyRow(i, &got);
      const Event& want = rows[static_cast<size_t>(i)];
      EXPECT_EQ(got.time, want.time) << label << i;
      EXPECT_EQ(got.type, want.type) << label << i;
      EXPECT_EQ(got.num_attrs, want.num_attrs) << label << i;
      for (int a = 0; a < Event::kMaxAttrs; ++a) {
        ExpectSameValue(got.attrs[static_cast<size_t>(a)],
                        want.attrs[static_cast<size_t>(a)],
                        label + " row " + std::to_string(i) + " attr " +
                            std::to_string(a));
      }
    }
    // Widening zero-padded the earlier rows' new columns.
    EXPECT_EQ(batch.column(3)[0], 0.0) << label;
    EXPECT_EQ(batch.column(3)[1], 0.0) << label;
  };
  expect_rows("append");
  // Clear keeps the shape.
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.num_attr_columns(), 4);
  // Assign re-stages in place: the same rows as Clear + Append, and a
  // shorter batch shrinks it.
  batch = EventBatch(2);
  batch.Assign(rows);
  expect_rows("assign");
  batch.Assign(std::span<const Event>(&narrow, 1));
  ASSERT_EQ(batch.size(), 1);
  EXPECT_EQ(batch.time(0), 6);
  EXPECT_EQ(batch.column(0)[0], 42.0);
  EXPECT_EQ(batch.column(3)[0], 0.0);
}

// ---------------------------------------------------------------------------
// Open-time validation (satellite: unresolved predicate -> kInvalidArgument
// at Session::Open, not a per-event DCHECK later).

TEST(OpenValidation, UnresolvedPredicateAttrFailsOpen) {
  Schema schema;
  Workload workload{&schema};
  workload.Add(ParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B+) "
                          "WHERE B.x > 1 WITHIN 1 s")
                   .value())
      .ok();
  WorkloadPlan plan = AnalyzeWorkload(workload).value();
  // Corrupt the resolved attribute id the way a schema/plan mismatch would.
  ASSERT_FALSE(plan.exec_queries.empty());
  ASSERT_FALSE(plan.exec_queries[0].event_predicates.empty());
  plan.exec_queries[0].event_predicates[0].attr = 99;

  CollectingSink sink;
  Result<std::unique_ptr<Session>> session =
      Session::Open(plan, RunConfig(), &sink);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument)
      << session.status().ToString();
}

// ---------------------------------------------------------------------------
// Arena / ObjectPool.

TEST(ArenaTest, BumpAllocationAndReset) {
  Arena arena(/*block_bytes=*/256);
  EXPECT_EQ(arena.bytes_reserved(), 0);
  void* a = arena.Allocate(64, 8);
  void* b = arena.Allocate(64, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  const int64_t reserved = arena.bytes_reserved();
  EXPECT_GE(reserved, 256);
  // Oversize request gets its own block.
  void* big = arena.Allocate(4096, 16);
  ASSERT_NE(big, nullptr);
  EXPECT_GT(arena.bytes_reserved(), reserved);
  // Reset rewinds without releasing; reservation is monotone.
  const int64_t peak = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.bytes_reserved(), peak);
  EXPECT_EQ(arena.bytes_used(), 0);
  void* a2 = arena.Allocate(64, 8);
  EXPECT_EQ(a2, a);  // first block rewound, same bump start
}

TEST(ArenaTest, AlignmentIsHonored) {
  Arena arena;
  for (size_t align : {size_t{8}, size_t{16}, size_t{64}}) {
    void* p = arena.Allocate(24, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << align;
  }
}

struct PoolProbe {
  std::vector<int> payload;
  int recycles = 0;
  void Recycle() {
    payload.clear();  // logical reset, capacity kept
    ++recycles;
  }
};

TEST(ObjectPoolTest, AcquireReleaseRecyclesWithCapacitiesKept) {
  ObjectPool<PoolProbe> pool;
  PoolProbe* a = pool.Acquire();
  a->payload.assign(100, 7);
  const size_t warmed = a->payload.capacity();
  pool.Release(a);
  EXPECT_EQ(pool.num_live(), 0);
  EXPECT_EQ(pool.num_free(), 1);
  PoolProbe* b = pool.Acquire();
  EXPECT_EQ(b, a);  // LIFO reuse
  EXPECT_EQ(b->recycles, 1);
  EXPECT_TRUE(b->payload.empty());
  EXPECT_GE(b->payload.capacity(), warmed);  // Recycle kept the capacity
  PoolProbe* c = pool.Acquire();
  EXPECT_NE(c, b);
  EXPECT_EQ(pool.objects().size(), 2u);
  EXPECT_GT(pool.bytes_reserved(), 0);
}

// ---------------------------------------------------------------------------
// 3. Zero-steady-state-allocation regression.
//
// Warm a session until every capacity (staging batch, selection bitmaps,
// pooled graphlet node vectors, snapshot store) has seen its steady-state
// size, then assert that pushing another same-pane burst — half as one
// PushBatch, half as per-event Push calls (1-row runs) — performs ZERO heap
// allocations. Kleene bursts are the paper's stress axis, so this is
// exactly the loop that used to pay one malloc/free per graphlet and
// several per event.
//
// With `scan_query`, an edge-predicate query joins (MAX does not share with
// COUNT, so it scans in its own solo lane) and the measured burst moves to
// the pane after the warm-up: its window opened at that boundary, so its
// scan columns must be the closed window's, recycled with their capacity.

void CheckZeroSteadyStateAllocations(EngineKind kind,
                                     bool scan_query = false) {
  Schema schema;
  Workload workload{&schema};
  std::vector<const char*> texts = {
      "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.x > 0 WITHIN 1 s",
      "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE B.x > 0 WITHIN 1 s"};
  if (scan_query) {
    texts.push_back(
        "RETURN MAX(B.x) PATTERN SEQ(A, B+) WHERE prev.x <= next.x WITHIN "
        "1 s");
  }
  for (const char* text : texts) {
    HAMLET_CHECK(workload.Add(ParseQuery(text).value()).ok());
  }
  WorkloadPlan plan = AnalyzeWorkload(workload).value();

  RunConfig config;
  config.kind = kind;
  // No sink: emissions drop, so window closes cannot allocate in a sink
  // buffer (closures happen outside the measured region anyway).
  Result<std::unique_ptr<Session>> opened =
      Session::Open(plan, config, /*sink=*/nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Session& session = *opened.value();

  // "x" is the first attribute registered -> attr id 0. No GROUPBY, so
  // every event lands in group 0.
  auto push_run = [&](Timestamp start, const char* type, int n, double x) {
    EventVector ev;
    ev.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Event e;
      e.time = start + i;
      e.type = schema.FindType(type);
      e.num_attrs = 1;
      e.attrs[0] = x;
      ev.push_back(e);
    }
    ASSERT_TRUE(session.PushBatch(ev).ok());
  };

  // Pane 0 (window [0, 1000)): warm the staging batch / selection scratch to
  // 600 rows and the pool's graphlet node vectors past the later burst.
  push_run(1, "A", 1, 1.0);
  push_run(10, "B", 600, 1.0);
  // Pane 1: fresh windows/contexts/graphlets from the warmed pools. The
  // 600-event run grows THIS pane's open B graphlet capacity beyond what
  // the measured burst appends (600 + 200 stays under the doubled vector
  // capacity), regardless of which recycled pool object the lane drew.
  push_run(1000, "A", 1, 1.0);
  push_run(1005, "C", 1, 1.0);
  push_run(1010, "B", 600, 1.0);

  // Measured region: one more same-pane burst, the first half staged and
  // dispatched as one batch, the rest pushed one event at a time. Events
  // stay inside one pane, so no windows open or close and no graphlets are
  // acquired — pure steady-state appends. A scan query's burst comes in
  // pane 2, after the A and C that open it and the B that opens the burst.
  Timestamp start = 1700;
  if (scan_query) {
    push_run(2000, "A", 1, 1.0);
    push_run(2005, "C", 1, 1.0);
    push_run(2010, "B", 1, 1.0);
    start = 2011;
  }
  EventVector burst;
  for (int i = 0; i < 200; ++i) {
    Event e;
    e.time = start + i;
    e.type = schema.FindType("B");
    e.num_attrs = 1;
    e.attrs[0] = 1.0;
    burst.push_back(e);
  }
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const size_t half = burst.size() / 2;
  Status pushed = session.PushBatch(std::span<const Event>(burst.data(), half));
  for (size_t i = half; i < burst.size() && pushed.ok(); ++i) {
    pushed = session.Push(burst[i]);
  }
  g_count_allocations.store(false);
  ASSERT_TRUE(pushed.ok()) << pushed.ToString();
  EXPECT_EQ(g_allocation_count.load(), 0)
      << EngineKindName(kind)
      << ": steady-state hamlet hot loop allocated on the heap";

  ASSERT_TRUE(session.Close().ok());
}

TEST(ZeroAllocation, SharedPathSteadyStateAllocatesNothing) {
  CheckZeroSteadyStateAllocations(EngineKind::kHamletStatic);
}

TEST(ZeroAllocation, SoloPathSteadyStateAllocatesNothing) {
  CheckZeroSteadyStateAllocations(EngineKind::kHamletNoShare);
}

TEST(ZeroAllocation, ScanningSoloPathSteadyStateAllocatesNothing) {
  CheckZeroSteadyStateAllocations(EngineKind::kHamletNoShare,
                                  /*scan_query=*/true);
}

TEST(ZeroAllocation, ScanningDynamicSteadyStateAllocatesNothing) {
  CheckZeroSteadyStateAllocations(EngineKind::kHamletDynamic,
                                  /*scan_query=*/true);
}

}  // namespace
}  // namespace hamlet

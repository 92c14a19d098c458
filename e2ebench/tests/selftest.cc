// Self-tests of the benchmark's measurement code (no session involved):
// percentiles and their sample-count rule, open-loop lateness under an
// injected clock, error_rate on corrupted emissions, span self time and the
// CPU rotation of single-threaded replays.
// Run with `python3 e2ebench/run.py --selftest`; exits nonzero on failure.
#ifdef __linux__
#include <sched.h>
#endif

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "e2ebench/src/measure.h"

namespace e2ebench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  Expect(Near(Quantile(v, 0.5), 50.5), "p50 of 1..100 is 50.5");
  Expect(Near(Quantile(v, 0.99), 99.01), "p99 of 1..100 is 99.01");
  Expect(Near(Quantile(v, 0.0), 1.0) && Near(Quantile(v, 1.0), 100.0),
         "p0/p100 are min/max");
  Expect(Quantile({}, 0.5) == 0.0, "empty sample gives 0");
  Expect(PercentileSupported(1000, 0.99), "p99 of 1000 has 10 beyond");
  Expect(!PercentileSupported(999, 0.99), "p99 of 999 lacks 10 beyond");
  Expect(PercentileSupported(20, 0.5), "p50 of 20 has 10 beyond");
  Expect(!PercentileSupported(19, 0.5), "p50 of 19 lacks 10 beyond");

  // The pooled histogram agrees with the exact rank to its bucket width.
  LogHistogram h;
  std::vector<double> exact;
  for (int i = 1; i <= 10000; ++i) {
    const double v = 1e-6 * i;  // 1 us .. 10 ms
    h.Add(v);
    exact.push_back(v);
  }
  h.Add(std::nan(""));  // ignored
  Expect(h.count() == 10000, "histogram counts every finite sample");
  for (double q : {0.5, 0.99}) {
    const double want = exact[static_cast<size_t>(q * 10000) - 1];
    Expect(std::fabs(h.Quantile(q) / want - 1.0) <= 0.005,
           "histogram quantile within one 0.5% bucket");
  }
  Expect(LogHistogram().Quantile(0.5) == 0.0, "empty histogram gives 0");
}

void TestOpenLoopLateness() {
  // The injected clock advances 0.25 s per reading (spinning) and 2 s per
  // push (a slow system). The schedule must not wait for the system: the
  // late tick takes everything that fell due, up to the churn cut at 3.
  double clock = 0.0;
  auto now = [&] {
    const double t = clock;
    clock += 0.25;
    return t;
  };
  std::vector<std::pair<size_t, size_t>> pushes;
  size_t pushed = 0;
  auto push = [&](size_t b, size_t e) {
    pushes.emplace_back(b, e);
    pushed = e;
    clock += 2.0;
  };
  std::vector<size_t> cut_calls;
  size_t pushed_at_cut = 0;
  auto at_cut = [&](size_t at) {
    cut_calls.push_back(at);
    pushed_at_cut = pushed;
  };
  const std::vector<double> due = {0.0, 0.5, 1.0, 5.0, 5.1};
  const std::vector<double> late = RunOpenLoop(due, {3}, now, push, at_cut);
  const std::vector<double> want = {0.0, 1.75, 1.25, 0.0, 2.15};
  bool same = late.size() == want.size();
  for (size_t i = 0; same && i < want.size(); ++i) {
    same = std::fabs(late[i] - want[i]) < 1e-9;
  }
  Expect(same, "lateness per event under the injected clock");
  const std::vector<std::pair<size_t, size_t>> want_pushes = {
      {0, 1}, {1, 3}, {3, 4}, {4, 5}};
  Expect(pushes == want_pushes, "ticks push everything due, split at the cut");
  Expect(cut_calls == std::vector<size_t>{3} && pushed_at_cut == 3,
         "churn runs once, after exactly the events before it");
}

void TestErrorRate() {
  std::vector<EmissionRow> want;
  for (int q = 0; q < 4; ++q) {
    for (int w = 0; w < 25; ++w) want.push_back({q, 7, w * 1000, 1.0 + w});
  }
  std::vector<EmissionRow> got = want;
  got[3].value *= 1 + 1e-12;  // within tolerance
  got[5].value *= 1 + 1e-3;   // corrupted value
  got.erase(got.begin() + 9);  // missing row
  got.push_back({9, 7, 0, 1.0});  // extra row
  const CheckResult r = CompareEmissions(got, want, kRelTolerance);
  Expect(r.wrong == 1 && r.missing == 1 && r.extra == 1,
         "one wrong, one missing, one extra");
  Expect(r.checked == 101, "checked = reference rows + extra rows");
  Expect(Near(ErrorRate(0, 10, {r}), 3.0 / 111.0),
         "error_rate = errors / (calls + checked)");
  Expect(Near(ErrorRate(2, 10, {}), 2.0 / 10.0), "failed calls count");
  const CheckResult exact = CompareEmissions(got, want, 0.0);
  Expect(exact.wrong == 2, "zero tolerance flags last-bit differences");
  Expect(CompareEmissions(want, want, 0.0).errors() == 0, "identical sets");
}

void TestSelfTime() {
  using S = Tracer::Span;
  // parent [0,10]; children [1,3] and [2,5] overlap (recorded from two
  // threads) and [9,12] runs past the parent's end; [1.5,2] is a grandchild.
  std::vector<S> spans = {
      {0, -1, 1, 0.0, 10.0},
      {1, 0, 1, 1.0, 3.0},
      {1, 0, 1, 2.0, 5.0},
      {1, 0, 1, 9.0, 12.0},
      {2, 1, 1, 1.5, 2.0},
  };
  const std::vector<double> self = SelfTimes(spans);
  Expect(Near(self[0], 5.0), "parent self = 10 - |[1,5] u [9,10]|");
  Expect(Near(self[1], 1.5), "child self = 2 - grandchild 0.5");
  Expect(Near(self[2], 3.0) && Near(self[3], 3.0) && Near(self[4], 0.5),
         "leaf self = duration");

  Tracer t(true);
  const int32_t outer = t.Name("outer");
  const int32_t inner = t.Name("inner");
  {
    ScopedSpan a(t, outer);
    ScopedSpan b(t, inner);
  }
  Expect(t.spans().size() == 2 && t.spans()[1].parent == 0,
         "nested ScopedSpans link child to parent");
  Tracer off(false);
  { ScopedSpan a(off, off.Name("x")); }
  Expect(off.spans().empty(), "a disabled tracer records nothing");
}

void TestCpuRotation() {
#ifdef __linux__
  cpu_set_t before;
  CPU_ZERO(&before);
  Expect(sched_getaffinity(0, sizeof(before), &before) == 0, "read affinity");
  {
    CpuRotation rotation;
    Expect(rotation.cpus() == static_cast<size_t>(CPU_COUNT(&before)),
           "rotation covers every allowed CPU");
    std::set<int> seen;
    for (size_t i = 0; i < 2 * rotation.cpus(); ++i) {
      rotation.Next();
      cpu_set_t now;
      CPU_ZERO(&now);
      Expect(sched_getaffinity(0, sizeof(now), &now) == 0 && CPU_COUNT(&now) == 1,
             "Next pins to one CPU");
      seen.insert(sched_getcpu());
    }
    Expect(seen.size() == rotation.cpus(), "two rounds visit every CPU");
  }
  cpu_set_t after;
  CPU_ZERO(&after);
  Expect(sched_getaffinity(0, sizeof(after), &after) == 0 &&
             CPU_EQUAL(&before, &after),
         "destruction restores the original CPU set");
#endif
}

}  // namespace
}  // namespace e2ebench

int main() {
  e2ebench::TestPercentiles();
  e2ebench::TestOpenLoopLateness();
  e2ebench::TestErrorRate();
  e2ebench::TestSelfTime();
  e2ebench::TestCpuRotation();
  if (e2ebench::failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", e2ebench::failures);
    return 1;
  }
  std::printf("e2ebench self-tests passed\n");
  return 0;
}

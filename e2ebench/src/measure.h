// Measurement primitives of the end-to-end benchmark, kept free of session
// code so tests/selftest.cc can drive them with synthetic inputs:
//  * percentiles with the sample-count rule the reports follow,
//  * the open-loop schedule (lateness per event under any clock),
//  * the emission check against a reference run,
//  * in-memory spans with self-time accounting.
#ifndef E2EBENCH_MEASURE_H_
#define E2EBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2ebench {

/// Seconds on the steady clock.
double NowSeconds();
/// CPU seconds consumed by every thread of this process.
double ProcessCpuSeconds();
/// Resident-set high-water mark of this process, in bytes.
int64_t PeakRssBytes();

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// CPU per Next() call, and gives it back its original CPU set on
/// Restore() or destruction. On a shared host each vCPU runs at its own
/// speed at any moment (the host's other tenants contend per core), and the
/// kernel keeps a busy thread on one CPU for seconds, so an unpinned
/// single-threaded replay measures whichever vCPU it landed on. Rotating
/// lets every run sample all of them alike. A no-op off Linux.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU of the original set.
  void Next();
  /// Restores the original CPU set.
  void Restore();
  /// CPUs in the original set (0 when affinity is unavailable).
  size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
  bool pinned_ = false;
};

/// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation between
/// closest ranks. Sorts a copy; 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

/// True when the q-quantile of `count` samples has at least `beyond` samples
/// above it: count * (1 - q) >= beyond. The reports print a tail percentile
/// only when this holds for beyond = 10.
bool PercentileSupported(size_t count, double q, size_t beyond = 10);

/// Fixed-memory sample distribution over positive durations (seconds), with
/// log-spaced buckets 0.5% wide from 100 ns to 100 s; smaller values land
/// in the first bucket, larger in the last. Quantiles are exact to the
/// bucket width, so a run can pool millions of samples in 33 KiB.
class LogHistogram {
 public:
  LogHistogram();
  void Add(double seconds);
  int64_t count() const { return count_; }
  /// The q-quantile's bucket midpoint; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

/// One query result, reduced to what the check compares.
struct EmissionRow {
  int32_t query = 0;
  int64_t group = 0;
  int64_t window_start = 0;
  double value = 0.0;
};

/// Outcome of comparing one replay's emissions against the reference.
struct CheckResult {
  int64_t checked = 0;  ///< reference rows plus extra rows
  int64_t wrong = 0;    ///< same key, value outside the tolerance
  int64_t missing = 0;  ///< in the reference only
  int64_t extra = 0;    ///< in the replay only
  double max_rel_error = 0.0;

  int64_t errors() const { return wrong + missing + extra; }
};

/// Relative tolerance for emission values: |a - b| <= kRelTolerance *
/// max(|a|, |b|). Sums and averages over shared and unshared propagation
/// differ in the last bits (measured max ~4e-15 on the stock workload).
inline constexpr double kRelTolerance = 1e-9;

/// Sorts both sides by (query, group, window_start) and compares them.
/// `tolerance` 0 demands bit-identical values.
CheckResult CompareEmissions(std::vector<EmissionRow> got,
                             std::vector<EmissionRow> want, double tolerance);

/// error_rate = errors / (calls + checked emissions).
double ErrorRate(int64_t failed_calls, int64_t calls,
                 const std::vector<CheckResult>& checks);

/// Open-loop replay core. Event i is due at `due[i]` (absolute seconds on
/// `now`'s clock). Each tick reads the clock once, then hands every event
/// already due to `push(begin, end)` in one call, never crossing a position
/// in `cuts` (ascending event indices where the caller runs a churn op:
/// `at_cut(pos)` is called once every event before `pos` was pushed). The
/// schedule never slows down when `push` is slow: a late tick simply takes
/// everything that fell due meanwhile. Returns each event's lateness, the
/// tick's clock reading minus its due time.
template <typename Clock, typename Push, typename AtCut>
std::vector<double> RunOpenLoop(const std::vector<double>& due,
                                const std::vector<size_t>& cuts, Clock&& now,
                                Push&& push, AtCut&& at_cut) {
  std::vector<double> lateness(due.size(), 0.0);
  size_t next_cut = 0;
  size_t i = 0;
  while (i < due.size()) {
    while (next_cut < cuts.size() && cuts[next_cut] <= i) {
      at_cut(cuts[next_cut]);
      ++next_cut;
    }
    const size_t limit = next_cut < cuts.size() ? cuts[next_cut] : due.size();
    const double t = now();
    if (due[i] > t) continue;  // spin: nothing due yet
    size_t j = i;
    while (j < limit && due[j] <= t) {
      lateness[j] = t - due[j];
      ++j;
    }
    push(i, j);
    i = j;
  }
  while (next_cut < cuts.size()) at_cut(cuts[next_cut++]);
  return lateness;
}

/// In-memory spans: name, start, end, parent span and run id. One tracer
/// per thread; Begin/End nest like a call stack.
class Tracer {
 public:
  struct Span {
    int32_t name = 0;
    int32_t parent = -1;
    int32_t run = 0;
    double start = 0.0;
    double end = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Interns `name` (any string; call once per name, outside timed code).
  int32_t Name(const std::string& name);

  /// Starts a new run id; spans opened afterwards carry it.
  int32_t NewRun() { return ++run_; }

  /// Opens a span whose parent is the innermost open span. Returns its
  /// index, or -1 when disabled.
  int32_t Begin(int32_t name);
  void End(int32_t index);

  /// Appends another tracer's spans as roots of this one (spans recorded on
  /// another thread, whose parent links do not cross threads).
  void Adopt(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self times (or plain durations) of every span named `name`.
  std::vector<double> SelfTimesOf(int32_t name) const;
  std::vector<double> DurationsOf(int32_t name) const;

  /// Writes names and spans as one JSON document.
  bool WriteJson(std::FILE* out) const;

 private:
  bool enabled_;
  int32_t run_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Each span's duration minus the part of it its child spans cover
/// (children clipped to the parent; overlapping children counted once).
std::vector<double> SelfTimes(const std::vector<Tracer::Span>& spans);

/// RAII span on a tracer (no-op when disabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, int32_t name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_MEASURE_H_

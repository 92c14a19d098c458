#include "e2ebench/src/measure.h"

#include <sys/resource.h>
#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <tuple>

namespace e2ebench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // Linux: KiB
}

#ifdef __linux__
CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_ % cpus_.size()], &set);
  ++next_;
  if (sched_setaffinity(0, sizeof(set), &set) == 0) pinned_ = true;
}

void CpuRotation::Restore() {
  if (!pinned_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) == 0) pinned_ = false;
}
#else
CpuRotation::CpuRotation() = default;
void CpuRotation::Next() {}
void CpuRotation::Restore() {}
#endif

CpuRotation::~CpuRotation() { Restore(); }

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

bool PercentileSupported(size_t count, double q, size_t beyond) {
  return static_cast<double>(count) * (1.0 - q) >=
         static_cast<double>(beyond);
}

namespace {

constexpr double kHistMin = 1e-7;
constexpr double kHistGrowth = 1.005;
const double kHistLogGrowth = std::log(kHistGrowth);
const size_t kHistBuckets =
    static_cast<size_t>(std::ceil(std::log(1e2 / kHistMin) / kHistLogGrowth)) + 1;

bool KeyLess(const EmissionRow& a, const EmissionRow& b) {
  return std::tie(a.query, a.group, a.window_start) <
         std::tie(b.query, b.group, b.window_start);
}

}  // namespace

LogHistogram::LogHistogram() : buckets_(kHistBuckets, 0) {}

void LogHistogram::Add(double seconds) {
  if (std::isnan(seconds)) return;
  size_t b = 0;
  if (seconds > kHistMin) {
    const double pos = std::log(seconds / kHistMin) / kHistLogGrowth;
    b = std::min(kHistBuckets - 1, static_cast<size_t>(pos));
  }
  ++buckets_[b];
  ++count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Rank of the q-quantile among count_ samples, 1-based.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
  int64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      return kHistMin * std::pow(kHistGrowth, static_cast<double>(b) + 0.5);
    }
  }
  return kHistMin * std::pow(kHistGrowth, static_cast<double>(kHistBuckets));
}

CheckResult CompareEmissions(std::vector<EmissionRow> got,
                             std::vector<EmissionRow> want, double tolerance) {
  std::sort(got.begin(), got.end(), KeyLess);
  std::sort(want.begin(), want.end(), KeyLess);
  CheckResult r;
  size_t i = 0;
  size_t j = 0;
  while (i < got.size() || j < want.size()) {
    ++r.checked;
    if (j == want.size() || (i < got.size() && KeyLess(got[i], want[j]))) {
      ++r.extra;
      ++i;
    } else if (i == got.size() || KeyLess(want[j], got[i])) {
      ++r.missing;
      ++j;
    } else {
      // Equal keys pair one to one, so a duplicated key on one side is
      // counted as extra or missing on a later step.
      const double a = got[i].value;
      const double b = want[j].value;
      if (!(a == b || (std::isnan(a) && std::isnan(b)))) {
        const double diff = std::fabs(a - b);
        const double scale = std::max(std::fabs(a), std::fabs(b));
        const double rel = scale > 0 ? diff / scale : diff;
        r.max_rel_error = std::max(r.max_rel_error, rel);
        if (!(rel <= tolerance)) ++r.wrong;
      }
      ++i;
      ++j;
    }
  }
  return r;
}

double ErrorRate(int64_t failed_calls, int64_t calls,
                 const std::vector<CheckResult>& checks) {
  int64_t errors = failed_calls;
  int64_t attempted = calls;
  for (const CheckResult& c : checks) {
    errors += c.errors();
    attempted += c.checked;
  }
  return attempted == 0 ? 0.0
                        : static_cast<double>(errors) /
                              static_cast<double>(attempted);
}

int32_t Tracer::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int32_t>(i);
  }
  names_.push_back(name);
  return static_cast<int32_t>(names_.size() - 1);
}

int32_t Tracer::Begin(int32_t name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  s.start = NowSeconds();
  spans_.push_back(s);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end = NowSeconds();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Adopt(const Tracer& other) {
  if (!enabled_) return;
  for (Span s : other.spans_) {
    s.name = Name(other.names_[static_cast<size_t>(s.name)]);
    s.parent = -1;
    spans_.push_back(s);
  }
}

std::vector<double> SelfTimes(const std::vector<Tracer::Span>& spans) {
  // Children of one parent may overlap only if recorded from several
  // threads; merge their intervals so overlap is not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& p = spans[i];
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0.0;
    double cur_start = 0.0;
    double cur_end = -1.0;
    bool open = false;
    for (auto [a, b] : k) {
      a = std::max(a, p.start);
      b = std::min(b, p.end);
      if (b <= a) continue;
      if (open && a <= cur_end) {
        cur_end = std::max(cur_end, b);
      } else {
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
    }
    if (open) covered += cur_end - cur_start;
    self[i] = (p.end - p.start) - covered;
  }
  return self;
}

std::vector<double> Tracer::SelfTimesOf(int32_t name) const {
  const std::vector<double> self = SelfTimes(spans_);
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i]);
  }
  return out;
}

std::vector<double> Tracer::DurationsOf(int32_t name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

bool Tracer::WriteJson(std::FILE* out) const {
  std::fprintf(out, "{\"names\":[");
  for (size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i ? "," : "", names_[i].c_str());
  }
  std::fprintf(out,
               "],\n\"fields\":[\"name\",\"start_s\",\"end_s\",\"parent\","
               "\"run\"],\n\"spans\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s[%d,%.9f,%.9f,%d,%d]", i ? ",\n" : "", s.name,
                 s.start, s.end, s.parent, s.run);
  }
  std::fprintf(out, "\n]}\n");
  return std::ferror(out) == 0;
}

}  // namespace e2ebench

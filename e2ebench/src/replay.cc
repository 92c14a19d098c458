#include "e2ebench/src/replay.h"

#include <algorithm>

namespace e2ebench {

using hamlet::Event;
using hamlet::Result;
using hamlet::RunMetrics;
using hamlet::Status;
using hamlet::Timestamp;

Result<std::unique_ptr<Target>> Target::Open(const hamlet::WorkloadPlan& plan,
                                             const hamlet::RunConfig& config,
                                             Ingest ingest,
                                             hamlet::EmissionSink* sink) {
  std::unique_ptr<Target> t(new Target());
  if (ingest == Ingest::kSession) {
    auto s = hamlet::Session::Open(plan, config, sink);
    if (!s.ok()) return s.status();
    t->session_ = std::move(s).value();
    return t;
  }
  auto s = hamlet::ShardedSession::Open(plan, config, sink);
  if (!s.ok()) return s.status();
  t->sharded_ = std::move(s).value();
  if (ingest == Ingest::kProducer) {
    auto p = t->sharded_->AddProducer();
    if (!p.ok()) return p.status();
    t->producer_ = std::move(p).value();
  }
  return t;
}

Status Target::Push(std::span<const Event> events) {
  if (producer_) return producer_->PushBatch(events);
  if (sharded_) return sharded_->PushBatch(events);
  return session_->PushBatch(events);
}

Status Target::AddQuery(const hamlet::Query& query) {
  auto r = sharded_ ? sharded_->AddQuery(query) : session_->AddQuery(query);
  return r.status();
}

Status Target::RemoveQuery(const std::string& name) {
  auto r = sharded_ ? sharded_->RemoveQuery(name) : session_->RemoveQuery(name);
  return r.status();
}

Status Target::AdvanceToEnd(Timestamp last_time) {
  if (producer_) {
    Status s = producer_->AdvanceTo(last_time);
    Status c = producer_->Close();
    return s.ok() ? c : s;
  }
  return sharded_ ? sharded_->AdvanceTo(last_time)
                  : session_->AdvanceTo(last_time);
}

Result<RunMetrics> Target::Close() {
  return sharded_ ? sharded_->Close() : session_->Close();
}

RunMetrics Target::Snapshot() const {
  return sharded_ ? sharded_->MetricsSnapshot() : session_->MetricsSnapshot();
}

void RecordingSink::Reset(Tracer* tracer, int32_t span_name) {
  tracer_ = tracer != nullptr && tracer->enabled() ? tracer : nullptr;
  span_name_ = span_name;
  scheduled_ = false;
  const size_t expect = static_cast<size_t>(count());
  count_.store(0, std::memory_order_relaxed);
  rows_.clear();
  latencies_.clear();
  rows_.reserve(expect);
}

void RecordingSink::SetSchedule(double t0, Timestamp ts0, double wall_per_ms,
                                Timestamp last_ts) {
  scheduled_ = true;
  t0_ = t0;
  ts0_ = ts0;
  wall_per_ms_ = wall_per_ms;
  last_ts_ = last_ts;
  latencies_.reserve(rows_.capacity());
}

void RecordingSink::OnEmission(const hamlet::Emission& e) {
  const int32_t span = tracer_ ? tracer_->Begin(span_name_) : -1;
  if (scheduled_ && e.window_end <= last_ts_) {
    const double due =
        t0_ + static_cast<double>(e.window_end - ts0_) * wall_per_ms_;
    latencies_.push_back(NowSeconds() - due);
  }
  rows_.push_back({e.query, e.group_key, e.window_start, e.value});
  count_.fetch_add(1, std::memory_order_relaxed);
  if (tracer_) tracer_->End(span);
}

namespace {

/// Span names the replays record (interned once per tracer).
struct SpanNames {
  explicit SpanNames(Tracer& t)
      : push(t.Name("push")),
        churn_add(t.Name("add_query")),
        churn_remove(t.Name("remove_query")),
        advance(t.Name("advance_to")),
        close(t.Name("close")) {}
  int32_t push, churn_add, churn_remove, advance, close;
};

/// Shared replay state: the target plus call accounting.
class Run {
 public:
  Run(const ReplayEnv& env, RecordingSink& sink, ReplayResult& out)
      : env_(env),
        sink_(sink),
        out_(out),
        tracer_(env.tracer != nullptr ? *env.tracer : off_),
        names_(tracer_) {
    Tracer* sink_tracer =
        env.ingest == Ingest::kProducer ? env.sink_tracer : env.tracer;
    sink_.Reset(sink_tracer, sink_tracer ? sink_tracer->Name("sink") : 0);
  }

  bool Open() {
    auto t = Target::Open(*env_.plan, env_.config, env_.ingest, &sink_);
    ++out_.calls;
    if (!t.ok()) {
      Fail(t.status());
      return false;
    }
    target_ = std::move(t).value();
    return true;
  }

  bool Push(size_t begin, size_t end) {
    if (failed_) return false;
    const int64_t before = sink_.count();
    Status s;
    {
      ScopedSpan span(tracer_, names_.push);
      s = target_->Push(env_.events.subspan(begin, end - begin));
    }
    ++out_.calls;
    if (env_.ingest != Ingest::kProducer) {
      out_.emissions_per_push_max =
          std::max(out_.emissions_per_push_max, sink_.count() - before);
    }
    if (!s.ok()) Fail(s);
    return s.ok();
  }

  void Churn(size_t at) {
    for (const ResolvedChurn& c : env_.churn) {
      if (c.at != at || failed_) continue;
      const double t = NowSeconds();
      Status s;
      if (c.op->add) {
        ScopedSpan span(tracer_, names_.churn_add);
        s = target_->AddQuery(*c.query);
        out_.add_query_s += NowSeconds() - t;
      } else {
        ScopedSpan span(tracer_, names_.churn_remove);
        s = target_->RemoveQuery(c.op->name);
        out_.remove_query_s += NowSeconds() - t;
      }
      ++out_.calls;
      if (!s.ok()) Fail(s);
      out_.epochs_max =
          std::max(out_.epochs_max, target_->Snapshot().active_epochs);
    }
  }

  void Close() {
    if (!env_.events.empty()) {
      ScopedSpan span(tracer_, names_.advance);
      Status s = target_->AdvanceToEnd(env_.events.back().time);
      ++out_.calls;
      if (!s.ok()) Fail(s);
    }
    Result<RunMetrics> m = [&] {
      ScopedSpan span(tracer_, names_.close);
      return target_->Close();
    }();
    ++out_.calls;
    if (m.ok()) {
      out_.metrics = m.value();
    } else {
      Fail(m.status());
    }
  }

  void Collect() {
    target_.reset();
    out_.emissions = sink_.rows();
    out_.latency_s = sink_.latencies();
  }

  std::vector<size_t> Cuts() const {
    std::vector<size_t> cuts;
    for (const ResolvedChurn& c : env_.churn) cuts.push_back(c.at);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    return cuts;
  }

 private:
  void Fail(const Status& s) {
    ++out_.failed_calls;
    if (out_.first_error.empty()) out_.first_error = s.ToString();
    failed_ = true;
  }

  const ReplayEnv& env_;
  RecordingSink& sink_;
  ReplayResult& out_;
  Tracer off_{false};
  Tracer& tracer_;
  SpanNames names_;
  std::unique_ptr<Target> target_;
  bool failed_ = false;
};

constexpr size_t kBatch = 512;

}  // namespace

ReplayResult ClosedLoop(const ReplayEnv& env, RecordingSink& sink) {
  ReplayResult out;
  out.events = static_cast<int64_t>(env.events.size());
  Run run(env, sink, out);
  if (!run.Open()) return out;
  const std::vector<size_t> cuts = run.Cuts();
  const double t0 = NowSeconds();
  const double c0 = ProcessCpuSeconds();
  size_t next_cut = 0;
  size_t i = 0;
  const size_t n = env.events.size();
  while (true) {
    while (next_cut < cuts.size() && cuts[next_cut] <= i) {
      run.Churn(cuts[next_cut++]);
    }
    if (i >= n) break;
    const size_t limit = next_cut < cuts.size() ? cuts[next_cut] : n;
    const size_t end = std::min(i + kBatch, limit);
    if (!run.Push(i, end)) break;
    i = end;
  }
  run.Close();
  out.wall_s = NowSeconds() - t0;
  out.cpu_s = ProcessCpuSeconds() - c0;
  run.Collect();
  return out;
}

ReplayResult OpenLoop(const ReplayEnv& env, double eps, RecordingSink& sink) {
  ReplayResult out;
  out.events = static_cast<int64_t>(env.events.size());
  Run run(env, sink, out);
  if (!run.Open()) return out;
  const size_t n = env.events.size();
  if (n > 0) {
    const Timestamp ts0 = env.events.front().time;
    const Timestamp span_ms = std::max<Timestamp>(1, env.events.back().time - ts0);
    const double wall_per_ms = (static_cast<double>(n) / eps) /
                               static_cast<double>(span_ms);
    // A short lead so the first events are not due before the loop starts.
    const double t0 = NowSeconds() + 1e-3;
    std::vector<double> due(n);
    for (size_t i = 0; i < n; ++i) {
      due[i] = t0 + static_cast<double>(env.events[i].time - ts0) * wall_per_ms;
    }
    sink.SetSchedule(t0, ts0, wall_per_ms, env.events.back().time);
    const double c0 = ProcessCpuSeconds();
    out.lateness_s = RunOpenLoop(
        due, run.Cuts(), NowSeconds,
        [&](size_t b, size_t e) { run.Push(b, e); },
        [&](size_t at) { run.Churn(at); });
    run.Close();
    out.wall_s = NowSeconds() - t0;
    out.cpu_s = ProcessCpuSeconds() - c0;
  } else {
    run.Close();
  }
  run.Collect();
  return out;
}

}  // namespace e2ebench

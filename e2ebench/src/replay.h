// Closed-loop and open-loop replays of a pre-generated stream through the
// public session API (Session, ShardedSession, ShardedSession::Producer),
// timing only the benchmark's own calls.
#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "e2ebench/src/measure.h"
#include "e2ebench/src/workloads.h"
#include "src/runtime/session.h"
#include "src/runtime/sharded_session.h"

namespace e2ebench {

/// One session behind the ingest path a workload uses.
class Target {
 public:
  static hamlet::Result<std::unique_ptr<Target>> Open(
      const hamlet::WorkloadPlan& plan, const hamlet::RunConfig& config,
      Ingest ingest, hamlet::EmissionSink* sink);

  hamlet::Status Push(std::span<const hamlet::Event> events);
  hamlet::Status AddQuery(const hamlet::Query& query);
  hamlet::Status RemoveQuery(const std::string& name);
  /// Stream-end watermark at the last event's time (on the producer path
  /// through the handle, which is then closed). Without it a ShardedSession
  /// shard that never saw an event of the final pane does not open that
  /// pane's windows, and its groups' trailing zero-valued windows go
  /// missing from Close's flush.
  hamlet::Status AdvanceToEnd(hamlet::Timestamp last_time);
  hamlet::Result<hamlet::RunMetrics> Close();
  hamlet::RunMetrics Snapshot() const;

 private:
  Target() = default;

  std::unique_ptr<hamlet::Session> session_;
  std::unique_ptr<hamlet::ShardedSession> sharded_;
  // Declared after sharded_ so it is destroyed first.
  std::unique_ptr<hamlet::ShardedSession::Producer> producer_;
};

/// Records emissions compactly; in the open loop also the latency of each
/// emission whose window end lies inside the stream, relative to the time
/// that window end was due on the schedule. Emissions may arrive on the
/// producer path's sequencer thread; the recorded data is read only after
/// Close, which joins that thread.
class RecordingSink : public hamlet::EmissionSink {
 public:
  /// `tracer` (may be null) receives one span per callback; it must belong
  /// to the thread that delivers emissions.
  void Reset(Tracer* tracer, int32_t span_name);
  /// Enables latency samples: due(ts) = t0 + (ts - ts0) * wall_per_ms.
  void SetSchedule(double t0, hamlet::Timestamp ts0, double wall_per_ms,
                   hamlet::Timestamp last_ts);

  void OnEmission(const hamlet::Emission& e) override;

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  const std::vector<EmissionRow>& rows() const { return rows_; }
  const std::vector<double>& latencies() const { return latencies_; }

 private:
  Tracer* tracer_ = nullptr;
  int32_t span_name_ = 0;
  bool scheduled_ = false;
  double t0_ = 0.0;
  hamlet::Timestamp ts0_ = 0;
  double wall_per_ms_ = 0.0;
  hamlet::Timestamp last_ts_ = 0;
  std::atomic<int64_t> count_{0};
  std::vector<EmissionRow> rows_;
  std::vector<double> latencies_;
};

/// Churn op resolved against a stream: run once events [0, at) are pushed.
struct ResolvedChurn {
  size_t at = 0;
  const ChurnOp* op = nullptr;
  const hamlet::Query* query = nullptr;  ///< parsed text for adds
};

struct ReplayResult {
  int64_t calls = 0;
  int64_t failed_calls = 0;
  std::string first_error;
  int64_t events = 0;
  double wall_s = 0.0;  ///< first push to Close returning
  double cpu_s = 0.0;   ///< process CPU over the same interval
  hamlet::RunMetrics metrics;
  std::vector<EmissionRow> emissions;
  std::vector<double> latency_s;   ///< open loop only
  std::vector<double> lateness_s;  ///< open loop only, per event
  double add_query_s = 0.0;
  double remove_query_s = 0.0;
  int64_t epochs_max = 0;
  int64_t emissions_per_push_max = 0;  ///< caller-thread delivery only
};

struct ReplayEnv {
  const hamlet::WorkloadPlan* plan = nullptr;
  hamlet::RunConfig config;
  Ingest ingest = Ingest::kSession;
  std::span<const hamlet::Event> events;
  std::vector<ResolvedChurn> churn;
  /// Traced replays record spans here (caller thread) and, on the producer
  /// path, sink spans into `sink_tracer`.
  Tracer* tracer = nullptr;
  Tracer* sink_tracer = nullptr;
};

/// Pushes the stream at full speed in 512-event batches (split at churn
/// positions), each call issued after the previous returned, then closes.
ReplayResult ClosedLoop(const ReplayEnv& env, RecordingSink& sink);

/// Replays the stream on a fixed schedule of `eps` events per wall second
/// (see RunOpenLoop), then closes.
ReplayResult OpenLoop(const ReplayEnv& env, double eps, RecordingSink& sink);

}  // namespace e2ebench

#endif  // E2EBENCH_REPLAY_H_

// The benchmark's workloads: query texts, stream shape, session config,
// ingest path, churn positions and open-loop rate, all fixed here so every
// commit is measured on the same inputs for a given seed. README.md gives
// the reason for each choice.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "src/runtime/session.h"
#include "src/stream/generator.h"

namespace e2ebench {

/// How the replay feeds the session.
enum class Ingest {
  kSession,   ///< plain Session::PushBatch
  kSharded,   ///< ShardedSession::PushBatch on the caller thread
  kProducer,  ///< one ShardedSession::AddProducer handle
};

/// A query-lifecycle op run once every event before `at_fraction` of the
/// stream was pushed: AddQuery(text, named `name`) or RemoveQuery(name).
struct ChurnOp {
  double at_fraction = 0.0;
  bool add = false;
  std::string name;
  std::string text;  ///< add only
};

struct WorkloadSpec {
  std::string name;
  std::string dataset;
  std::vector<std::string> queries;
  hamlet::GeneratorConfig gen;
  /// SkewGroups rewrite of the group key (hot key + progressive keys);
  /// 0 leaves the generator's groups.
  int skew_groups = 0;
  double skew_hot_fraction = 0.0;
  hamlet::RunConfig config;
  Ingest ingest = Ingest::kSession;
  std::vector<ChurnOp> churn;
  /// Open-loop arrival rate in events per wall second: a quarter to a half
  /// of the closed-loop capacity measured when the benchmark was defined,
  /// so a slow phase of a shared host does not saturate it.
  double open_loop_eps = 0.0;
  /// Closed-loop replays per open-loop replay in an untraced run.
  int closed_per_open = 2;
};

/// Every workload, in BENCHMARK.json order.
std::vector<WorkloadSpec> AllWorkloads();

/// Generates the workload's stream for `seed` (time-ordered).
hamlet::EventVector GenerateStream(const WorkloadSpec& spec, uint64_t seed);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_

// Query workload factories for the paper's two evaluation workloads (§6.1).
//
//  * Workload 1 ("W1"): k queries sharing one Kleene sub-pattern; identical
//    window/group-by/predicates/aggregate, different patterns (like
//    Examples 2-9). Used in Figs. 9-11.
//  * Workload 2 ("W2"): diverse — Kleene prefixes of length 1-3, windows
//    5-20 min, COUNT/SUM/AVG/MAX aggregates, event and edge predicates on
//    various types. Used in Figs. 12-13.
#ifndef HAMLET_BENCHLIB_WORKLOADS_H_
#define HAMLET_BENCHLIB_WORKLOADS_H_

#include <memory>
#include <string>

#include "src/plan/workload_plan.h"
#include "src/stream/generators.h"

namespace hamlet {

/// A workload bound to its dataset generator and schema. Movable handle that
/// owns everything the plan references.
struct BenchWorkload {
  std::unique_ptr<StreamGenerator> generator;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<WorkloadPlan> plan;

  const Schema& schema() const { return *workload->schema(); }
};

/// Workload 1 on a dataset: `num_queries` trend-count queries over patterns
/// SEQ(X_i, T+) with the dataset's dominant burst type as shared T+, same
/// window and (optional) an identical event predicate.
/// Datasets: "ridesharing", "nyc_taxi", "smart_home".
BenchWorkload MakeWorkload1(const std::string& dataset, int num_queries,
                            Timestamp window_ms, bool with_predicate = false);

/// Workload 2 on the stock dataset: diverse Kleene patterns over Up/Down
/// runs, windows 5-20 min, mixed aggregates (COUNT/SUM/AVG/MAX on the AVG
/// family split into compatible share groups), predicates on price/volume,
/// and edge predicates on a fraction of queries (the snapshot drivers).
BenchWorkload MakeWorkload2(int num_queries);

/// Rewrites `events`' group-by attribute into a hot-key distribution: a
/// `hot_fraction` share of events carries group key 0, the rest spreads
/// uniformly over keys [1, num_groups). Cold keys are INTRODUCED
/// PROGRESSIVELY — cold event i may only draw keys whose first possible
/// occurrence is before i — modeling new groups appearing over the stream's
/// lifetime, so the shard loads that work stealing evens out keep shifting
/// after the first instant. Deterministic in `seed`; timestamps are
/// untouched.
void SkewGroups(EventVector& events, AttrId group_attr, int num_groups,
                double hot_fraction, uint64_t seed);

}  // namespace hamlet

#endif  // HAMLET_BENCHLIB_WORKLOADS_H_

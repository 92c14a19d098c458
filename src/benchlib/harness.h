// Shared bench harness: scaling, single-run helper, table output.
//
// Every bench binary regenerates one paper table/figure: it sweeps the
// figure's x-axis, runs the relevant engines and prints the series as an
// aligned table plus CSV. Absolute numbers differ from the paper's testbed
// (see DESIGN.md §2); the reproduced quantity is the *shape*.
//
// Default parameters finish the full suite in minutes on a small machine;
// set HAMLET_BENCH_SCALE=full for paper-scale rates.
#ifndef HAMLET_BENCHLIB_HARNESS_H_
#define HAMLET_BENCHLIB_HARNESS_H_

#include <string>

#include "src/benchlib/workloads.h"
#include "src/common/table.h"
#include "src/runtime/session.h"

namespace hamlet {
namespace bench {

/// True when HAMLET_BENCH_SCALE=full.
bool FullScale();

/// Picks the fast or full value of a parameter.
int Scale(int fast, int full);

/// Parses `--threads=N` (or `--threads N`) from argv; returns `fallback`
/// when absent. Benches pass the result into RunConfig::num_shards, so any
/// figure can be re-run sharded without editing code.
int ThreadsFlag(int argc, char** argv, int fallback = 1);

/// Parses `--producers=N` (or `--producers N`) from argv; returns
/// `fallback` when absent. Benches with a concurrent-ingest figure drive
/// that many Producer handles (Session::AddProducer) in parallel;
/// 0 disables the figure.
int ProducersFlag(int argc, char** argv, int fallback = 0);

/// True when `--json` is in argv. Benches that support it append one
/// `JSON: {...}` line per figure so scripts can track numbers across PRs
/// without scraping the aligned tables.
bool JsonFlag(int argc, char** argv);

/// Streams the generator through a push session (no sink, no O(stream)
/// input buffer — paper-scale rates fit in O(rate) memory) and returns the
/// run's metrics. peak_memory_bytes therefore charges engine state only,
/// never an input buffer, at run_config.num_shards shards.
RunMetrics RunOnce(const BenchWorkload& bw, const GeneratorConfig& gen_config,
                   RunConfig run_config);

/// Prints a figure header, the aligned table and its CSV form.
void PrintFigure(const std::string& figure, const std::string& caption,
                 const Table& table);

/// Formats seconds/bytes/eps compactly for table cells.
std::string Seconds(double s);
std::string Bytes(int64_t b);
std::string Eps(double eps);

}  // namespace bench
}  // namespace hamlet

#endif  // HAMLET_BENCHLIB_HARNESS_H_

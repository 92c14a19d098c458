#include "e2ebench/src/workloads.h"

#include "src/benchlib/workloads.h"
#include "src/common/check.h"

namespace e2ebench {

using hamlet::EventVector;
using hamlet::GeneratorConfig;

namespace {

/// Workload 1 (paper §6.1): `count` COUNT(*) queries whose patterns all
/// contain `kleene`+ — SEQ(X, K+), then SEQ(X, K+, Y), then SEQ(X, Y, K+)
/// over the `others` alphabet — with one window and group-by.
std::vector<std::string> Workload1(const std::string& kleene,
                                   const std::vector<std::string>& others,
                                   const std::string& group_by,
                                   const std::string& window, int count) {
  std::vector<std::string> patterns;
  for (const auto& x : others) patterns.push_back(x + ", " + kleene + "+");
  for (const auto& x : others) {
    for (const auto& y : others) {
      if (y != x) patterns.push_back(x + ", " + kleene + "+, " + y);
    }
  }
  for (const auto& x : others) {
    for (const auto& y : others) {
      if (y != x) patterns.push_back(x + ", " + y + ", " + kleene + "+");
    }
  }
  HAMLET_CHECK(static_cast<int>(patterns.size()) >= count);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    out.push_back("RETURN COUNT(*) PATTERN SEQ(" +
                  patterns[static_cast<size_t>(i)] + ") GROUPBY " + group_by +
                  " WITHIN " + window);
  }
  return out;
}

/// Workload 2 (paper §6.1) on the stock stream: Kleene prefixes of length
/// 1-3 over Up/Down runs, tumbling windows of 5-20 min, COUNT/SUM/AVG/MAX,
/// price predicates and prev/next edge predicates on some queries.
std::vector<std::string> Workload2(int count) {
  const std::vector<std::string> prefixes = {"Flat", "Spike", "Volume"};
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    const std::string k = (i % 2 == 0) ? "Up" : "Down";
    const std::string& p0 = prefixes[static_cast<size_t>(i % 3)];
    const std::string& p1 = prefixes[static_cast<size_t>((i + 1) % 3)];
    std::string pattern;
    switch ((i / 2) % 3) {
      case 0: pattern = p0 + ", " + k + "+"; break;
      case 1: pattern = p0 + ", " + k + "+, " + p1; break;
      default: pattern = p0 + ", " + p1 + ", " + k + "+"; break;
    }
    const char* aggs[] = {"COUNT(*)", "SUM(K.price)", "AVG(K.price)",
                          "COUNT(K)", "MAX(K.price)"};
    std::string agg = aggs[i % 5];
    if (const size_t at = agg.find('K'); at != std::string::npos && i % 5) {
      agg.replace(at, 1, k);
    }
    std::string text = "RETURN " + agg + " PATTERN SEQ(" + pattern + ")";
    if (i % 3 == 1) {
      text += " WHERE " + k + ".price > " + std::to_string(20 + i % 30);
    } else if (i % 7 == 3) {
      text += " WHERE prev.price <= next.price";
    }
    text += " GROUPBY company WITHIN " + std::to_string(5 + 5 * (i % 4)) +
            " min";
    out.push_back(text);
  }
  return out;
}

const std::vector<std::string> kRideOthers = {
    "Request", "Pickup", "Dropoff", "Cancel", "Accept",
    "Pool",    "Surge",  "Idle",    "Move"};

}  // namespace

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> all;
  {
    WorkloadSpec w;
    w.name = "ride_shared";
    w.dataset = "ridesharing";
    w.queries = Workload1("Travel", kRideOthers, "district", "2 s", 20);
    w.gen.events_per_minute = 60'000;
    w.gen.duration_minutes = 2;
    w.gen.num_groups = 4;
    w.gen.burstiness = 0.9;
    w.gen.max_burst = 120;
    // Two shards, not a plain Session: single-threaded runs of this
    // workload drifted by up to 25% between runs on a shared host, two
    // shards stay within about 7% (README.md). Each shard runs the
    // unmodified Session machinery.
    w.config.num_shards = 2;
    w.ingest = Ingest::kSharded;
    w.open_loop_eps = 350'000;
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "stock_diverse_churn";
    w.dataset = "stock";
    w.queries = Workload2(40);
    // 25 events per company-minute, so a company's ~120-event burst spans
    // about 5 min, the shortest window. Sixteen companies over 40 min give
    // about 2700 emissions, and peak state varies little between seeds; a
    // replay takes about 0.6 s, so a run holds a few dozen.
    w.gen.events_per_minute = 400;
    w.gen.duration_minutes = 40;
    w.gen.num_groups = 16;
    w.gen.burstiness = 0.992;
    w.gen.max_burst = 150;
    // Re-optimization checks only while one plan epoch is live (the first
    // check seeds its baseline), and a churn epoch drains for the longest
    // window (20 min): check every pane and churn late, so the panes up to
    // 20 min are checked before the first churn op at 24 min.
    w.config.reoptimize_every_panes = 1;
    w.churn = {
        {0.6, true, "churn_add",
         "RETURN SUM(Up.price) PATTERN SEQ(Flat, Up+) WHERE Up.price > 35 "
         "GROUPBY company WITHIN 10 min"},
        {0.8, false, "q7", ""},
    };
    w.ingest = Ingest::kSession;
    w.open_loop_eps = 13'000;
    // One thread does all the work here, so its replays vary most with the
    // host: four closed loops per open loop put most of a run into the
    // gated metrics.
    w.closed_per_open = 4;
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "taxi_sharded";
    w.dataset = "nyc_taxi";
    w.queries = Workload1("Travel", {"Request", "Pickup", "Dropoff", "Cancel"},
                          "zone", "1 s", 20);
    w.gen.events_per_minute = 120'000;
    w.gen.duration_minutes = 1;
    w.gen.num_groups = 64;
    w.gen.burstiness = 0.5;
    w.gen.max_burst = 120;
    w.config.num_shards = 2;
    w.ingest = Ingest::kSharded;
    w.open_loop_eps = 80'000;
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "hotkey_producer";
    w.dataset = "ridesharing";
    w.queries = Workload1("Travel", kRideOthers, "district", "2 s", 20);
    w.gen.events_per_minute = 240'000;
    w.gen.duration_minutes = 1;
    w.gen.num_groups = 64;
    w.gen.burstiness = 0.9;
    w.gen.max_burst = 120;
    w.skew_groups = 64;
    w.skew_hot_fraction = 0.3;
    w.config.num_shards = 2;
    w.config.work_stealing = true;
    w.config.steal_imbalance_ratio = 1.3;
    w.ingest = Ingest::kProducer;
    w.open_loop_eps = 150'000;
    all.push_back(std::move(w));
  }
  return all;
}

EventVector GenerateStream(const WorkloadSpec& spec, uint64_t seed) {
  std::unique_ptr<hamlet::StreamGenerator> gen =
      hamlet::MakeGenerator(spec.dataset);
  HAMLET_CHECK(gen != nullptr);
  GeneratorConfig config = spec.gen;
  config.seed = seed;
  EventVector events = gen->Generate(config);
  if (spec.skew_groups > 0) {
    // Attribute 0 is every generator's group-by key.
    hamlet::SkewGroups(events, /*group_attr=*/0, spec.skew_groups,
                       spec.skew_hot_fraction, seed ^ 0x5eedULL);
  }
  return events;
}

}  // namespace e2ebench

#include "src/benchlib/harness.h"

#include <cstdio>
#include <cstdlib>

namespace hamlet {
namespace bench {

bool FullScale() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at bench startup,
  // before any worker thread exists; nothing ever calls setenv.
  const char* env = std::getenv("HAMLET_BENCH_SCALE");
  return env != nullptr && std::string(env) == "full";
}

int Scale(int fast, int full) { return FullScale() ? full : fast; }

int ThreadsFlag(int argc, char** argv, int fallback) {
  int threads = fallback;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + std::string("--threads=").size());
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    }
  }
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1; using 1\n");
    threads = 1;
  }
  return threads;
}

int ProducersFlag(int argc, char** argv, int fallback) {
  int producers = fallback;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--producers=", 0) == 0) {
      producers = std::atoi(arg.c_str() + std::string("--producers=").size());
    } else if (arg == "--producers" && i + 1 < argc) {
      producers = std::atoi(argv[++i]);
    }
  }
  if (producers < 0) {
    std::fprintf(stderr, "--producers must be >= 0; using 0\n");
    producers = 0;
  }
  return producers;
}

bool JsonFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") return true;
  }
  return false;
}

RunMetrics RunOnce(const BenchWorkload& bw, const GeneratorConfig& gen_config,
                   RunConfig run_config) {
  std::unique_ptr<EventCursor> cursor = bw.generator->Stream(gen_config);
  Result<std::unique_ptr<Session>> session =
      Session::Open(*bw.plan, run_config, /*sink=*/nullptr);
  HAMLET_CHECK(session.ok());
  // Small fixed-size batches amortize the per-call timing overhead while
  // keeping ingest memory constant.
  constexpr size_t kBatch = 512;
  EventVector batch;
  batch.reserve(kBatch);
  Event e;
  while (cursor->Next(&e)) {
    batch.push_back(e);
    if (batch.size() == kBatch) {
      HAMLET_CHECK(session.value()->PushBatch(batch).ok());
      batch.clear();
    }
  }
  HAMLET_CHECK(session.value()->PushBatch(batch).ok());
  return session.value()->Close().value();
}

void PrintFigure(const std::string& figure, const std::string& caption,
                 const Table& table) {
  std::printf("\n=== %s — %s ===\n%s\nCSV:\n%s", figure.c_str(),
              caption.c_str(), table.ToAligned().c_str(),
              table.ToCsv().c_str());
  std::fflush(stdout);
}

std::string Seconds(double s) {
  char buf[64];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

std::string Bytes(int64_t b) {
  char buf[64];
  if (b < 1024) {
    std::snprintf(buf, sizeof(buf), "%lldB", static_cast<long long>(b));
  } else if (b < 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", static_cast<double>(b) / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fMB",
                  static_cast<double>(b) / (1024 * 1024));
  }
  return buf;
}

std::string Eps(double eps) {
  char buf[64];
  if (eps >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM/s", eps / 1e6);
  } else if (eps >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK/s", eps / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f/s", eps);
  }
  return buf;
}

}  // namespace bench
}  // namespace hamlet

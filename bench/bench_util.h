#ifndef OSRS_BENCH_BENCH_UTIL_H_
#define OSRS_BENCH_BENCH_UTIL_H_

// Shared driver of the quantitative experiment binaries (Figs. 4 and 5):
// run ILP / RR / Greedy over a sample of doctor items at every granularity
// and k, and aggregate average cost and time. Instance sizes are capped so
// the bundled simplex (the Gurobi stand-in, see DESIGN.md) stays fast; the
// caps are printed so runs are self-describing.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_count.h"
#include "core/distance.h"
#include "core/model.h"
#include "coverage/item_graph.h"
#include "datagen/corpus.h"
#include "obs/metrics.h"
#include "obs/solver_stats.h"
#include "obs/trace.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"
#include "solver/randomized_rounding.h"
#include "solver/summarizer.h"

namespace osrs::bench {

/// Opt-in telemetry for the table/figure bench binaries: construct one from
/// main's (argc, argv). When --stats is on the command line the session
/// enables the metrics registry and installs a trace on the main thread;
/// its destructor prints the per-phase breakdown and the registry to
/// stderr (the paper-style tables on stdout stay clean). Without --stats
/// it does nothing.
class StatsSession {
 public:
  StatsSession(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--stats") enabled_ = true;
    }
    if (!enabled_) return;
    obs::MetricsRegistry::Global().SetEnabled(true);
    scope_ = std::make_unique<obs::Tracer::Scope>(&trace_);
  }
  ~StatsSession() {
    if (!enabled_) return;
    scope_.reset();
    obs::SolverStats stats = obs::SolverStats::FromTrace(trace_);
    std::fprintf(stderr, "--- solver phase breakdown (--stats) ---\n%s",
                 stats.ToText("  ").c_str());
    std::fprintf(stderr, "--- metrics registry ---\n%s",
                 obs::MetricsRegistry::Global().ToText().c_str());
  }
  StatsSession(const StatsSession&) = delete;
  StatsSession& operator=(const StatsSession&) = delete;

 private:
  bool enabled_ = false;
  obs::SolveTrace trace_;
  std::unique_ptr<obs::Tracer::Scope> scope_;
};

/// Uniform JSON report emitter for the bench binaries. Every report opens
/// with "bench":<name> and "hardware_threads":<n> — the two fields a
/// reader (or CI) needs to identify the experiment and gate scaling
/// expectations on the host — then appends fields in call order. String
/// keys and values go through JsonEscape; Raw splices pre-rendered JSON
/// (arrays, nested objects, values needing a specific precision) verbatim.
/// Output stays compact ("key":value, no spaces) so the ci.sh greps over
/// report files keep matching.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string_view bench_name)
      : json_(StrFormat("{\"bench\":\"%s\",\"hardware_threads\":%d",
                        JsonEscape(bench_name).c_str(),
                        ResolveThreadCount(0))) {}

  void Bool(std::string_view key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  void Int(std::string_view key, int64_t value) {
    Raw(key, StrFormat("%lld", static_cast<long long>(value)));
  }
  void Double(std::string_view key, double value) {
    Raw(key, StrFormat("%.6g", value));
  }
  void Str(std::string_view key, std::string_view value) {
    Raw(key, StrFormat("\"%s\"", JsonEscape(value).c_str()));
  }
  void Raw(std::string_view key, std::string_view raw_json) {
    json_ += ",\"";
    json_ += JsonEscape(key);
    json_ += "\":";
    json_ += raw_json;
  }

  /// The closed object, newline-terminated.
  std::string Finish() const { return json_ + "}\n"; }

  /// Writes the finished report to `path` and prints the standard
  /// "<tool>: wrote <path>" line (or a stderr diagnostic). Returns false
  /// on any I/O failure so mains can exit 2 uniformly.
  bool WriteFile(const std::string& path, const char* tool) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
      return false;
    }
    std::string report = Finish();
    size_t written = std::fwrite(report.data(), 1, report.size(), out);
    std::fclose(out);
    if (written != report.size()) {
      std::fprintf(stderr, "%s: short write to %s\n", tool, path.c_str());
      return false;
    }
    std::printf("%s: wrote %s\n", tool, path.c_str());
    return true;
  }

 private:
  std::string json_;
};

/// Median wall time of `reps` (>= 1) calls of `fn`, in microseconds.
template <typename Fn>
double MedianMicros(int reps, const Fn& fn) {
  std::vector<double> micros;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    micros.push_back(watch.ElapsedMicros());
  }
  std::nth_element(micros.begin(), micros.begin() + micros.size() / 2,
                   micros.end());
  return micros[micros.size() / 2];
}

struct QuantitativeConfig {
  double epsilon = 0.5;  // the paper's elbow-selected threshold (§5.3)
  std::vector<int> k_values = {2, 4, 6, 8, 10};
  /// Whole reviews are kept per item until this many pairs are reached.
  size_t pair_budget = 250;
};

/// Average metric value per (granularity, algorithm, k).
struct QuantitativeResults {
  std::vector<int> k_values;
  /// [granularity][algorithm name] -> one value per k.
  std::map<SummaryGranularity,
           std::map<std::string, std::vector<double>>> avg_cost;
  std::map<SummaryGranularity,
           std::map<std::string, std::vector<double>>> avg_time_ms;
  /// End-to-end wall clock of the sweep (one Stopwatch::ElapsedNanos read).
  double total_wall_ms = 0.0;
};

inline QuantitativeResults RunQuantitative(
    const Corpus& corpus, const std::vector<const Item*>& items,
    const QuantitativeConfig& config) {
  Stopwatch total_watch;
  QuantitativeResults results;
  results.k_values = config.k_values;
  PairDistance distance(&corpus.ontology, config.epsilon);

  IlpSummarizer ilp;
  RandomizedRoundingSummarizer rr;
  GreedySummarizer greedy;
  std::vector<Summarizer*> algorithms{&ilp, &rr, &greedy};

  for (SummaryGranularity granularity :
       {SummaryGranularity::kPairs, SummaryGranularity::kSentences,
        SummaryGranularity::kReviews}) {
    auto& cost_table = results.avg_cost[granularity];
    auto& time_table = results.avg_time_ms[granularity];
    for (Summarizer* algorithm : algorithms) {
      cost_table[algorithm->name()].assign(config.k_values.size(), 0.0);
      time_table[algorithm->name()].assign(config.k_values.size(), 0.0);
    }
    for (const Item* item : items) {
      Item capped = TruncateToPairBudget(*item, config.pair_budget);
      ItemGraph item_graph =
          TryBuildItemGraph(distance, capped, granularity).value();
      for (size_t ki = 0; ki < config.k_values.size(); ++ki) {
        int k = std::min(config.k_values[ki],
                         item_graph.graph.num_candidates());
        for (Summarizer* algorithm : algorithms) {
          auto result = algorithm->Summarize(item_graph.graph, k);
          OSRS_CHECK_MSG(result.ok(), algorithm->name()
                                          << ": "
                                          << result.status().ToString());
          cost_table[algorithm->name()][ki] +=
              result->cost / static_cast<double>(items.size());
          time_table[algorithm->name()][ki] +=
              result->seconds * 1e3 / static_cast<double>(items.size());
        }
      }
    }
  }
  results.total_wall_ms = total_watch.ElapsedMillis();
  return results;
}

/// Pointers to the first `limit` items of a corpus.
inline std::vector<const Item*> SampleItems(const Corpus& corpus,
                                            size_t limit) {
  std::vector<const Item*> items;
  for (const Item& item : corpus.items) {
    if (items.size() >= limit) break;
    items.push_back(&item);
  }
  return items;
}

}  // namespace osrs::bench

#endif  // OSRS_BENCH_BENCH_UTIL_H_

// Ablation A1 (§4.4's heap discussion): eager neighbor-of-neighbor key
// updates (the paper's Algorithm 2) vs the classical lazy-greedy heap, as
// the pair count grows. Both break gain ties toward the smaller candidate
// id, so they must return the same summary — the bench exits 1 if their
// selections or costs ever differ — and the question is which bookkeeping
// is cheaper on these graphs. Each size runs twice: with continuous
// sentiments, and with sentiments quantized to 0.25, whose many exact
// gain ties exercise the tie rule.
//
// Usage:
//   bench_ablation_greedy [--smoke] [--stats]
//                         [--out=BENCH_ablation_greedy.json]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/distance.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"
#include "solver/greedy.h"

namespace osrs::bench {
namespace {

const Ontology& SharedOntology() {
  static const Ontology* onto = [] {
    SnomedLikeOptions options;
    options.num_concepts = 2000;
    return new Ontology(BuildSnomedLikeOntology(options));
  }();
  return *onto;
}

/// `quantized` rounds each sentiment to a multiple of 0.25.
CoverageGraph BuildGraph(int num_pairs, bool quantized) {
  const Ontology& onto = SharedOntology();
  Rng rng(static_cast<uint64_t>(num_pairs));
  std::vector<ConceptSentimentPair> pairs;
  pairs.reserve(static_cast<size_t>(num_pairs));
  for (int i = 0; i < num_pairs; ++i) {
    auto c = static_cast<ConceptId>(
        1 + rng.NextZipf(onto.num_concepts() - 1, 1.05));
    double s = rng.NextDouble(-1, 1);
    if (quantized) s = std::round(s * 4.0) / 4.0;
    pairs.push_back({c, s});
  }
  PairDistance distance(&onto, 0.5);
  return CoverageGraph::TryBuildForPairs(distance, pairs).value();
}

struct HeapRun {
  double median_us = 0.0;
  double cost = 0.0;
  std::vector<int> selected;
};

/// Median wall time of `reps` greedy k=10 solves, plus the summary.
HeapRun TimeGreedy(const CoverageGraph& graph, GreedyOptions::Heap heap,
                   int reps) {
  GreedyOptions options;
  options.heap = heap;
  GreedySummarizer greedy(options);
  HeapRun run;
  run.median_us = MedianMicros(reps, [&]() {
    auto result = greedy.Summarize(graph, 10);
    OSRS_CHECK_MSG(result.ok(), result.status().ToString());
    run.cost = result->cost;
    run.selected = result->selected;
  });
  return run;
}

int Run(int argc, char** argv) {
  StatsSession stats(argc, argv);
  bool smoke = false;
  std::string out_path = "BENCH_ablation_greedy.json";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--stats") {
      // handled by StatsSession
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else {
      std::fprintf(stderr,
                   "usage: bench_ablation_greedy [--smoke] [--stats] "
                   "[--out=PATH]\n");
      return 2;
    }
  }

  // The equality checks cover every size in both modes; --smoke only cuts
  // the timing repetitions.
  const int reps = smoke ? 3 : 200;
  std::printf("%6s %10s %9s %12s %12s %8s %12s\n", "pairs", "sentiment",
              "edges", "eager_us", "lazy_us", "speedup", "cost");
  std::string points_json = "[";
  bool costs_equal = true;
  bool selections_equal = true;
  for (int num_pairs : {200, 400, 800, 1600}) {
    for (bool quantized : {false, true}) {
      CoverageGraph graph = BuildGraph(num_pairs, quantized);
      HeapRun eager = TimeGreedy(graph, GreedyOptions::Heap::kEager, reps);
      HeapRun lazy = TimeGreedy(graph, GreedyOptions::Heap::kLazy, reps);
      const char* sentiment = quantized ? "quantized" : "continuous";
      std::printf("%6d %10s %9zu %12.1f %12.1f %7.2fx %12.6g\n", num_pairs,
                  sentiment, graph.num_edges(), eager.median_us,
                  lazy.median_us,
                  eager.median_us / std::max(lazy.median_us, 1e-9),
                  eager.cost);
      if (eager.cost != lazy.cost) {
        std::fprintf(stderr,
                     "bench_ablation_greedy: %d pairs (%s): eager cost "
                     "%.17g != lazy cost %.17g\n",
                     num_pairs, sentiment, eager.cost, lazy.cost);
        costs_equal = false;
      }
      if (eager.selected != lazy.selected) {
        std::fprintf(stderr,
                     "bench_ablation_greedy: %d pairs (%s): eager and lazy "
                     "selections differ\n",
                     num_pairs, sentiment);
        selections_equal = false;
      }
      if (points_json.size() > 1) points_json += ',';
      points_json += StrFormat(
          "{\"num_pairs\":%d,\"quantized\":%s,\"edges\":%zu,"
          "\"eager_us\":%.3f,\"lazy_us\":%.3f,\"eager_cost\":%.17g,"
          "\"lazy_cost\":%.17g,\"selections_equal\":%s}",
          num_pairs, quantized ? "true" : "false", graph.num_edges(),
          eager.median_us, lazy.median_us, eager.cost, lazy.cost,
          eager.selected == lazy.selected ? "true" : "false");
    }
  }

  BenchJsonWriter writer("ablation_greedy");
  writer.Bool("smoke", smoke);
  writer.Int("reps", reps);
  writer.Bool("costs_equal", costs_equal);
  writer.Bool("selections_equal", selections_equal);
  writer.Raw("points", points_json + "]");
  if (!writer.WriteFile(out_path, "bench_ablation_greedy")) return 2;
  return costs_equal && selections_equal ? 0 : 1;
}

}  // namespace
}  // namespace osrs::bench

int main(int argc, char** argv) { return osrs::bench::Run(argc, argv); }

// Ablation A2 (§4.1's claim): the initialization phase — building the
// bipartite coverage graph — takes time roughly linear in |P| because the
// average ancestor count of the DAG is small. The ns-per-pair figure
// should stay nearly flat as |P| doubles (edge counts grow faster since
// concept buckets collide, which the edges column makes visible).
//
// Usage:
//   bench_ablation_init [--smoke] [--stats] [--out=BENCH_ablation_init.json]

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/distance.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"

namespace osrs::bench {
namespace {

const Ontology& SharedOntology() {
  static const Ontology* onto = [] {
    SnomedLikeOptions options;
    options.num_concepts = 5000;
    return new Ontology(BuildSnomedLikeOntology(options));
  }();
  return *onto;
}

std::vector<ConceptSentimentPair> MakePairs(int num_pairs) {
  const Ontology& onto = SharedOntology();
  Rng rng(static_cast<uint64_t>(num_pairs) * 13 + 1);
  std::vector<ConceptSentimentPair> pairs;
  pairs.reserve(static_cast<size_t>(num_pairs));
  for (int i = 0; i < num_pairs; ++i) {
    auto c = static_cast<ConceptId>(
        1 + rng.NextZipf(onto.num_concepts() - 1, 1.05));
    pairs.push_back({c, rng.NextDouble(-1, 1)});
  }
  return pairs;
}

int Run(int argc, char** argv) {
  StatsSession stats(argc, argv);
  bool smoke = false;
  std::string out_path = "BENCH_ablation_init.json";
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
                   "usage: bench_ablation_init [--smoke] [--stats] "
                   "[--out=PATH]\n");
      return 2;
    }
  }

  const int reps = smoke ? 2 : 30;
  PairDistance distance(&SharedOntology(), 0.5);
  std::printf("%6s %9s %12s %12s\n", "pairs", "edges", "build_us",
              "ns_per_pair");
  std::string points_json = "[";
  for (int num_pairs : {250, 500, 1000, 2000, 4000}) {
    std::vector<ConceptSentimentPair> pairs = MakePairs(num_pairs);
    size_t edges = 0;
    const double build_us = MedianMicros(reps, [&]() {
      edges =
          CoverageGraph::TryBuildForPairs(distance, pairs).value().num_edges();
    });
    const double ns_per_pair = 1e3 * build_us / num_pairs;
    std::printf("%6d %9zu %12.1f %12.1f\n", num_pairs, edges, build_us,
                ns_per_pair);
    if (points_json.size() > 1) points_json += ',';
    points_json += StrFormat(
        "{\"num_pairs\":%d,\"edges\":%zu,\"build_us\":%.3f,"
        "\"ns_per_pair\":%.3f}",
        num_pairs, edges, build_us, ns_per_pair);
  }

  // The inner loop of the initialization: the closure lookup per concept.
  const Ontology& onto = SharedOntology();
  Rng rng(7);
  std::vector<ConceptId> concepts;
  for (int i = 0; i < 1024; ++i) {
    concepts.push_back(
        static_cast<ConceptId>(1 + rng.NextUint64(onto.num_concepts() - 1)));
  }
  const int walks = smoke ? 1 << 12 : 1 << 20;
  size_t ancestors_seen = 0;
  Stopwatch walk_watch;
  for (int i = 0; i < walks; ++i) {
    ancestors_seen += onto.AncestorsWithDistance(concepts[i & 1023]).size();
  }
  const double ns_per_walk =
      static_cast<double>(walk_watch.ElapsedNanos()) / walks;
  std::printf("ancestor walk: %.1f ns (%.2f ancestors on average)\n",
              ns_per_walk, static_cast<double>(ancestors_seen) / walks);

  BenchJsonWriter writer("ablation_init");
  writer.Bool("smoke", smoke);
  writer.Int("reps", reps);
  writer.Raw("build", points_json + "]");
  writer.Double("ancestor_walk_ns", ns_per_walk);
  if (!writer.WriteFile(out_path, "bench_ablation_init")) return 2;
  return 0;
}

}  // namespace
}  // namespace osrs::bench

int main(int argc, char** argv) { return osrs::bench::Run(argc, argv); }

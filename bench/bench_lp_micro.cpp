// Micro-benchmarks of the LP substrate (the Gurobi stand-in): revised
// simplex on §4.2 k-median relaxations of growing size, and the full
// branch-and-bound ILP. Iteration counts ride along in the JSON so solver
// regressions are visible beyond wall-clock noise.
//
// Usage:
//   bench_lp_micro [--smoke] [--stats] [--out=BENCH_lp_micro.json]

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/distance.h"
#include "coverage/coverage_graph.h"
#include "lp/mip.h"
#include "lp/simplex.h"
#include "ontology/snomed_like.h"
#include "solver/kmedian_model.h"

namespace osrs::bench {
namespace {

const Ontology& SharedOntology() {
  static const Ontology* onto = [] {
    SnomedLikeOptions options;
    options.num_concepts = 1500;
    return new Ontology(BuildSnomedLikeOntology(options));
  }();
  return *onto;
}

CoverageGraph BuildGraph(int num_pairs) {
  Rng rng(static_cast<uint64_t>(num_pairs) * 7 + 3);
  std::vector<ConceptSentimentPair> pairs;
  for (int i = 0; i < num_pairs; ++i) {
    auto c = static_cast<ConceptId>(
        1 + rng.NextZipf(SharedOntology().num_concepts() - 1, 1.05));
    pairs.push_back({c, rng.NextDouble(-1, 1)});
  }
  PairDistance distance(&SharedOntology(), 0.5);
  return CoverageGraph::TryBuildForPairs(distance, pairs).value();
}

/// Best-of-N wall time of `fn` in milliseconds.
template <typename Fn>
double TimeMs(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedMillis());
  }
  return best;
}

struct LpPoint {
  int num_pairs = 0;
  int rows = 0;
  int cols = 0;
  int64_t simplex_iters = 0;
  double ms = 0.0;
};

struct IlpPoint {
  int num_pairs = 0;
  int64_t bnb_nodes = 0;
  double ms = 0.0;
};

int Run(int argc, char** argv) {
  StatsSession stats(argc, argv);
  bool smoke = false;
  std::string out_path = "BENCH_lp_micro.json";
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
                   "usage: bench_lp_micro [--smoke] [--stats] [--out=PATH]\n");
      return 2;
    }
  }

  const int reps = smoke ? 1 : 3;
  std::vector<int> lp_sizes =
      smoke ? std::vector<int>{50} : std::vector<int>{50, 100, 200, 300};
  std::vector<int> ilp_sizes =
      smoke ? std::vector<int>{50} : std::vector<int>{50, 100, 200};

  std::printf("%-24s %6s %6s %8s %12s %10s\n", "case", "pairs", "rows", "cols",
              "iters/nodes", "time");
  std::vector<LpPoint> lp_points;
  for (int size : lp_sizes) {
    CoverageGraph graph = BuildGraph(size);
    KMedianModel model = BuildKMedianModel(graph, /*k=*/5,
                                           /*integral_x=*/false);
    LpPoint point;
    point.num_pairs = size;
    point.rows = model.problem.num_constraints();
    point.cols = model.problem.num_variables();
    point.ms = TimeMs(reps, [&]() {
      RevisedSimplex simplex;
      LpSolution solution = simplex.Solve(model.problem);
      point.simplex_iters = solution.iterations;
    });
    std::printf("%-24s %6d %6d %8d %12lld %8.2fms\n", "kmedian_lp_relaxation",
                point.num_pairs, point.rows, point.cols,
                static_cast<long long>(point.simplex_iters), point.ms);
    lp_points.push_back(point);
  }

  std::vector<IlpPoint> ilp_points;
  for (int size : ilp_sizes) {
    CoverageGraph graph = BuildGraph(size);
    IlpPoint point;
    point.num_pairs = size;
    point.ms = TimeMs(reps, [&]() {
      KMedianModel model = BuildKMedianModel(graph, /*k=*/5,
                                             /*integral_x=*/true);
      MipOptions options;
      options.objective_is_integral = model.integral_costs;
      MipSolver solver(options);
      MipSolution solution = solver.Solve(std::move(model.problem));
      point.bnb_nodes = solution.nodes;
    });
    std::printf("%-24s %6d %6s %8s %12lld %8.2fms\n", "kmedian_ilp",
                point.num_pairs, "-", "-",
                static_cast<long long>(point.bnb_nodes), point.ms);
    ilp_points.push_back(point);
  }

  BenchJsonWriter writer("lp_micro");
  writer.Bool("smoke", smoke);
  {
    std::string lp_json = "[";
    for (size_t i = 0; i < lp_points.size(); ++i) {
      const LpPoint& p = lp_points[i];
      if (i > 0) lp_json += ',';
      lp_json += StrFormat(
          "{\"num_pairs\":%d,\"rows\":%d,\"cols\":%d,"
          "\"simplex_iters\":%lld,\"ms\":%.3f}",
          p.num_pairs, p.rows, p.cols,
          static_cast<long long>(p.simplex_iters), p.ms);
    }
    writer.Raw("lp_relaxation", lp_json + "]");
  }
  {
    std::string ilp_json = "[";
    for (size_t i = 0; i < ilp_points.size(); ++i) {
      const IlpPoint& p = ilp_points[i];
      if (i > 0) ilp_json += ',';
      ilp_json += StrFormat("{\"num_pairs\":%d,\"bnb_nodes\":%lld,\"ms\":%.3f}",
                            p.num_pairs,
                            static_cast<long long>(p.bnb_nodes), p.ms);
    }
    writer.Raw("ilp", ilp_json + "]");
  }
  if (!writer.WriteFile(out_path, "bench_lp_micro")) return 2;
  return 0;
}

}  // namespace
}  // namespace osrs::bench

int main(int argc, char** argv) { return osrs::bench::Run(argc, argv); }

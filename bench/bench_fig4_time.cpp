// Reproduces Fig. 4: elapsed time of ILP vs RR vs Greedy with threshold
// eps = 0.5, for the top-pairs, top-sentences and top-reviews problems on
// the doctor corpus, as k grows.
//
// Paper shape to reproduce: Greedy is always the fastest by a wide margin
// (19-63x vs ILP in the paper, larger here because the bundled
// branch-and-bound replaces Gurobi and the greedy heap is cheap); RR is
// never slower than ILP (it solves only the LP relaxation); time grows
// from top pairs to top sentences/reviews as the graphs get denser.
//
// On top of the figure, the binary micro-benchmarks the vectorized greedy
// gain kernel at 20k+ pairs against a faithful re-implementation of the
// pre-SoA scalar path (AoS {int,double} edges, sequential double
// accumulation), plus the end-to-end greedy solver under the scalar and
// SIMD backends.
//
// Usage:
//   bench_fig4_time [--smoke] [--stats] [--out=BENCH_solver.json]
//
// The stdout tables keep the paper shape; the --out JSON carries the
// machine-readable timings (per-granularity averages and the kernel
// speedups) for the trajectory.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "coverage/coverage_graph.h"
#include "datagen/doctor_corpus.h"
#include "ontology/snomed_like.h"

namespace osrs::bench {
namespace {

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

// ---------------------------------------------------------------------------
// Pre-PR gain kernel, reproduced faithfully: AoS edges ({int, double},
// 16 bytes vs the SoA lanes' 5), a double best[] image, and the sequential
// double accumulation the old GainOf loop performed.

struct BaselineEdge {
  int endpoint;
  double weight;
};

struct BaselineGraph {
  std::vector<size_t> offsets;
  std::vector<BaselineEdge> edges;
  std::vector<double> best;     // root-distance image
  std::vector<double> weights;  // target multiplicities (all 1 here)
};

BaselineGraph MakeBaseline(const CoverageGraph& graph) {
  BaselineGraph base;
  base.offsets.reserve(static_cast<size_t>(graph.num_candidates()) + 1);
  base.offsets.push_back(0);
  base.edges.reserve(graph.num_edges());
  for (int u = 0; u < graph.num_candidates(); ++u) {
    CoverageGraph::EdgeLanes lanes = graph.ForwardLanesOf(u);
    for (size_t i = 0; i < lanes.size; ++i) {
      base.edges.push_back({lanes.endpoint[i],
                            static_cast<double>(lanes.distance[i])});
    }
    base.offsets.push_back(base.edges.size());
  }
  base.best.resize(static_cast<size_t>(graph.num_targets()));
  base.weights.resize(static_cast<size_t>(graph.num_targets()));
  for (int w = 0; w < graph.num_targets(); ++w) {
    base.best[static_cast<size_t>(w)] = graph.root_distance(w);
    base.weights[static_cast<size_t>(w)] = graph.target_weight(w);
  }
  return base;
}

double BaselineGainOf(const BaselineGraph& base, int u) {
  double total = 0.0;
  for (size_t i = base.offsets[static_cast<size_t>(u)];
       i < base.offsets[static_cast<size_t>(u) + 1]; ++i) {
    const BaselineEdge& e = base.edges[i];
    double improvement = base.best[static_cast<size_t>(e.endpoint)] - e.weight;
    if (improvement > 0.0) {
      total += improvement * base.weights[static_cast<size_t>(e.endpoint)];
    }
  }
  return total;
}

/// The 20k+-pair kernel dataset: Zipf concept draws over a SNOMED-like
/// ontology with grid sentiments, same recipe as bench_coverage_build.
CoverageGraph MakeKernelGraph(size_t num_pairs, int num_concepts) {
  SnomedLikeOptions options;
  options.num_concepts = num_concepts;
  // The graph is a self-contained CSR once built; the ontology is only
  // borrowed during construction, so it can live on this frame.
  Ontology onto = BuildSnomedLikeOntology(options);
  Rng rng(20260808);
  std::vector<ConceptSentimentPair> pairs;
  pairs.reserve(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) {
    ConceptId c = static_cast<ConceptId>(
        1 + rng.NextZipf(static_cast<uint64_t>(onto.num_concepts()) - 1,
                         0.8));
    double s = -1.0 + 0.0625 * static_cast<double>(rng.NextUint64(33));
    pairs.push_back({c, s});
  }
  PairDistance distance(&onto, 0.5);
  return CoverageGraph::TryBuildForPairs(distance, pairs).value();
}

struct KernelResults {
  size_t num_pairs = 0;
  size_t num_edges = 0;
  double gain_baseline_ms = 0.0;
  double gain_simd_ms = 0.0;
  double greedy_scalar_ms = 0.0;
  double greedy_simd_ms = 0.0;
};

KernelResults RunKernelBench(size_t num_pairs, int reps) {
  KernelResults out;
  out.num_pairs = num_pairs;
  CoverageGraph graph = MakeKernelGraph(num_pairs, 2000);
  out.num_edges = graph.num_edges();

  // --- Greedy gain kernel: one full scoring pass over every candidate
  // (exactly the heap-initialization workload of Algorithm 2).
  BaselineGraph base = MakeBaseline(graph);
  double baseline_sum = 0.0;
  out.gain_baseline_ms = TimeMs(reps, [&]() {
    double total = 0.0;
    for (int u = 0; u < graph.num_candidates(); ++u) {
      total += BaselineGainOf(base, u);
    }
    baseline_sum = total;
  });
  std::vector<float> best_f32(graph.root_distances_f32(),
                              graph.root_distances_f32() +
                                  graph.num_targets());
  double simd_sum = 0.0;
  out.gain_simd_ms = TimeMs(reps, [&]() {
    double total = 0.0;
    for (int u = 0; u < graph.num_candidates(); ++u) {
      CoverageGraph::EdgeLanes lanes = graph.ForwardLanesOf(u);
      total += simd::GainReduce(lanes.endpoint, lanes.distance, lanes.size,
                                best_f32.data(),
                                graph.target_weights_or_null());
    }
    simd_sum = total;
  });
  // Integral hop distances: both paths must agree exactly.
  OSRS_CHECK_MSG(baseline_sum == simd_sum,
                 "gain kernel disagreement: baseline " << baseline_sum
                                                       << " vs " << simd_sum);

  // --- End-to-end greedy under each backend (same bit-identical result;
  // the delta is pure kernel throughput).
  const int k = 10;
  GreedySummarizer greedy;
  double scalar_cost = 0.0;
  double simd_cost = 0.0;
  {
    simd::ForceBackend(simd::Backend::kScalar);
    out.greedy_scalar_ms = TimeMs(reps, [&]() {
      auto result = greedy.Summarize(graph, k);
      OSRS_CHECK(result.ok());
      scalar_cost = result->cost;
    });
    simd::ResetBackendOverride();
  }
  {
    simd::ForceBackend(simd::Backend::kAvx2);
    out.greedy_simd_ms = TimeMs(reps, [&]() {
      auto result = greedy.Summarize(graph, k);
      OSRS_CHECK(result.ok());
      simd_cost = result->cost;
    });
    simd::ResetBackendOverride();
  }
  OSRS_CHECK_MSG(scalar_cost == simd_cost,
                 "greedy backend disagreement: " << scalar_cost << " vs "
                                                 << simd_cost);
  return out;
}

/// "fig4" object of the JSON report: granularity -> algorithm -> [ms per k].
std::string Fig4Json(const QuantitativeResults& results) {
  std::string out = "{";
  bool first_granularity = true;
  for (const auto& [granularity, table] : results.avg_time_ms) {
    if (!first_granularity) out += ',';
    first_granularity = false;
    out += StrFormat("\"%s\":{", SummaryGranularityToString(granularity));
    bool first_algorithm = true;
    for (const auto& [name, times] : table) {
      if (!first_algorithm) out += ',';
      first_algorithm = false;
      out += StrFormat("\"%s\":[", name.c_str());
      for (size_t i = 0; i < times.size(); ++i) {
        if (i > 0) out += ',';
        out += StrFormat("%.3f", times[i]);
      }
      out += ']';
    }
    out += '}';
  }
  out += '}';
  return out;
}

int Run(int argc, char** argv) {
  StatsSession stats_session(argc, argv);
  bool smoke = false;
  std::string out_path = "BENCH_solver.json";
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
                   "usage: bench_fig4_time [--smoke] [--stats] [--out=PATH]\n");
      return 2;
    }
  }

  DoctorCorpusOptions corpus_options;
  corpus_options.scale = smoke ? 0.004 : 0.012;  // 4 / 12 doctors
  corpus_options.ontology_concepts = smoke ? 400 : 2000;
  Corpus corpus = GenerateDoctorCorpus(corpus_options);
  QuantitativeConfig config;
  if (smoke) {
    config.k_values = {2, 4};
    config.pair_budget = 80;
  }
  auto items = SampleItems(corpus, smoke ? 2 : 8);
  std::printf(
      "Figure 4 reproduction: %zu doctors, pair budget %zu/item, eps %.1f\n",
      items.size(), config.pair_budget, config.epsilon);

  QuantitativeResults results = RunQuantitative(corpus, items, config);

  for (auto granularity :
       {SummaryGranularity::kPairs, SummaryGranularity::kSentences,
        SummaryGranularity::kReviews}) {
    TableWriter table(StrFormat(
        "Fig 4 (top %s): avg time per doctor [ms] vs k",
        SummaryGranularityToString(granularity)));
    std::vector<std::string> header{"algorithm"};
    for (int k : results.k_values) header.push_back(StrFormat("k=%d", k));
    table.SetHeader(header);
    for (const auto& [name, times] : results.avg_time_ms[granularity]) {
      table.AddRow(name, times, 3);
    }
    table.Print();
    // Headline speedup at the largest k.
    const auto& t = results.avg_time_ms[granularity];
    double ilp = t.at("ILP").back();
    double rr = t.at("RR").back();
    double greedy = t.at("Greedy").back();
    std::printf("  speedup at k=%d: Greedy %.0fx vs ILP, %.0fx vs RR; "
                "RR %.1fx vs ILP\n",
                results.k_values.back(), ilp / greedy, rr / greedy,
                ilp / rr);
  }

  // Kernel microbenches: 20k pairs full-size (above the SIMD crossovers by
  // two orders of magnitude), 2k for --smoke sanity.
  const size_t kernel_pairs = smoke ? 2000 : 20000;
  const int reps = smoke ? 2 : 5;
  std::printf("\nkernel microbenches (%zu pairs, backend %s):\n", kernel_pairs,
              simd::BackendName(simd::ActiveBackend()));
  KernelResults kernels = RunKernelBench(kernel_pairs, reps);
  std::printf("  greedy gain:    baseline %8.3fms  simd %8.3fms  %5.2fx\n",
              kernels.gain_baseline_ms, kernels.gain_simd_ms,
              kernels.gain_baseline_ms / kernels.gain_simd_ms);
  std::printf("  greedy end2end: scalar   %8.3fms  simd %8.3fms  %5.2fx\n",
              kernels.greedy_scalar_ms, kernels.greedy_simd_ms,
              kernels.greedy_scalar_ms / kernels.greedy_simd_ms);

  BenchJsonWriter writer("solver");
  writer.Bool("smoke", smoke);
  writer.Str("backend", simd::BackendName(simd::ActiveBackend()));
  writer.Bool("avx2_compiled_in", simd::Avx2CompiledIn());
  {
    std::string ks = "[";
    for (size_t i = 0; i < results.k_values.size(); ++i) {
      if (i > 0) ks += ',';
      ks += StrFormat("%d", results.k_values[i]);
    }
    writer.Raw("k_values", ks + "]");
  }
  writer.Raw("fig4_avg_time_ms", Fig4Json(results));
  writer.Double("fig4_total_wall_ms", results.total_wall_ms);
  writer.Raw(
      "kernels",
      StrFormat(
          "{\"num_pairs\":%zu,\"num_edges\":%zu,"
          "\"gain_baseline_ms\":%.3f,\"gain_simd_ms\":%.3f,"
          "\"gain_speedup\":%.2f,"
          "\"greedy_scalar_ms\":%.3f,\"greedy_simd_ms\":%.3f,"
          "\"greedy_speedup\":%.2f}",
          kernels.num_pairs, kernels.num_edges, kernels.gain_baseline_ms,
          kernels.gain_simd_ms, kernels.gain_baseline_ms / kernels.gain_simd_ms,
          kernels.greedy_scalar_ms, kernels.greedy_simd_ms,
          kernels.greedy_scalar_ms / kernels.greedy_simd_ms));
  if (!writer.WriteFile(out_path, "bench_fig4_time")) return 2;
  return 0;
}

}  // namespace
}  // namespace osrs::bench

int main(int argc, char** argv) { return osrs::bench::Run(argc, argv); }

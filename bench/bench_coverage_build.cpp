// Coverage-graph construction benchmark (§4.1 initialization): the
// fast-path builder (precomputed ancestor closure + binary-searched
// sentiment windows + sharded parallel build) against a faithful
// re-implementation of the pre-closure builder (per-target BFS over the
// ontology, linear eps scan of each concept bucket, per-candidate edge
// sort before CSR assembly).
//
// Usage:
//   bench_coverage_build [--smoke] [--stats] [--mode=pairs|groups|both]
//                        [--threads=1,2,4,8] [--out=BENCH_coverage.json]
//
// Prints a table to stdout and writes machine-readable results (per
// dataset: baseline ms, fast ms per thread count, single-thread speedup,
// 4-thread scaling) to the --out JSON. --smoke shrinks the datasets to a
// CI-sized sanity run. Both builders must agree on the edge count; the
// binary aborts otherwise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/distance.h"
#include "core/model.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"

namespace osrs::bench {
namespace {

// ---------------------------------------------------------------------------
// Pre-PR baseline, reproduced verbatim in spirit: BFS ancestors per target
// (hash map + deque, allocating), unordered_map concept buckets, linear
// sentiment scan, per-candidate sort + bidirectional CSR assembly.

/// The pre-PR edge layout: {int, double}, 16 bytes. CoverageGraph::Edge
/// has since shrunk to 8 bytes; the baseline keeps the original layout so
/// its memory traffic stays faithful to the builder being compared against.
struct BaselineEdge {
  int endpoint;
  double weight;
};

std::vector<std::pair<ConceptId, int>> BaselineAncestors(const Ontology& onto,
                                                         ConceptId id) {
  std::vector<std::pair<ConceptId, int>> result;
  std::unordered_map<ConceptId, int> dist;
  dist.emplace(id, 0);
  result.emplace_back(id, 0);
  std::deque<ConceptId> frontier{id};
  while (!frontier.empty()) {
    ConceptId c = frontier.front();
    frontier.pop_front();
    int d = dist[c];
    for (ConceptId parent : onto.parents(c)) {
      auto [it, inserted] = dist.emplace(parent, d + 1);
      if (inserted) {
        result.emplace_back(parent, d + 1);
        frontier.push_back(parent);
      }
    }
  }
  return result;
}

/// The sort + CSR cost of the old Assemble, reproduced so the comparison
/// covers the whole construction, not just edge discovery.
size_t BaselineAssemble(int num_candidates, int num_targets,
                        std::vector<std::vector<BaselineEdge>>
                            per_candidate) {
  std::vector<size_t> forward_offsets(static_cast<size_t>(num_candidates) + 1,
                                      0);
  std::vector<BaselineEdge> forward_edges;
  size_t total_edges = 0;
  for (const auto& edges : per_candidate) total_edges += edges.size();
  forward_edges.reserve(total_edges);
  std::vector<size_t> backward_degree(static_cast<size_t>(num_targets), 0);
  for (int u = 0; u < num_candidates; ++u) {
    auto& edges = per_candidate[static_cast<size_t>(u)];
    std::sort(edges.begin(), edges.end(),
              [](const BaselineEdge& a, const BaselineEdge& b) {
                return a.endpoint < b.endpoint;
              });
    for (const auto& e : edges) {
      forward_edges.push_back(e);
      ++backward_degree[static_cast<size_t>(e.endpoint)];
    }
    forward_offsets[static_cast<size_t>(u) + 1] = forward_edges.size();
  }
  std::vector<size_t> backward_offsets(static_cast<size_t>(num_targets) + 1,
                                       0);
  for (int w = 0; w < num_targets; ++w) {
    backward_offsets[static_cast<size_t>(w) + 1] =
        backward_offsets[static_cast<size_t>(w)] +
        backward_degree[static_cast<size_t>(w)];
  }
  std::vector<BaselineEdge> backward_edges(total_edges);
  std::vector<size_t> cursor(backward_offsets.begin(),
                             backward_offsets.end() - 1);
  for (int u = 0; u < num_candidates; ++u) {
    for (size_t i = forward_offsets[static_cast<size_t>(u)];
         i < forward_offsets[static_cast<size_t>(u) + 1]; ++i) {
      const auto& e = forward_edges[i];
      backward_edges[cursor[static_cast<size_t>(e.endpoint)]++] = {u,
                                                                   e.weight};
    }
  }
  return forward_edges.size();
}

template <typename EmitFn>
void BaselineForEachCoveringPair(const PairDistance& distance,
                                 const std::vector<ConceptSentimentPair>& pairs,
                                 const EmitFn& emit) {
  const Ontology& onto = distance.ontology();
  const ConceptId root = onto.root();
  const double eps = distance.epsilon();
  std::unordered_map<ConceptId, std::vector<int>> buckets;
  for (size_t i = 0; i < pairs.size(); ++i) {
    buckets[pairs[i].concept_id].push_back(static_cast<int>(i));
  }
  for (int w = 0; w < static_cast<int>(pairs.size()); ++w) {
    const ConceptSentimentPair& target = pairs[static_cast<size_t>(w)];
    for (const auto& [ancestor, hop_distance] :
         BaselineAncestors(onto, target.concept_id)) {
      auto it = buckets.find(ancestor);
      if (it == buckets.end()) continue;
      const bool ancestor_is_root = (ancestor == root);
      for (int u : it->second) {
        const ConceptSentimentPair& source = pairs[static_cast<size_t>(u)];
        if (!ancestor_is_root &&
            std::abs(source.sentiment - target.sentiment) > eps) {
          continue;
        }
        emit(u, w, static_cast<double>(hop_distance));
      }
    }
  }
}

size_t BaselineBuildForPairs(const PairDistance& distance,
                             const std::vector<ConceptSentimentPair>& pairs) {
  std::vector<std::vector<BaselineEdge>> per_candidate(pairs.size());
  BaselineForEachCoveringPair(distance, pairs,
                              [&](int u, int w, double weight) {
                                per_candidate[static_cast<size_t>(u)]
                                    .push_back({w, weight});
                              });
  return BaselineAssemble(static_cast<int>(pairs.size()),
                          static_cast<int>(pairs.size()),
                          std::move(per_candidate));
}

size_t BaselineBuildForGroups(const PairDistance& distance,
                              const std::vector<ConceptSentimentPair>& pairs,
                              const std::vector<std::vector<int>>& groups) {
  std::vector<int> group_of(pairs.size(), -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int member : groups[g]) {
      group_of[static_cast<size_t>(member)] = static_cast<int>(g);
    }
  }
  std::vector<std::vector<BaselineEdge>> per_candidate(groups.size());
  std::vector<int> last_target(groups.size(), -1);
  BaselineForEachCoveringPair(
      distance, pairs, [&](int u, int w, double weight) {
        int g = group_of[static_cast<size_t>(u)];
        if (g < 0) return;
        auto& edges = per_candidate[static_cast<size_t>(g)];
        if (last_target[static_cast<size_t>(g)] == w && !edges.empty() &&
            edges.back().endpoint == w) {
          edges.back().weight = std::min(edges.back().weight, weight);
        } else {
          edges.push_back({w, weight});
          last_target[static_cast<size_t>(g)] = w;
        }
      });
  return BaselineAssemble(static_cast<int>(groups.size()),
                          static_cast<int>(pairs.size()),
                          std::move(per_candidate));
}

// ---------------------------------------------------------------------------
// Datasets: the SNOMED-like ontology with Zipf-distributed concept draws
// (popular aspects dominate, like real review corpora) and grid sentiments.

std::vector<ConceptSentimentPair> MakePairs(Rng& rng, const Ontology& onto,
                                            size_t count) {
  std::vector<ConceptSentimentPair> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Skip concept 0: review aspects map to specific concepts, never the
    // ontology root itself — and root-concept pairs would cover every
    // target with no sentiment test, swamping both builders with identical
    // unfiltered edges and hiding the construction costs under comparison.
    ConceptId concept_id = static_cast<ConceptId>(
        1 + rng.NextZipf(onto.num_concepts() - 1, 0.8));
    double sentiment = -1.0 + 0.0625 * static_cast<double>(rng.NextUint64(33));
    pairs.push_back({concept_id, sentiment});
  }
  return pairs;
}

std::vector<std::vector<int>> MakeGroups(Rng& rng, size_t num_pairs) {
  std::vector<std::vector<int>> groups;
  size_t i = 0;
  while (i < num_pairs) {
    size_t size = 1 + rng.NextUint64(4);
    groups.emplace_back();
    for (size_t j = 0; j < size && i < num_pairs; ++j, ++i) {
      groups.back().push_back(static_cast<int>(i));
    }
  }
  return groups;
}

/// Best-of-N wall time of `fn` in milliseconds (min filters scheduler
/// noise; the builders are deterministic so every rep does the same work).
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

struct DatasetResult {
  std::string mode;
  double eps = 0.0;
  size_t num_pairs = 0;
  size_t num_edges = 0;
  double baseline_ms = 0.0;
  std::vector<std::pair<int, double>> fast_ms;  // (threads, ms)

  double FastMsAt(int threads) const {
    for (const auto& [t, ms] : fast_ms) {
      if (t == threads) return ms;
    }
    return 0.0;
  }
};

/// The "datasets" array of the report; the envelope (bench name,
/// hardware_threads — which qualifies the scaling numbers, since fast_ms
/// at t threads can only improve over t = 1 when the host actually has t
/// cores) comes from BenchJsonWriter.
std::string DatasetsJson(const std::vector<DatasetResult>& results) {
  std::string out = "[";
  for (size_t i = 0; i < results.size(); ++i) {
    const DatasetResult& r = results[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"mode\":\"%s\",\"epsilon\":%.4f,\"num_pairs\":%zu,"
        "\"num_edges\":%zu,\"baseline_ms\":%.3f,\"fast_ms\":{",
        r.mode.c_str(), r.eps, r.num_pairs, r.num_edges, r.baseline_ms);
    for (size_t j = 0; j < r.fast_ms.size(); ++j) {
      if (j > 0) out += ',';
      out += StrFormat("\"%d\":%.3f", r.fast_ms[j].first,
                       r.fast_ms[j].second);
    }
    double fast1 = r.FastMsAt(1);
    double fast4 = r.FastMsAt(4);
    out += StrFormat(
        "},\"speedup_1t\":%.2f,\"scaling_4t\":%.2f}",
        fast1 > 0.0 ? r.baseline_ms / fast1 : 0.0,
        fast4 > 0.0 && fast1 > 0.0 ? fast1 / fast4 : 0.0);
  }
  out += ']';
  return out;
}

int Run(int argc, char** argv) {
  StatsSession stats(argc, argv);
  bool smoke = false;
  std::string mode = "both";
  std::string out_path = "BENCH_coverage.json";
  std::vector<int> thread_counts = {1, 2, 4};
  // Wide- and narrow-window operating points; see the dataset loop below.
  std::vector<double> eps_values = {0.5, 0.0625};
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--stats") {
      // handled by StatsSession
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = std::string(arg.substr(7));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else if (arg.rfind("--threads=", 0) == 0) {
      thread_counts.clear();
      std::string list(arg.substr(10));
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        thread_counts.push_back(std::stoi(list.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else if (arg.rfind("--eps=", 0) == 0) {
      eps_values.assign(1, std::stod(std::string(arg.substr(6))));
    } else {
      std::fprintf(stderr,
                   "usage: bench_coverage_build [--smoke] [--stats] "
                   "[--mode=pairs|groups|both] [--threads=1,2,4] "
                   "[--eps=0.5] [--out=PATH]\n");
      return 2;
    }
  }

  // Closer to real SNOMED shape than the 5k default: more concepts and a
  // deeper DAG, so per-target ancestor work is a realistic share of the
  // build (SNOMED CT itself is 300k+ concepts).
  SnomedLikeOptions onto_options;
  onto_options.num_concepts = smoke ? 400 : 20000;
  onto_options.max_depth = smoke ? 8 : 16;
  Ontology onto = BuildSnomedLikeOntology(onto_options);
  const int reps = smoke ? 1 : 3;
  std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{500} : std::vector<size_t>{2000, 8000, 20000};

  std::printf(
      "coverage-graph construction: %d-concept ontology, "
      "%u hardware thread(s)\n",
      onto_options.num_concepts,
      std::max(1u, std::thread::hardware_concurrency()));
  std::printf("%-8s %6s %9s %12s %12s", "mode", "eps", "pairs", "edges",
              "baseline");
  for (int t : thread_counts) std::printf(" %9s", StrFormat("fast x%d", t).c_str());
  std::printf(" %9s\n", "speedup");

  std::vector<DatasetResult> results;
  Rng rng(20260806);
  for (size_t size : sizes) {
    std::vector<ConceptSentimentPair> pairs = MakePairs(rng, onto, size);
    std::vector<std::vector<int>> groups = MakeGroups(rng, pairs.size());
    // eps spans the two construction regimes: wide windows admit most of
    // every bucket (cost dominated by materializing the edges — both
    // builders write the same CSR bytes), narrow windows reject most of it
    // (cost dominated by discovery, where binary-searched windows beat the
    // baseline's full bucket scans by an order of magnitude).
    for (double eps : eps_values) {
      PairDistance distance(&onto, eps);
      for (std::string_view m : {"pairs", "groups"}) {
        if (mode != "both" && mode != m) continue;
        DatasetResult result;
        result.mode = std::string(m);
        result.eps = eps;
        result.num_pairs = size;

        size_t baseline_edges = 0;
        result.baseline_ms = TimeMs(reps, [&]() {
          baseline_edges =
              m == "pairs"
                  ? BaselineBuildForPairs(distance, pairs)
                  : BaselineBuildForGroups(distance, pairs, groups);
        });
        for (int threads : thread_counts) {
          CoverageGraph graph;
          const CoverageBuildOptions options{.num_threads = threads};
          double ms = TimeMs(reps, [&]() {
            graph = (m == "pairs" ? CoverageGraph::TryBuildForPairs(
                                        distance, pairs, options)
                                  : CoverageGraph::TryBuildForGroups(
                                        distance, pairs, groups, options))
                        .value();
          });
          result.fast_ms.emplace_back(threads, ms);
          result.num_edges = graph.num_edges();
          OSRS_CHECK_MSG(graph.num_edges() == baseline_edges,
                         "edge count mismatch: fast x" << threads << " built "
                         << graph.num_edges() << ", baseline built "
                         << baseline_edges);
        }

        std::printf("%-8s %6.3f %9zu %12zu %10.2fms", result.mode.c_str(),
                    result.eps, result.num_pairs, result.num_edges,
                    result.baseline_ms);
        for (const auto& [t, ms] : result.fast_ms) std::printf(" %7.2fms", ms);
        double fast1 = result.FastMsAt(1);
        std::printf(" %8.2fx\n",
                    fast1 > 0.0 ? result.baseline_ms / fast1 : 0.0);
        results.push_back(std::move(result));
      }
    }
  }

  BenchJsonWriter writer("coverage_build");
  writer.Int("ontology_concepts", onto_options.num_concepts);
  writer.Raw("datasets", DatasetsJson(results));
  if (!writer.WriteFile(out_path, "bench_coverage_build")) return 2;
  return 0;
}

}  // namespace
}  // namespace osrs::bench

int main(int argc, char** argv) { return osrs::bench::Run(argc, argv); }

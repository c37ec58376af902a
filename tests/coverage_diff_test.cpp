// Differential tests of the fast-path coverage-graph builder (§4.1):
// precomputed ancestor closure + binary-searched sentiment windows +
// sharded parallel build, checked against a naive reference builder that
// shares no code with the production path (its ancestor distances come
// from a fresh upward BFS per query, its edges from an O(|U|·|W|) scan).
// Every comparison runs at 1, 2 and 8 threads and demands identical
// graphs — same edges, same weights, same CSR order. The memory gate is
// checked at its exact boundary against the same unlimited builds.

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "coverage/coverage_graph.h"
#include "ontology/ontology.h"

namespace osrs {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// Naive reference implementation.

/// Shortest directed path length from `ancestor` down to `descendant` via
/// upward BFS over parents(); -1 when not an ancestor-or-self. Independent
/// of Ontology's precomputed closure.
int NaiveAncestorDistance(const Ontology& onto, ConceptId ancestor,
                          ConceptId descendant) {
  std::vector<int> dist(onto.num_concepts(), -1);
  dist[static_cast<size_t>(descendant)] = 0;
  std::vector<ConceptId> frontier{descendant};
  int hops = 0;
  while (!frontier.empty()) {
    if (dist[static_cast<size_t>(ancestor)] >= 0) {
      return dist[static_cast<size_t>(ancestor)];
    }
    std::vector<ConceptId> next;
    ++hops;
    for (ConceptId c : frontier) {
      for (ConceptId parent : onto.parents(c)) {
        if (dist[static_cast<size_t>(parent)] < 0) {
          dist[static_cast<size_t>(parent)] = hops;
          next.push_back(parent);
        }
      }
    }
    frontier = std::move(next);
  }
  return dist[static_cast<size_t>(ancestor)];
}

/// One reference edge; sorted comparisons use the derived ordering.
struct RefEdge {
  int candidate;
  int target;
  double weight;

  bool operator<(const RefEdge& other) const {
    return std::tie(candidate, target) <
           std::tie(other.candidate, other.target);
  }
};

/// All (u, w, weight) edges of the pairs graph by definition: u covers w
/// iff u's concept is an ancestor-or-self of w's concept and (u's concept
/// is the root or |s_u - s_w| <= eps).
std::vector<RefEdge> NaivePairsEdges(
    const Ontology& onto, const std::vector<ConceptSentimentPair>& pairs,
    double eps) {
  std::vector<RefEdge> edges;
  for (int u = 0; u < static_cast<int>(pairs.size()); ++u) {
    for (int w = 0; w < static_cast<int>(pairs.size()); ++w) {
      const auto& source = pairs[static_cast<size_t>(u)];
      const auto& target = pairs[static_cast<size_t>(w)];
      int d = NaiveAncestorDistance(onto, source.concept_id,
                                    target.concept_id);
      if (d < 0) continue;
      if (source.concept_id != onto.root() &&
          std::abs(source.sentiment - target.sentiment) > eps) {
        continue;
      }
      edges.push_back({u, w, static_cast<double>(d)});
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Group-level edges: min weight over the group's member pairs.
std::vector<RefEdge> NaiveGroupEdges(
    const Ontology& onto, const std::vector<ConceptSentimentPair>& pairs,
    const std::vector<std::vector<int>>& groups, double eps) {
  std::vector<RefEdge> pair_edges = NaivePairsEdges(onto, pairs, eps);
  std::vector<int> group_of(pairs.size(), -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int member : groups[g]) {
      group_of[static_cast<size_t>(member)] = static_cast<int>(g);
    }
  }
  std::map<std::pair<int, int>, double> best;
  for (const RefEdge& e : pair_edges) {
    int g = group_of[static_cast<size_t>(e.candidate)];
    if (g < 0) continue;
    auto [it, inserted] = best.emplace(std::make_pair(g, e.target), e.weight);
    if (!inserted) it->second = std::min(it->second, e.weight);
  }
  std::vector<RefEdge> edges;
  edges.reserve(best.size());
  for (const auto& [key, weight] : best) {
    edges.push_back({key.first, key.second, weight});
  }
  return edges;  // map iteration is already (candidate, target)-sorted
}

/// Flattens a CoverageGraph's forward CSR into sorted reference edges.
std::vector<RefEdge> GraphEdges(const CoverageGraph& graph) {
  std::vector<RefEdge> edges;
  edges.reserve(graph.num_edges());
  for (int u = 0; u < graph.num_candidates(); ++u) {
    for (const auto& e : graph.EdgesOf(u)) {
      edges.push_back({u, e.endpoint, e.weight});
    }
  }
  return edges;  // CSR order is already (candidate, target)-sorted
}

void ExpectEdgesEqual(const std::vector<RefEdge>& expected,
                      const CoverageGraph& graph, const char* context) {
  std::vector<RefEdge> actual = GraphEdges(graph);
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].candidate, actual[i].candidate) << context;
    EXPECT_EQ(expected[i].target, actual[i].target) << context;
    EXPECT_DOUBLE_EQ(expected[i].weight, actual[i].weight) << context;
  }
  // The backward CSR must mirror the forward one exactly.
  size_t backward_total = 0;
  for (int w = 0; w < graph.num_targets(); ++w) {
    for (const auto& e : graph.CoveringOf(w)) {
      ++backward_total;
      bool found = false;
      for (const auto& f : graph.EdgesOf(e.endpoint)) {
        if (f.endpoint == w && f.weight == e.weight) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << context << " backward edge (" << e.endpoint
                         << ", " << w << ") has no forward twin";
    }
  }
  EXPECT_EQ(backward_total, graph.num_edges()) << context;
}

// ---------------------------------------------------------------------------
// Randomized instance generation.

/// A random rooted DAG: concept i > 0 draws one parent among 0..i-1, plus a
/// second distinct parent with probability `multi_parent_prob` (diamonds,
/// multi-path ancestors of different lengths).
Ontology RandomOntology(Rng& rng, int num_concepts,
                        double multi_parent_prob) {
  Ontology onto;
  for (int i = 0; i < num_concepts; ++i) {
    onto.AddConcept("c" + std::to_string(i));
  }
  for (int i = 1; i < num_concepts; ++i) {
    ConceptId first = static_cast<ConceptId>(rng.NextUint64(
        static_cast<uint64_t>(i)));
    EXPECT_TRUE(onto.AddEdge(first, static_cast<ConceptId>(i)).ok());
    if (i > 1 && rng.NextBernoulli(multi_parent_prob)) {
      ConceptId second = static_cast<ConceptId>(rng.NextUint64(
          static_cast<uint64_t>(i)));
      if (second != first) {
        EXPECT_TRUE(onto.AddEdge(second, static_cast<ConceptId>(i)).ok());
      }
    }
  }
  EXPECT_TRUE(onto.Finalize().ok());
  return onto;
}

/// Sentiments drawn from the exact grid {-1, -0.875, ..., 1} (multiples of
/// 1/8, exactly representable). With eps also a multiple of 1/8, the
/// |Δs| == eps boundary of Definition 1 is hit exactly — the cases where a
/// sloppy window filter would diverge from the linear-scan reference.
std::vector<ConceptSentimentPair> RandomPairs(Rng& rng, const Ontology& onto,
                                              int num_pairs) {
  std::vector<ConceptSentimentPair> pairs;
  pairs.reserve(static_cast<size_t>(num_pairs));
  for (int i = 0; i < num_pairs; ++i) {
    ConceptId concept_id =
        static_cast<ConceptId>(rng.NextUint64(onto.num_concepts()));
    double sentiment =
        -1.0 + 0.125 * static_cast<double>(rng.NextUint64(17));
    pairs.push_back({concept_id, sentiment});
  }
  return pairs;
}

/// Partitions pair indices into random contiguous groups of size 1..4 (the
/// shape TryBuildItemGraph produces: contiguous runs in reading order).
std::vector<std::vector<int>> RandomGroups(Rng& rng, size_t num_pairs) {
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

// ---------------------------------------------------------------------------
// Tests.

TEST(CoverageDiffTest, PairsMatchNaiveReferenceRandomized) {
  Rng rng(20260806);
  const double eps_grid[] = {0.125, 0.25, 0.5};
  for (int round = 0; round < 24; ++round) {
    int num_concepts = 1 + static_cast<int>(rng.NextUint64(40));
    int num_pairs = static_cast<int>(rng.NextUint64(121));
    double multi_parent_prob = 0.25 * rng.NextDouble();
    double eps = eps_grid[rng.NextUint64(3)];
    Ontology onto = RandomOntology(rng, num_concepts, multi_parent_prob);
    std::vector<ConceptSentimentPair> pairs =
        RandomPairs(rng, onto, num_pairs);
    PairDistance dist(&onto, eps);
    std::vector<RefEdge> expected = NaivePairsEdges(onto, pairs, eps);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("round " + std::to_string(round) + " threads " +
                   std::to_string(threads));
      CoverageGraph graph =
          CoverageGraph::TryBuildForPairs(dist, pairs, {.num_threads = threads})
              .value();
      ASSERT_EQ(graph.num_candidates(), num_pairs);
      ASSERT_EQ(graph.num_targets(), num_pairs);
      ExpectEdgesEqual(expected, graph, "pairs");
    }
  }
}

TEST(CoverageDiffTest, GroupsMatchNaiveReferenceRandomized) {
  Rng rng(4242);
  for (int round = 0; round < 16; ++round) {
    int num_concepts = 2 + static_cast<int>(rng.NextUint64(30));
    int num_pairs = static_cast<int>(rng.NextUint64(101));
    Ontology onto = RandomOntology(rng, num_concepts, 0.15);
    std::vector<ConceptSentimentPair> pairs =
        RandomPairs(rng, onto, num_pairs);
    std::vector<std::vector<int>> groups = RandomGroups(rng, pairs.size());
    PairDistance dist(&onto, 0.25);
    std::vector<RefEdge> expected = NaiveGroupEdges(onto, pairs, groups, 0.25);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("round " + std::to_string(round) + " threads " +
                   std::to_string(threads));
      CoverageGraph graph =
          CoverageGraph::TryBuildForGroups(dist, pairs, groups,
                                           {.num_threads = threads})
              .value();
      ASSERT_EQ(graph.num_candidates(), static_cast<int>(groups.size()));
      ASSERT_EQ(graph.num_targets(), num_pairs);
      ExpectEdgesEqual(expected, graph, "groups");
    }
  }
}

TEST(CoverageDiffTest, ExactEpsilonBoundaryIsCovered) {
  // |Δs| == eps exactly (all values binary-representable): Definition 1
  // uses <=, so the boundary pair must be covered — at every thread count,
  // and regardless of the window filter's slack handling.
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  const double eps = 0.25;
  PairDistance dist(&onto, eps);
  std::vector<ConceptSentimentPair> pairs{
      {a, 0.5},     // 0: covers 1 (|Δs| = eps exactly) and 2 (= eps)
      {a, 0.25},    // 1
      {a, 0.75},    // 2
      {a, 0.8125},  // 3: |Δs| = 0.3125 > eps from 0
      {a, -0.25},   // 4: far side
  };
  std::vector<RefEdge> expected = NaivePairsEdges(onto, pairs, eps);
  // Sanity: the boundary edges really are present in the reference.
  auto has_edge = [&](int u, int w) {
    return std::any_of(expected.begin(), expected.end(), [&](const RefEdge& e) {
      return e.candidate == u && e.target == w;
    });
  };
  EXPECT_TRUE(has_edge(0, 1));
  EXPECT_TRUE(has_edge(0, 2));
  EXPECT_FALSE(has_edge(0, 3));
  EXPECT_FALSE(has_edge(0, 4));
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const CoverageBuildOptions options{.num_threads = threads};
    ExpectEdgesEqual(expected,
                     CoverageGraph::TryBuildForPairs(dist, pairs, options)
                         .value(),
                     "eps boundary");
  }
}

TEST(CoverageDiffTest, MultiParentDiamondUsesShortestPath) {
  // root -> a -> b -> d and root -> d: d has ancestors at distances
  // {d:0, b:1, a:2, root:1} — the closure must keep the min distance.
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ConceptId b = onto.AddConcept("b");
  ConceptId d = onto.AddConcept("d");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.AddEdge(a, b).ok());
  ASSERT_TRUE(onto.AddEdge(b, d).ok());
  ASSERT_TRUE(onto.AddEdge(root, d).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{
      {root, 0.0}, {a, 0.0}, {b, 0.0}, {d, 0.0}};
  std::vector<RefEdge> expected = NaivePairsEdges(onto, pairs, 0.5);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CoverageGraph graph =
        CoverageGraph::TryBuildForPairs(dist, pairs, {.num_threads = threads})
            .value();
    ExpectEdgesEqual(expected, graph, "diamond");
    // Root reaches d in 1 hop (direct edge), not 3 (via a, b).
    bool found = false;
    for (const auto& e : graph.EdgesOf(0)) {
      if (e.endpoint == 3) {
        EXPECT_DOUBLE_EQ(e.weight, 1.0);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(CoverageDiffTest, DegenerateInstances) {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const CoverageBuildOptions options{.num_threads = threads};
    // Empty instance.
    CoverageGraph empty =
        CoverageGraph::TryBuildForPairs(dist, {}, options).value();
    EXPECT_EQ(empty.num_candidates(), 0);
    EXPECT_EQ(empty.num_targets(), 0);
    EXPECT_EQ(empty.num_edges(), 0u);
    // Single self-covering pair (fewer targets than threads).
    std::vector<ConceptSentimentPair> one{{a, 0.5}};
    CoverageGraph single =
        CoverageGraph::TryBuildForPairs(dist, one, options).value();
    EXPECT_EQ(single.num_candidates(), 1);
    ASSERT_EQ(single.EdgesOf(0).size(), 1u);
    EXPECT_EQ(single.EdgesOf(0)[0].endpoint, 0);
    EXPECT_DOUBLE_EQ(single.EdgesOf(0)[0].weight, 0.0);
    // Groups over an empty pair set.
    CoverageGraph groups =
        CoverageGraph::TryBuildForGroups(dist, {}, {}, options).value();
    EXPECT_EQ(groups.num_candidates(), 0);
    EXPECT_EQ(groups.num_targets(), 0);
  }
}

TEST(CoverageDiffTest, ThreadCountsProduceIdenticalGraphs) {
  // One larger instance: the serial graph is the baseline and every other
  // thread count must reproduce it edge-for-edge (same order, same
  // weights), including the weighted builder's target weights.
  Rng rng(99);
  Ontology onto = RandomOntology(rng, 120, 0.2);
  std::vector<ConceptSentimentPair> pairs = RandomPairs(rng, onto, 900);
  std::vector<std::vector<int>> groups = RandomGroups(rng, pairs.size());
  std::vector<double> weights(pairs.size());
  for (double& weight : weights) weight = 1.0 + rng.NextDouble();
  PairDistance dist(&onto, 0.375);

  CoverageGraph base = CoverageGraph::TryBuildForPairs(dist, pairs).value();
  CoverageGraph base_groups =
      CoverageGraph::TryBuildForGroups(dist, pairs, groups).value();
  std::vector<RefEdge> base_edges = GraphEdges(base);
  std::vector<RefEdge> base_group_edges = GraphEdges(base_groups);
  for (int threads : {0, 2, 3, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const CoverageBuildOptions options{.num_threads = threads};
    ExpectEdgesEqual(base_edges,
                     CoverageGraph::TryBuildForPairs(dist, pairs, options)
                         .value(),
                     "pairs vs serial");
    ExpectEdgesEqual(
        base_group_edges,
        CoverageGraph::TryBuildForGroups(dist, pairs, groups, options).value(),
        "groups vs serial");
    CoverageGraph weighted =
        CoverageGraph::TryBuildForPairsWeighted(dist, pairs, weights, options)
            .value();
    ExpectEdgesEqual(base_edges, weighted, "weighted vs serial");
    for (size_t w = 0; w < weights.size(); ++w) {
      ASSERT_DOUBLE_EQ(weighted.target_weight(static_cast<int>(w)),
                       weights[w]);
    }
    // Cost identity on a random selection — the solver-facing contract.
    std::vector<int> selection;
    for (int u = 0; u < base.num_candidates(); u += 7) selection.push_back(u);
    EXPECT_DOUBLE_EQ(
        base.CostOfSelection(selection),
        CoverageGraph::TryBuildForPairs(dist, pairs, options)
            .value()
            .CostOfSelection(selection));
  }
}

void ExpectGraphsIdentical(const CoverageGraph& expected,
                           const CoverageGraph& actual, const char* context) {
  ASSERT_EQ(expected.num_candidates(), actual.num_candidates()) << context;
  ASSERT_EQ(expected.num_targets(), actual.num_targets()) << context;
  ExpectEdgesEqual(GraphEdges(expected), actual, context);
  for (int w = 0; w < expected.num_targets(); ++w) {
    CoverageGraph::EdgeRange want = expected.CoveringOf(w);
    CoverageGraph::EdgeRange got = actual.CoveringOf(w);
    ASSERT_EQ(want.size(), got.size()) << context << " target " << w;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].endpoint, got[i].endpoint) << context;
      EXPECT_EQ(want[i].weight, got[i].weight) << context;
    }
    EXPECT_EQ(expected.root_distance(w), actual.root_distance(w)) << context;
    EXPECT_EQ(expected.target_weight(w), actual.target_weight(w)) << context;
  }
}

size_t GraphBytes(const CoverageGraph& graph, bool weighted) {
  return CoverageGraph::EstimateBytes(
      graph.num_edges(), static_cast<size_t>(graph.num_candidates()),
      static_cast<size_t>(graph.num_targets()), weighted);
}

TEST(CoverageDiffTest, MemoryGateAdmitsExactEstimateAndRejectsOneByteLess) {
  // A limit equal to the finished graph's EstimateBytes must build the
  // same graph as an unlimited build; one byte less must be refused with
  // kResourceExhausted before anything is allocated — for every builder
  // and at every thread count.
  Rng rng(512);
  Ontology onto = RandomOntology(rng, 60, 0.2);
  std::vector<ConceptSentimentPair> pairs = RandomPairs(rng, onto, 300);
  std::vector<std::vector<int>> groups = RandomGroups(rng, pairs.size());
  std::vector<double> weights(pairs.size());
  for (double& weight : weights) weight = 1.0 + rng.NextDouble();
  PairDistance dist(&onto, 0.25);

  const CoverageGraph pairs_graph =
      CoverageGraph::TryBuildForPairs(dist, pairs).value();
  const CoverageGraph groups_graph =
      CoverageGraph::TryBuildForGroups(dist, pairs, groups).value();
  const CoverageGraph weighted_graph =
      CoverageGraph::TryBuildForPairsWeighted(dist, pairs, weights).value();
  ASSERT_GT(pairs_graph.num_edges(), 0u);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CoverageBuildOptions fits{.num_threads = threads};
    CoverageBuildOptions short_by_one{.num_threads = threads};

    fits.max_memory_bytes = GraphBytes(pairs_graph, /*weighted=*/false);
    short_by_one.max_memory_bytes = fits.max_memory_bytes - 1;
    Result<CoverageGraph> built =
        CoverageGraph::TryBuildForPairs(dist, pairs, fits);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ExpectGraphsIdentical(pairs_graph, *built, "pairs at limit");
    EXPECT_EQ(
        CoverageGraph::TryBuildForPairs(dist, pairs, short_by_one)
            .status()
            .code(),
        StatusCode::kResourceExhausted);

    fits.max_memory_bytes = GraphBytes(groups_graph, /*weighted=*/false);
    short_by_one.max_memory_bytes = fits.max_memory_bytes - 1;
    built = CoverageGraph::TryBuildForGroups(dist, pairs, groups, fits);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ExpectGraphsIdentical(groups_graph, *built, "groups at limit");
    EXPECT_EQ(
        CoverageGraph::TryBuildForGroups(dist, pairs, groups, short_by_one)
            .status()
            .code(),
        StatusCode::kResourceExhausted);

    // The weighted estimate also counts the multiplicity array.
    fits.max_memory_bytes = GraphBytes(weighted_graph, /*weighted=*/true);
    short_by_one.max_memory_bytes = fits.max_memory_bytes - 1;
    built = CoverageGraph::TryBuildForPairsWeighted(dist, pairs, weights, fits);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ExpectGraphsIdentical(weighted_graph, *built, "weighted at limit");
    EXPECT_EQ(CoverageGraph::TryBuildForPairsWeighted(dist, pairs, weights,
                                                      short_by_one)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace osrs

// Bit-identity diff tests between the SIMD and scalar kernel backends.
//
// The fixed accumulation-order contract (src/common/simd_kernels.h) promises
// that every kernel produces bit-identical results whichever backend runs.
// These tests force each backend in turn over randomized coverage graphs —
// including sentiment pairs placed *exactly* on the |ds| == eps boundary —
// and demand byte-equal graphs, identical selections, and exactly equal
// costs from every solver. On hosts without AVX2 (or with OSRS_SIMD=OFF)
// ForceBackend degrades to scalar and the diff trivially holds, so the test
// is green in every build flavor ci.sh exercises.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "core/distance.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"
#include "solver/greedy.h"
#include "solver/local_search.h"
#include "solver/randomized_rounding.h"

namespace osrs {
namespace {

/// Forces a kernel backend for the enclosing scope.
class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend backend) {
    installed_ = simd::ForceBackend(backend);
  }
  ~ScopedBackend() { simd::ResetBackendOverride(); }
  simd::Backend installed() const { return installed_; }

 private:
  simd::Backend installed_;
};

/// Pairs whose sentiments sit on a 1/8 grid, so with eps = 0.25 the
/// |ds| == eps case occurs exactly (0.125 and 0.25 are exact doubles; their
/// differences are exact too). Reuses a small concept set so per-concept
/// sentiment windows exceed the builder's SIMD crossover (16 lanes).
std::vector<ConceptSentimentPair> GridPairs(const Ontology& ontology,
                                            uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<ConceptSentimentPair> pairs;
  pairs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    ConceptId c = static_cast<ConceptId>(
        1 + rng.NextUint64(ontology.num_concepts() - 1));
    double s = static_cast<double>(rng.NextInt(-8, 8)) / 8.0;
    pairs.push_back({c, s});
  }
  return pairs;
}

/// Byte-level equality of two graphs' SoA lanes.
void ExpectGraphsIdentical(const CoverageGraph& a, const CoverageGraph& b) {
  ASSERT_EQ(a.num_candidates(), b.num_candidates());
  ASSERT_EQ(a.num_targets(), b.num_targets());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int u = 0; u < a.num_candidates(); ++u) {
    CoverageGraph::EdgeLanes la = a.ForwardLanesOf(u);
    CoverageGraph::EdgeLanes lb = b.ForwardLanesOf(u);
    ASSERT_EQ(la.size, lb.size) << "candidate " << u;
    ASSERT_EQ(0, std::memcmp(la.endpoint, lb.endpoint,
                             la.size * sizeof(int32_t)));
    ASSERT_EQ(0, std::memcmp(la.distance, lb.distance,
                             la.size * sizeof(float)));
  }
  for (int w = 0; w < a.num_targets(); ++w) {
    ASSERT_EQ(a.root_distance(w), b.root_distance(w));
    ASSERT_EQ(a.target_weight(w), b.target_weight(w));
  }
}

struct SolverRun {
  std::vector<int> selected;
  double cost = 0.0;
};

/// Runs every solver on `graph` and returns (selection, cost) per solver.
/// Costs are compared with EXPECT_EQ — exact, not approximate — because
/// that is the contract under test.
std::vector<SolverRun> RunAllSolvers(const CoverageGraph& graph, int k) {
  std::vector<SolverRun> runs;
  auto record = [&runs](const Result<SummaryResult>& result) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    runs.push_back({result->selected, result->cost});
  };
  record(GreedySummarizer().Summarize(graph, k));
  GreedyOptions lazy;
  lazy.heap = GreedyOptions::Heap::kLazy;
  record(GreedySummarizer(lazy).Summarize(graph, k));
  record(LocalSearchSummarizer().Summarize(graph, k));
  RandomizedRoundingOptions rr;
  rr.seed = 0xC0FFEE;
  rr.trials = 6;
  record(RandomizedRoundingSummarizer(rr).Summarize(graph, k));
  return runs;
}

class SolverSimdDiffTest : public testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    SnomedLikeOptions options;
    options.num_concepts = 24;  // few concepts => wide sentiment windows
    options.max_depth = 4;
    options.multi_parent_prob = 0.2;
    options.seed = GetParam();
    ontology_ = BuildSnomedLikeOntology(options);
  }

  Ontology ontology_;
};

TEST_P(SolverSimdDiffTest, GraphBuildIsBackendInvariant) {
  // The eps-window scan runs inside both the counting and scatter passes;
  // 300 pairs over 24 concepts makes most windows cross the 16-lane SIMD
  // threshold while the smallest stay on the scalar tail.
  auto pairs = GridPairs(ontology_, GetParam() * 77 + 5, 300);
  PairDistance distance(&ontology_, /*epsilon=*/0.25);
  CoverageGraph scalar_graph;
  {
    ScopedBackend backend(simd::Backend::kScalar);
    scalar_graph = CoverageGraph::TryBuildForPairs(distance, pairs).value();
  }
  {
    ScopedBackend backend(simd::Backend::kAvx2);
    CoverageGraph vec_graph =
        CoverageGraph::TryBuildForPairs(distance, pairs).value();
    ExpectGraphsIdentical(scalar_graph, vec_graph);
  }
}

TEST_P(SolverSimdDiffTest, AllSolversBitIdenticalAcrossBackends) {
  auto pairs = GridPairs(ontology_, GetParam() * 131 + 9, 220);
  PairDistance distance(&ontology_, /*epsilon=*/0.25);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairs(distance, pairs).value();
  for (int k : {1, 4, 9}) {
    std::vector<SolverRun> scalar_runs;
    {
      ScopedBackend backend(simd::Backend::kScalar);
      scalar_runs = RunAllSolvers(graph, k);
      if (HasFatalFailure()) return;
    }
    std::vector<SolverRun> vec_runs;
    {
      ScopedBackend backend(simd::Backend::kAvx2);
      vec_runs = RunAllSolvers(graph, k);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(scalar_runs.size(), vec_runs.size());
    for (size_t i = 0; i < scalar_runs.size(); ++i) {
      EXPECT_EQ(scalar_runs[i].selected, vec_runs[i].selected)
          << "solver " << i << " k=" << k;
      // Exact equality: the accumulation order is fixed by contract.
      EXPECT_EQ(scalar_runs[i].cost, vec_runs[i].cost)
          << "solver " << i << " k=" << k;
    }
  }
}

TEST_P(SolverSimdDiffTest, WeightedGraphsBitIdenticalAcrossBackends) {
  // Integer multiplicities, as DedupePairs produces: products and sums stay
  // exact, so weighted gains are order-independent and must diff clean.
  auto pairs = GridPairs(ontology_, GetParam() * 53 + 3, 160);
  Rng rng(GetParam() * 17 + 1);
  std::vector<double> weights(pairs.size());
  for (auto& w : weights) w = static_cast<double>(1 + rng.NextUint64(4));
  PairDistance distance(&ontology_, /*epsilon=*/0.25);
  CoverageGraph graph =
      CoverageGraph::TryBuildForPairsWeighted(distance, pairs, weights).value();
  for (int k : {2, 6}) {
    std::vector<SolverRun> scalar_runs;
    {
      ScopedBackend backend(simd::Backend::kScalar);
      scalar_runs = RunAllSolvers(graph, k);
      if (HasFatalFailure()) return;
    }
    std::vector<SolverRun> vec_runs;
    {
      ScopedBackend backend(simd::Backend::kAvx2);
      vec_runs = RunAllSolvers(graph, k);
      if (HasFatalFailure()) return;
    }
    for (size_t i = 0; i < scalar_runs.size(); ++i) {
      EXPECT_EQ(scalar_runs[i].selected, vec_runs[i].selected);
      EXPECT_EQ(scalar_runs[i].cost, vec_runs[i].cost);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSimdDiffTest,
                         testing::Values(1u, 7u, 23u, 61u));

// ---------------------------------------------------------------------------
// Kernel-level boundary checks (no graph, raw lanes).

TEST(SimdKernelDiff, EpsWindowMaskExactBoundaries) {
  // Sorted sentiment window with values exactly eps away from the target:
  // the predicate |s - center| <= eps must include them in both backends,
  // and values one ulp beyond must be excluded identically.
  const double center = 0.25;
  const double eps = 0.25;
  std::vector<double> sentiments;
  for (int i = -16; i <= 16; ++i) {
    sentiments.push_back(static_cast<double>(i) / 16.0);  // exact grid
  }
  sentiments.push_back(std::nextafter(0.5, 1.0));   // just outside
  sentiments.push_back(std::nextafter(0.0, -1.0));  // just outside
  std::sort(sentiments.begin(), sentiments.end());

  const size_t words = (sentiments.size() + 63) / 64;
  std::vector<uint64_t> scalar_mask(words), vec_mask(words);
  size_t scalar_count = 0;
  size_t vec_count = 0;
  {
    ScopedBackend backend(simd::Backend::kScalar);
    scalar_count = simd::EpsWindowMask(sentiments.data(), sentiments.size(),
                                       center, eps, scalar_mask.data());
  }
  {
    ScopedBackend backend(simd::Backend::kAvx2);
    vec_count = simd::EpsWindowMask(sentiments.data(), sentiments.size(),
                                    center, eps, vec_mask.data());
  }
  EXPECT_EQ(scalar_count, vec_count);
  EXPECT_EQ(scalar_mask, vec_mask);
  // And both match the exact predicate, boundary inclusive.
  for (size_t i = 0; i < sentiments.size(); ++i) {
    bool in = std::abs(sentiments[i] - center) <= eps;
    EXPECT_EQ((scalar_mask[i / 64] >> (i % 64)) & 1u, in ? 1u : 0u)
        << "s=" << sentiments[i];
  }
}

TEST(SimdKernelDiff, GainReduceAndApplyPickMinMatchScalar) {
  Rng rng(0xFEED5EEDULL);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t num_targets = 32 + rng.NextUint64(96);
    // Distinct endpoints, as in a real CSR row (a candidate covers each
    // target at most once) — required for the gain == apply-delta identity.
    const size_t num_edges =
        std::min(rng.NextUint64(70), num_targets);  // all tail sizes
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(num_targets, num_edges);
    std::vector<int32_t> endpoints(num_edges);
    std::vector<float> distances(num_edges);
    std::vector<float> best(num_targets);
    std::vector<double> weights(num_targets);
    for (auto& b : best) b = static_cast<float>(rng.NextUint64(12));
    for (auto& w : weights) w = static_cast<double>(1 + rng.NextUint64(3));
    for (size_t i = 0; i < num_edges; ++i) {
      endpoints[i] = static_cast<int32_t>(picks[i]);
      distances[i] = static_cast<float>(rng.NextUint64(12));
    }
    const double* tw = (trial % 2 == 0) ? weights.data() : nullptr;

    double scalar_gain, vec_gain;
    std::vector<float> scalar_best = best, vec_best = best;
    double scalar_delta, vec_delta;
    {
      ScopedBackend backend(simd::Backend::kScalar);
      scalar_gain = simd::GainReduce(endpoints.data(), distances.data(),
                                     num_edges, best.data(), tw);
      scalar_delta = simd::ApplyPickMin(endpoints.data(), distances.data(),
                                        num_edges, scalar_best.data(), tw);
    }
    {
      ScopedBackend backend(simd::Backend::kAvx2);
      vec_gain = simd::GainReduce(endpoints.data(), distances.data(),
                                  num_edges, best.data(), tw);
      vec_delta = simd::ApplyPickMin(endpoints.data(), distances.data(),
                                     num_edges, vec_best.data(), tw);
    }
    EXPECT_EQ(scalar_gain, vec_gain) << "trial " << trial;
    EXPECT_EQ(scalar_delta, vec_delta) << "trial " << trial;
    EXPECT_EQ(0, std::memcmp(scalar_best.data(), vec_best.data(),
                             num_targets * sizeof(float)));
    // The gain a candidate advertises equals the delta applying it yields.
    EXPECT_EQ(scalar_gain, scalar_delta);
  }
}

TEST(SimdKernelDiff, ReportsActiveBackend) {
  // Purely informational: record which backend this host actually diffs
  // against, so a scalar-only log line is visible in CI output.
  RecordProperty("compiled_in", simd::Avx2CompiledIn() ? "avx2" : "scalar");
  RecordProperty("active", simd::BackendName(simd::ActiveBackend()));
  SUCCEED() << "active backend: " << simd::BackendName(simd::ActiveBackend());
}

}  // namespace
}  // namespace osrs

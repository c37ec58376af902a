#ifndef OSRS_COVERAGE_COVERAGE_GRAPH_H_
#define OSRS_COVERAGE_COVERAGE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "core/distance.h"
#include "core/model.h"

namespace osrs {

/// Options shared by the TryBuild* graph constructors. The defaults build
/// serially with no memory limit.
struct CoverageBuildOptions {
  /// Shard count for the two construction passes: 1 = serial (default),
  /// 0 = hardware concurrency. Bit-identical output at every value.
  int num_threads = 1;
  /// When non-zero, an upper bound on the bytes the finished graph may
  /// occupy (CSR lanes, offsets, root distances). The counting pass
  /// already knows the exact edge total before anything is allocated, so
  /// an over-budget build returns kResourceExhausted *without* attempting
  /// the allocation — no bad_alloc, no partially built graph. 0 = no limit.
  size_t max_memory_bytes = 0;
};

/// The edge-weighted bipartite graph G = (U, W, E) of §4.1.
///
/// W is always the item's concept-sentiment pair multiset P (the coverage
/// targets). U is the candidate set: the pairs themselves for k-Pairs
/// Coverage, or sentences/reviews — groups of pair indices — for the §4.5
/// variants. An edge (u, w) with weight d(u, w) exists iff candidate u
/// covers target w at finite Definition 1 distance; for a group candidate
/// the weight is the minimum over its member pairs.
///
/// Storage is a forward CSR only (candidate → targets, targets ascending
/// within a row): the production greedy (the lazy heap) and every other
/// serving-path reader walk nothing else. The consumers that need the
/// backward direction (target → coverers) — the eager heap and the
/// k-median LP — derive it on demand with Transpose().
///
/// The CSR is structure-of-arrays: a 64-byte-aligned endpoint lane (int32)
/// and a distance lane of one byte per edge rather than an array of
/// {endpoint, distance} structs, so an edge costs 5 bytes. Coverage
/// distances are integral hop counts; every build first checks that the
/// ontology's largest ancestor-closure distance fits in a byte
/// (kMaxEdgeDistance). The SIMD kernels (common/simd.h) stream one lane per
/// register and widen the bytes to float exactly; scalar consumers keep the
/// struct view through EdgesOf, whose iterator zips the lanes back into
/// Edge values.
class CoverageGraph {
 public:
  /// Largest edge distance the byte lane holds.
  static constexpr int kMaxEdgeDistance = 255;

  /// A half-edge view: the opposite endpoint and the coverage distance.
  /// The weight is float — coverage distances are small integer hop counts
  /// (min over hops for group candidates), which float represents exactly.
  /// Edges are materialized from the lanes on access; nothing stores them.
  struct Edge {
    int32_t endpoint;
    float weight;
  };

  /// One CSR row as raw lane pointers — the view the SIMD kernels consume.
  /// `endpoint[i]` pairs with `distance[i]`; both lanes are slices of
  /// 64-byte-aligned arrays (the slice itself starts at an arbitrary
  /// offset; the kernels use unaligned loads).
  struct EdgeLanes {
    const int32_t* endpoint = nullptr;
    const uint8_t* distance = nullptr;
    size_t size = 0;
  };

  /// Random-access range zipping the two lanes of a CSR row back into Edge
  /// values for scalar consumers (tests, LP assembly, local search). The
  /// iterator yields Edge by value; binding `const Edge&` in a range-for
  /// works as usual (lifetime extension).
  class EdgeRange {
   public:
    class Iterator {
     public:
      using iterator_category = std::random_access_iterator_tag;
      using value_type = Edge;
      using difference_type = std::ptrdiff_t;
      using reference = Edge;
      using pointer = const Edge*;

      Iterator() = default;
      Iterator(const int32_t* endpoint, const uint8_t* distance)
          : endpoint_(endpoint), distance_(distance) {}

      Edge operator*() const {
        return Edge{*endpoint_, static_cast<float>(*distance_)};
      }
      Edge operator[](difference_type i) const {
        return Edge{endpoint_[i], static_cast<float>(distance_[i])};
      }
      Iterator& operator++() {
        ++endpoint_;
        ++distance_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator copy = *this;
        ++*this;
        return copy;
      }
      Iterator& operator+=(difference_type n) {
        endpoint_ += n;
        distance_ += n;
        return *this;
      }
      friend Iterator operator+(Iterator it, difference_type n) {
        return it += n;
      }
      friend difference_type operator-(const Iterator& a, const Iterator& b) {
        return a.endpoint_ - b.endpoint_;
      }
      friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.endpoint_ == b.endpoint_;
      }
      friend bool operator!=(const Iterator& a, const Iterator& b) {
        return a.endpoint_ != b.endpoint_;
      }

     private:
      const int32_t* endpoint_ = nullptr;
      const uint8_t* distance_ = nullptr;
    };

    EdgeRange() = default;
    EdgeRange(EdgeLanes lanes) : lanes_(lanes) {}  // NOLINT

    Iterator begin() const { return {lanes_.endpoint, lanes_.distance}; }
    Iterator end() const {
      return {lanes_.endpoint + lanes_.size, lanes_.distance + lanes_.size};
    }
    size_t size() const { return lanes_.size; }
    bool empty() const { return lanes_.size == 0; }
    Edge operator[](size_t i) const {
      return Edge{lanes_.endpoint[i],
                  static_cast<float>(lanes_.distance[i])};
    }
    EdgeLanes lanes() const { return lanes_; }

   private:
    EdgeLanes lanes_;
  };

  /// Builds the k-Pairs graph: U = W = `pairs`. Mirrors the paper's two-pass
  /// construction — bucket pairs by concept (each bucket sorted by
  /// sentiment), then for each target walk its concept's precomputed
  /// ancestor closure and binary-search the `[s - eps, s + eps]` sentiment
  /// window of every ancestor bucket, so inner-loop work is proportional to
  /// the edges emitted rather than the bucket sizes.
  ///
  /// Construction is two passes over the same enumeration: a counting pass
  /// (degrees only, nothing materialized) and a scatter pass writing every
  /// edge directly into its final CSR slot — no intermediate edge buffers
  /// and no per-candidate sort. `options.num_threads` shards the targets
  /// across workers; the resulting graph is bit-identical at every thread
  /// count.
  ///
  /// Resource failures surface as Status: a build whose counting pass
  /// predicts more than `options.max_memory_bytes` of graph storage returns
  /// kResourceExhausted before allocating, and the "osrs.coverage.alloc"
  /// failpoint (src/fault/failpoint.h) is evaluated on entry. An ontology
  /// whose max_ancestor_distance() exceeds kMaxEdgeDistance fails with
  /// kInvalidArgument, also before anything is allocated. The default
  /// options (serial, no limit) fail only through an armed failpoint or
  /// such an ontology.
  static Result<CoverageGraph> TryBuildForPairs(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const CoverageBuildOptions& options = {});

  /// Builds the §4.5 graph: U = `groups` (each a list of indices into
  /// `pairs`, e.g. the pairs of one sentence), W = `pairs`. Same options
  /// and failure contract as TryBuildForPairs; each target is processed
  /// wholly by one shard, which keeps the per-group minimum-weight dedupe
  /// exact.
  static Result<CoverageGraph> TryBuildForGroups(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const std::vector<std::vector<int>>& groups,
      const CoverageBuildOptions& options = {});

  /// Like TryBuildForPairs but with a multiplicity per target: target w
  /// contributes weight[w] · d(F, w) to the cost. Together with DedupePairs
  /// this collapses the many duplicate pairs of real review sets (the same
  /// popular aspect mentioned with near-identical sentiment) into one
  /// weighted target, shrinking the graph without changing any cost.
  /// `target_weights` must hold one entry per pair (kInvalidArgument
  /// otherwise).
  static Result<CoverageGraph> TryBuildForPairsWeighted(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const std::vector<double>& target_weights,
      const CoverageBuildOptions& options = {});

  /// Bytes of heap storage this graph's vectors occupy (capacity-exact for
  /// a freshly built graph: equal to MemoryBytes()). The same formula the
  /// TryBuild* memory gate evaluates pre-allocation.
  static size_t EstimateBytes(size_t num_edges, size_t num_candidates,
                              size_t num_targets, bool weighted);

  /// Bytes the graph's vectors hold, by capacity.
  size_t MemoryBytes() const;

  int num_candidates() const { return static_cast<int>(forward_offsets_.size()) - 1; }
  int num_targets() const { return static_cast<int>(root_distance_.size()); }
  size_t num_edges() const { return forward_endpoint_.size(); }

  /// Targets covered by candidate `u` with their distances.
  EdgeRange EdgesOf(int u) const { return EdgeRange(ForwardLanesOf(u)); }

  /// Raw SoA lanes of candidate u's forward row (targets + distances) —
  /// what the SIMD gain/update kernels stream.
  EdgeLanes ForwardLanesOf(int u) const;

  /// The backward direction (target → coverers), derived from the forward
  /// CSR by one counting-sort pass. Target w's row lists its coverers in
  /// ascending candidate id. Same 5 bytes per edge as the forward lanes,
  /// plus one offset per target; the caller owns it.
  class Transposed {
   public:
    /// Raw SoA lanes of target w's row (coverers + distances).
    EdgeLanes LanesOf(int w) const;
    /// Candidates covering target `w` with their distances.
    EdgeRange CoveringOf(int w) const { return EdgeRange(LanesOf(w)); }

   private:
    friend class CoverageGraph;
    std::vector<size_t> offsets_;
    AlignedVector<int32_t> endpoint_;
    AlignedVector<uint8_t> distance_;
  };
  Transposed Transpose() const;

  /// d(r, pair_w): the always-available root coverage distance of target w.
  double root_distance(int w) const { return root_distance_[w]; }

  /// The root distances as a 64-byte-aligned float lane (exact: hop
  /// counts), indexed by target — the solvers' initial best[] image.
  const float* root_distances_f32() const { return root_distance_f32_.data(); }

  /// Multiplicity of target w (1.0 unless built weighted).
  double target_weight(int w) const {
    return target_weights_.empty()
               ? 1.0
               : target_weights_[static_cast<size_t>(w)];
  }

  /// The multiplicity lane for the SIMD kernels: null when the graph is
  /// unweighted (all ones), else `num_targets()` doubles.
  const double* target_weights_or_null() const {
    return target_weights_.empty() ? nullptr : target_weights_.data();
  }

  /// Σ_w root_distance(w) — the cost of the empty summary.
  double EmptySummaryCost() const;

  /// Definition 2 cost of selecting candidate set `selected` (indices into
  /// U), computed from the graph: Σ_w min(root, min over selected coverers).
  double CostOfSelection(const std::vector<int>& selected) const;

  /// Allocation-free form for hot callers (rounding trials, local-search
  /// passes): `best_scratch` must hold num_targets() floats and is fully
  /// overwritten. Distances are integral hop counts — exact in float — so
  /// the result is identical to the owning overload.
  double CostOfSelection(std::span<const int> selected,
                         std::span<float> best_scratch) const;

  /// Mean forward degree of candidates (graph sparsity diagnostic; §4.4's
  /// running-time discussion depends on it).
  double AverageCandidateDegree() const;

  /// An empty graph (no candidates, no targets). Mostly useful as a
  /// placeholder before assignment from one of the builders.
  CoverageGraph() = default;

 private:
  /// Shared implementations behind the TryBuild* entry points. The memory
  /// gate runs between the counting and scatter passes, where the exact
  /// edge total is known but nothing has been allocated yet.
  static Result<CoverageGraph> BuildForPairsImpl(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const CoverageBuildOptions& options, bool weighted);
  static Result<CoverageGraph> BuildForGroupsImpl(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const std::vector<std::vector<int>>& groups,
      const CoverageBuildOptions& options);

  /// Turns the per-(shard, candidate) forward degree counts of the builders'
  /// counting pass into forward_offsets_ plus disjoint scatter cursors (one
  /// serial prefix sum), and sizes the forward lanes. On return,
  /// `shard_degree[s][u]` is the first lane slot of shard s's slice of
  /// candidate u's row; slices are consecutive in shard order, so after the
  /// builders' scatter pass it holds the slice end.
  void PrepareForwardScatter(int num_candidates,
                             std::vector<std::vector<size_t>>& shard_degree);

  // Forward CSR, structure-of-arrays: candidate u's row is
  // forward_endpoint_/forward_distance_[forward_offsets_[u] ..
  // forward_offsets_[u + 1]). Lanes are 64-byte aligned for the SIMD
  // kernels' streaming loads.
  std::vector<size_t> forward_offsets_;
  AlignedVector<int32_t> forward_endpoint_;
  AlignedVector<uint8_t> forward_distance_;
  std::vector<double> root_distance_;
  AlignedVector<float> root_distance_f32_;  // same values, kernel lane
  std::vector<double> target_weights_;      // empty = all ones
};

/// Collapses duplicate pairs: pairs with the same concept whose sentiments
/// fall in the same quantization bucket of width `sentiment_quantum` merge
/// into one representative (the bucket's weighted mean sentiment) with a
/// multiplicity. Returns the unique pairs, their weights, and for each
/// input pair the index of its representative.
struct DedupedPairs {
  std::vector<ConceptSentimentPair> pairs;
  std::vector<double> weights;
  std::vector<int> representative_of;  // per input pair
};
DedupedPairs DedupePairs(const std::vector<ConceptSentimentPair>& pairs,
                         double sentiment_quantum);

}  // namespace osrs

#endif  // OSRS_COVERAGE_COVERAGE_GRAPH_H_

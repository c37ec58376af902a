#include "coverage/coverage_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_count.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace osrs {
namespace {

obs::Counter* WindowHitsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.coverage.window_hits");
  return counter;
}

obs::Counter* BuildsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.coverage.builds");
  return counter;
}

obs::Gauge* ShardImbalanceGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "osrs.coverage.shard_imbalance_pct");
  return gauge;
}

/// First pass of §4.1: bucket pair indices by concept, each bucket sorted
/// by sentiment so the Definition 1 eps test becomes a binary-searched
/// window instead of a full scan. Flattened into three parallel arrays to
/// keep the per-(target, ancestor) lookup allocation- and hash-free.
struct ConceptBuckets {
  /// Bucket index per concept id; -1 when no pair carries that concept.
  std::vector<int32_t> bucket_of_concept;
  /// Bucket b spans [offsets[b], offsets[b + 1]) of the two arrays below.
  std::vector<size_t> offsets;
  /// Sentiments ascending within each bucket (ties broken by pair index).
  std::vector<double> sentiments;
  /// Pair indices parallel to `sentiments`.
  std::vector<int> pair_indices;
};

ConceptBuckets BucketByConcept(const Ontology& onto,
                               const std::vector<ConceptSentimentPair>& pairs) {
  ConceptBuckets buckets;
  buckets.bucket_of_concept.assign(onto.num_concepts(), -1);
  int32_t num_buckets = 0;
  std::vector<size_t> bucket_sizes;
  for (const ConceptSentimentPair& pair : pairs) {
    int32_t& slot = buckets.bucket_of_concept[static_cast<size_t>(pair.concept_id)];
    if (slot < 0) {
      slot = num_buckets++;
      bucket_sizes.push_back(0);
    }
    ++bucket_sizes[static_cast<size_t>(slot)];
  }
  buckets.offsets.assign(static_cast<size_t>(num_buckets) + 1, 0);
  for (int32_t b = 0; b < num_buckets; ++b) {
    buckets.offsets[static_cast<size_t>(b) + 1] =
        buckets.offsets[static_cast<size_t>(b)] +
        bucket_sizes[static_cast<size_t>(b)];
  }
  buckets.sentiments.resize(pairs.size());
  buckets.pair_indices.resize(pairs.size());
  std::vector<size_t> cursor(buckets.offsets.begin(),
                             buckets.offsets.end() - 1);
  for (size_t i = 0; i < pairs.size(); ++i) {
    int32_t b = buckets.bucket_of_concept[static_cast<size_t>(pairs[i].concept_id)];
    size_t slot = cursor[static_cast<size_t>(b)]++;
    buckets.sentiments[slot] = pairs[i].sentiment;
    buckets.pair_indices[slot] = static_cast<int>(i);
  }
  // Sort each bucket by (sentiment, pair index); the pair-index tiebreak
  // keeps construction deterministic under duplicate sentiments.
  std::vector<std::pair<double, int>> scratch;
  for (int32_t b = 0; b < num_buckets; ++b) {
    size_t begin = buckets.offsets[static_cast<size_t>(b)];
    size_t end = buckets.offsets[static_cast<size_t>(b) + 1];
    scratch.clear();
    for (size_t i = begin; i < end; ++i) {
      scratch.emplace_back(buckets.sentiments[i], buckets.pair_indices[i]);
    }
    std::sort(scratch.begin(), scratch.end());
    for (size_t i = 0; i < scratch.size(); ++i) {
      buckets.sentiments[begin + i] = scratch[i].first;
      buckets.pair_indices[begin + i] = scratch[i].second;
    }
  }
  return buckets;
}

/// Second pass of §4.1 over targets [w_begin, w_end): for each target pair
/// w, walk the precomputed ancestor closure of its concept and
/// binary-search each ancestor bucket's `[s - eps, s + eps]` sentiment
/// window. The window bounds carry a small absolute slack so rounding in
/// `s ± eps` can never exclude a candidate; the exact Definition 1
/// predicate `|s1 - s2| <= eps` then decides inside the window, keeping
/// the emitted edge set bit-identical to a full-scan builder. Calls
/// `emit(u_pair_index, w, distance)` once per covering (pair, target)
/// combination, with w ascending; the distance is the ancestor's hop count
/// as a byte (CheckDistanceBound has run). Returns the number of edges
/// emitted.
template <typename EmitFn>
size_t ForEachCoveringPairInRange(const PairDistance& distance,
                                  const std::vector<ConceptSentimentPair>& pairs,
                                  const ConceptBuckets& buckets, int w_begin,
                                  int w_end, const EmitFn& emit) {
  const Ontology& onto = distance.ontology();
  const ConceptId root = onto.root();
  const double eps = distance.epsilon();
  // Sentiments live in [-1, 1]; 1e-9 dwarfs the worst-case rounding of
  // `s ± eps` (a few ulps) while admitting essentially no extra window
  // candidates for the exact predicate to reject.
  const double kWindowSlack = 1e-9;
  size_t emitted = 0;
  for (int w = w_begin; w < w_end; ++w) {
    const ConceptSentimentPair& target = pairs[static_cast<size_t>(w)];
    for (const AncestorEntry& ancestor : onto.AncestorsOf(target.concept_id)) {
      int32_t b =
          buckets.bucket_of_concept[static_cast<size_t>(ancestor.concept_id)];
      if (b < 0) continue;
      const uint8_t hops = static_cast<uint8_t>(ancestor.distance);
      size_t begin = buckets.offsets[static_cast<size_t>(b)];
      size_t end = buckets.offsets[static_cast<size_t>(b) + 1];
      if (ancestor.concept_id != root) {
        const double* first = buckets.sentiments.data() + begin;
        const double* last = buckets.sentiments.data() + end;
        begin += static_cast<size_t>(
            std::lower_bound(first, last, target.sentiment - eps - kWindowSlack) -
            first);
        end -= static_cast<size_t>(
            last - std::upper_bound(first, last,
                                    target.sentiment + eps + kWindowSlack));
        for (size_t i = begin; i < end; ++i) {
          if (std::abs(buckets.sentiments[i] - target.sentiment) > eps) {
            continue;
          }
          emit(buckets.pair_indices[i], w, hops);
          ++emitted;
        }
      } else {
        // The root covers every pair regardless of sentiment.
        for (size_t i = begin; i < end; ++i) {
          emit(buckets.pair_indices[i], w, hops);
          ++emitted;
        }
      }
    }
  }
  return emitted;
}

/// Resolves the builder thread count: <= 0 means hardware concurrency,
/// and shards never outnumber targets (an empty shard is pure overhead).
int ResolveNumThreads(int num_threads, size_t num_targets) {
  if (num_targets == 0) return 1;
  return std::min<int>(ResolveThreadCount(num_threads),
                       static_cast<int>(num_targets));
}

/// Runs `shard_fn(shard, w_begin, w_end)` over `num_shards` contiguous,
/// ascending, near-equal target ranges — shard 0 on the calling thread.
/// Each shard must record only into shard-local state; `shard_fn` returns
/// its emitted edge count, collected into the result for the imbalance
/// telemetry.
template <typename ShardFn>
std::vector<size_t> RunSharded(int num_targets, int num_shards,
                               const ShardFn& shard_fn) {
  std::vector<size_t> emitted(static_cast<size_t>(num_shards), 0);
  auto bounds = [&](int shard) {
    int64_t lo = static_cast<int64_t>(num_targets) * shard / num_shards;
    int64_t hi = static_cast<int64_t>(num_targets) * (shard + 1) / num_shards;
    return std::pair<int, int>(static_cast<int>(lo), static_cast<int>(hi));
  };
  if (num_shards == 1) {
    emitted[0] = shard_fn(0, 0, num_targets);
    return emitted;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_shards) - 1);
  for (int shard = 1; shard < num_shards; ++shard) {
    auto [lo, hi] = bounds(shard);
    workers.emplace_back([&emitted, &shard_fn, shard, lo, hi]() {
      emitted[static_cast<size_t>(shard)] = shard_fn(shard, lo, hi);
    });
  }
  auto [lo0, hi0] = bounds(0);
  emitted[0] = shard_fn(0, lo0, hi0);
  for (std::thread& worker : workers) worker.join();
  return emitted;
}

/// Records the build telemetry: total eps-window hits (== edges emitted)
/// and the shard imbalance in percent — (max - min) emitted per shard,
/// relative to the max; 0 for a serial build or perfectly even shards.
void RecordBuildTelemetry(const std::vector<size_t>& emitted_per_shard) {
  size_t total = 0, max_emitted = 0, min_emitted = SIZE_MAX;
  for (size_t emitted : emitted_per_shard) {
    total += emitted;
    max_emitted = std::max(max_emitted, emitted);
    min_emitted = std::min(min_emitted, emitted);
  }
  BuildsCounter()->Increment();
  WindowHitsCounter()->Add(static_cast<int64_t>(total));
  int64_t imbalance_pct = 0;
  if (emitted_per_shard.size() > 1 && max_emitted > 0) {
    imbalance_pct = static_cast<int64_t>(
        (max_emitted - min_emitted) * 100 / max_emitted);
  }
  ShardImbalanceGauge()->Set(imbalance_pct);
}

std::vector<double> RootDistances(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs) {
  std::vector<double> root_distance(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    root_distance[i] = distance.FromRoot(pairs[i]);
  }
  return root_distance;
}

/// Exact forward-edge total after a counting pass: the sum of every
/// (shard, candidate) degree.
size_t TotalCountedEdges(const std::vector<std::vector<size_t>>& shard_degree) {
  size_t total = 0;
  for (const std::vector<size_t>& degree : shard_degree) {
    for (size_t d : degree) total += d;
  }
  return total;
}

/// The TryBuild* memory gate, evaluated between the counting and scatter
/// passes: the edge total is exact, nothing is allocated yet, so an
/// over-budget build degrades to a clean kResourceExhausted instead of an
/// allocation failure mid-construction.
Status CheckMemoryBudget(const CoverageBuildOptions& options, size_t num_edges,
                         size_t num_candidates, size_t num_targets,
                         bool weighted) {
  if (options.max_memory_bytes == 0) return Status::OK();
  size_t needed = CoverageGraph::EstimateBytes(num_edges, num_candidates,
                                               num_targets, weighted);
  if (needed <= options.max_memory_bytes) return Status::OK();
  return Status::ResourceExhausted(StrFormat(
      "coverage graph needs %zu bytes (%zu edges, %zu candidates, "
      "%zu targets) but max_memory_bytes is %zu",
      needed, num_edges, num_candidates, num_targets,
      options.max_memory_bytes));
}

/// The byte distance lane holds every edge distance only when no
/// ancestor-closure distance exceeds kMaxEdgeDistance. Checked once per
/// build against the ontology's precomputed maximum, before any
/// allocation, rather than per emitted edge.
Status CheckDistanceBound(const PairDistance& distance) {
  const int max_distance = distance.ontology().max_ancestor_distance();
  if (max_distance <= CoverageGraph::kMaxEdgeDistance) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "ontology has an ancestor %d hops above a concept; coverage graph "
      "distances are stored in one byte (at most %d)",
      max_distance, CoverageGraph::kMaxEdgeDistance));
}

}  // namespace

size_t CoverageGraph::EstimateBytes(size_t num_edges, size_t num_candidates,
                                    size_t num_targets, bool weighted) {
  // The forward CSR's SoA lanes (int32 endpoint + one-byte distance per
  // edge) and offsets, root distances in double and in the float kernel
  // lane, and (when built weighted) the multiplicity array.
  size_t bytes = num_edges * (sizeof(int32_t) + sizeof(uint8_t));
  bytes += (num_candidates + 1) * sizeof(size_t);
  bytes += num_targets * (sizeof(double) + sizeof(float));
  if (weighted) bytes += num_targets * sizeof(double);
  return bytes;
}

size_t CoverageGraph::MemoryBytes() const {
  return forward_offsets_.capacity() * sizeof(size_t) +
         forward_endpoint_.capacity() * sizeof(int32_t) +
         forward_distance_.capacity() * sizeof(uint8_t) +
         root_distance_.capacity() * sizeof(double) +
         root_distance_f32_.capacity() * sizeof(float) +
         target_weights_.capacity() * sizeof(double);
}

Result<CoverageGraph> CoverageGraph::BuildForPairsImpl(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const CoverageBuildOptions& options, bool weighted) {
  obs::TraceSpan build_span(obs::SpanKind::kBuildCoverageGraph);
  OSRS_RETURN_IF_ERROR(CheckDistanceBound(distance));
  const ConceptBuckets buckets = BucketByConcept(distance.ontology(), pairs);
  const int num_targets = static_cast<int>(pairs.size());
  const int num_candidates = num_targets;
  const int num_shards = ResolveNumThreads(options.num_threads, pairs.size());

  // Counting pass: the full closure/window enumeration with degrees as the
  // only output. Nothing is materialized, so the pass reads only the hot
  // bucket arrays.
  std::vector<std::vector<size_t>> shard_degree(
      static_cast<size_t>(num_shards));
  std::vector<size_t> emitted = RunSharded(
      num_targets, num_shards, [&](int shard, int w_begin, int w_end) {
        std::vector<size_t>& degree = shard_degree[static_cast<size_t>(shard)];
        degree.assign(static_cast<size_t>(num_candidates), 0);
        return ForEachCoveringPairInRange(
            distance, pairs, buckets, w_begin, w_end,
            [&](int u, int /*w*/, uint8_t /*hops*/) {
              ++degree[static_cast<size_t>(u)];
            });
      });
  RecordBuildTelemetry(emitted);
  OSRS_RETURN_IF_ERROR(CheckMemoryBudget(
      options, TotalCountedEdges(shard_degree),
      static_cast<size_t>(num_candidates), static_cast<size_t>(num_targets),
      weighted));

  // Scatter pass: re-run the same enumeration, writing every edge straight
  // into its final CSR slot through per-(shard, candidate) cursors over
  // disjoint slices — each shard emits ascending targets, so rows come out
  // sorted with no intermediate buffers and no sort.
  CoverageGraph graph;
  graph.root_distance_ = RootDistances(distance, pairs);
  graph.root_distance_f32_.assign(graph.root_distance_.begin(),
                                  graph.root_distance_.end());
  graph.PrepareForwardScatter(num_candidates, shard_degree);
  RunSharded(num_targets, num_shards,
             [&](int shard, int w_begin, int w_end) {
               std::vector<size_t>& cursor =
                   shard_degree[static_cast<size_t>(shard)];
               return ForEachCoveringPairInRange(
                   distance, pairs, buckets, w_begin, w_end,
                   [&](int u, int w, uint8_t hops) {
                     const size_t slot = cursor[static_cast<size_t>(u)]++;
                     graph.forward_endpoint_[slot] = w;
                     graph.forward_distance_[slot] = hops;
                   });
             });
  obs::TraceStat(obs::Stat::kGraphEdgesBuilt,
                 static_cast<int64_t>(graph.num_edges()));
  return graph;
}

Result<CoverageGraph> CoverageGraph::TryBuildForPairs(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const CoverageBuildOptions& options) {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.coverage.alloc"));
  return BuildForPairsImpl(distance, pairs, options, /*weighted=*/false);
}

Result<CoverageGraph> CoverageGraph::TryBuildForPairsWeighted(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const std::vector<double>& target_weights,
    const CoverageBuildOptions& options) {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.coverage.alloc"));
  if (target_weights.size() != pairs.size()) {
    return Status::InvalidArgument(
        StrFormat("target_weights has %zu entries for %zu pairs",
                  target_weights.size(), pairs.size()));
  }
  auto graph = BuildForPairsImpl(distance, pairs, options, /*weighted=*/true);
  OSRS_RETURN_IF_ERROR(graph.status());
  graph->target_weights_ = target_weights;
  return graph;
}

namespace {

/// Key of a DedupePairs bucket: a concept plus a quantized sentiment.
struct DedupeKey {
  ConceptId concept_id;
  int64_t sentiment_bucket;

  bool operator==(const DedupeKey& other) const {
    return concept_id == other.concept_id &&
           sentiment_bucket == other.sentiment_bucket;
  }
};

/// Mixes the concept and bucket words with the splitmix64 finalizer;
/// either field alone is low-entropy (small ids, clustered buckets).
struct DedupeKeyHash {
  size_t operator()(const DedupeKey& key) const {
    uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(key.concept_id));
    h = (h << 32) ^ static_cast<uint64_t>(key.sentiment_bucket);
    return static_cast<size_t>(Mix64(h));
  }
};

}  // namespace

DedupedPairs DedupePairs(const std::vector<ConceptSentimentPair>& pairs,
                         double sentiment_quantum) {
  OSRS_CHECK_GT(sentiment_quantum, 0.0);
  DedupedPairs out;
  out.representative_of.resize(pairs.size());
  // Bucket key: (concept, quantized sentiment). Representatives are
  // assigned in first-occurrence order, so the output is independent of
  // the map's iteration order.
  std::unordered_map<DedupeKey, int, DedupeKeyHash> bucket_to_representative;
  bucket_to_representative.reserve(pairs.size());
  std::vector<double> sentiment_sums;
  for (size_t i = 0; i < pairs.size(); ++i) {
    int64_t bucket = static_cast<int64_t>(
        std::floor(pairs[i].sentiment / sentiment_quantum));
    auto [it, inserted] = bucket_to_representative.emplace(
        DedupeKey{pairs[i].concept_id, bucket},
        static_cast<int>(out.pairs.size()));
    if (inserted) {
      out.pairs.push_back(pairs[i]);
      out.weights.push_back(0.0);
      sentiment_sums.push_back(0.0);
    }
    int rep = it->second;
    out.representative_of[i] = rep;
    out.weights[static_cast<size_t>(rep)] += 1.0;
    sentiment_sums[static_cast<size_t>(rep)] += pairs[i].sentiment;
  }
  // Representative sentiment = bucket mean (stays within the bucket).
  for (size_t r = 0; r < out.pairs.size(); ++r) {
    out.pairs[r].sentiment = sentiment_sums[r] / out.weights[r];
  }
  return out;
}

Result<CoverageGraph> CoverageGraph::BuildForGroupsImpl(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const std::vector<std::vector<int>>& groups,
    const CoverageBuildOptions& options) {
  obs::TraceSpan build_span(obs::SpanKind::kBuildCoverageGraph);
  OSRS_RETURN_IF_ERROR(CheckDistanceBound(distance));
  // Map each pair index to its owning group (a pair belongs to exactly one
  // sentence / review).
  std::vector<int> group_of(pairs.size(), -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int pair_index : groups[g]) {
      OSRS_DCHECK_GE(pair_index, 0);
      OSRS_DCHECK_LT(static_cast<size_t>(pair_index), pairs.size());
      OSRS_DCHECK_MSG(group_of[static_cast<size_t>(pair_index)] == -1,
                      "pair " << pair_index << " assigned to two groups");
      group_of[static_cast<size_t>(pair_index)] = static_cast<int>(g);
    }
  }

  const ConceptBuckets buckets = BucketByConcept(distance.ontology(), pairs);
  const int num_targets = static_cast<int>(pairs.size());
  const int num_candidates = static_cast<int>(groups.size());
  const int num_shards = ResolveNumThreads(options.num_threads, pairs.size());

  // Counting pass. Pair-level emits aggregate to group level: one group
  // may reach the same target through several member pairs, and
  // last_target dedupes those without a hash map — every emit for target w
  // happens before any emit for w + 1 within a shard, and each target is
  // wholly owned by one shard, so the group's previous target is all the
  // state dedupe needs.
  std::vector<std::vector<size_t>> shard_degree(
      static_cast<size_t>(num_shards));
  std::vector<size_t> emitted = RunSharded(
      num_targets, num_shards, [&](int shard, int w_begin, int w_end) {
        std::vector<size_t>& degree = shard_degree[static_cast<size_t>(shard)];
        degree.assign(static_cast<size_t>(num_candidates), 0);
        std::vector<int> last_target(groups.size(), -1);
        return ForEachCoveringPairInRange(
            distance, pairs, buckets, w_begin, w_end,
            [&](int u, int w, uint8_t /*hops*/) {
              int g = group_of[static_cast<size_t>(u)];
              if (g < 0) return;  // pair not part of any candidate group
              if (last_target[static_cast<size_t>(g)] == w) return;
              last_target[static_cast<size_t>(g)] = w;
              ++degree[static_cast<size_t>(g)];
            });
      });
  RecordBuildTelemetry(emitted);
  OSRS_RETURN_IF_ERROR(CheckMemoryBudget(
      options, TotalCountedEdges(shard_degree),
      static_cast<size_t>(num_candidates), static_cast<size_t>(num_targets),
      /*weighted=*/false));

  // Scatter pass: identical enumeration; a repeat (group, target) emit
  // min-merges its distance into the slot recorded by last_slot instead of
  // consuming a new one, keeping Definition 2's minimum over member pairs.
  CoverageGraph graph;
  graph.root_distance_ = RootDistances(distance, pairs);
  graph.root_distance_f32_.assign(graph.root_distance_.begin(),
                                  graph.root_distance_.end());
  graph.PrepareForwardScatter(num_candidates, shard_degree);
  RunSharded(
      num_targets, num_shards, [&](int shard, int w_begin, int w_end) {
        std::vector<size_t>& cursor =
            shard_degree[static_cast<size_t>(shard)];
        std::vector<int> last_target(groups.size(), -1);
        std::vector<size_t> last_slot(groups.size(), 0);
        return ForEachCoveringPairInRange(
            distance, pairs, buckets, w_begin, w_end,
            [&](int u, int w, uint8_t hops) {
              int g = group_of[static_cast<size_t>(u)];
              if (g < 0) return;
              if (last_target[static_cast<size_t>(g)] == w) {
                uint8_t& slot_distance =
                    graph.forward_distance_[last_slot[static_cast<size_t>(g)]];
                slot_distance = std::min(slot_distance, hops);
              } else {
                last_target[static_cast<size_t>(g)] = w;
                const size_t slot = cursor[static_cast<size_t>(g)]++;
                last_slot[static_cast<size_t>(g)] = slot;
                graph.forward_endpoint_[slot] = w;
                graph.forward_distance_[slot] = hops;
              }
            });
      });
  obs::TraceStat(obs::Stat::kGraphEdgesBuilt,
                 static_cast<int64_t>(graph.num_edges()));
  return graph;
}

Result<CoverageGraph> CoverageGraph::TryBuildForGroups(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const std::vector<std::vector<int>>& groups,
    const CoverageBuildOptions& options) {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.coverage.alloc"));
  return BuildForGroupsImpl(distance, pairs, groups, options);
}

void CoverageGraph::PrepareForwardScatter(
    int num_candidates, std::vector<std::vector<size_t>>& shard_degree) {
  OSRS_CHECK(!shard_degree.empty());
  // Serial prefix sum (O(candidates × shards), cheap). shard_degree[s][u]
  // becomes the scatter cursor for shard s's slice of candidate u's
  // forward row; slices are consecutive in shard order, so after the
  // scatter pass it holds the slice end == the start of shard s + 1's
  // slice.
  forward_offsets_.assign(static_cast<size_t>(num_candidates) + 1, 0);
  size_t running = 0;
  for (int u = 0; u < num_candidates; ++u) {
    forward_offsets_[static_cast<size_t>(u)] = running;
    for (std::vector<size_t>& degree : shard_degree) {
      size_t d = degree[static_cast<size_t>(u)];
      degree[static_cast<size_t>(u)] = running;
      running += d;
    }
  }
  forward_offsets_[static_cast<size_t>(num_candidates)] = running;
  forward_endpoint_.resize(running);
  forward_distance_.resize(running);
}

CoverageGraph::EdgeLanes CoverageGraph::ForwardLanesOf(int u) const {
  OSRS_DCHECK_GE(u, 0);
  OSRS_DCHECK_LT(u, num_candidates());
  const size_t begin = forward_offsets_[static_cast<size_t>(u)];
  return {forward_endpoint_.data() + begin, forward_distance_.data() + begin,
          forward_offsets_[static_cast<size_t>(u) + 1] - begin};
}

CoverageGraph::Transposed CoverageGraph::Transpose() const {
  // Counting sort by target: degrees, a prefix sum into the offsets, then
  // one pass over the forward rows in candidate order. Each target's row
  // therefore lists its coverers in ascending candidate id.
  Transposed out;
  const size_t num_w = static_cast<size_t>(num_targets());
  out.offsets_.assign(num_w + 1, 0);
  for (int32_t w : forward_endpoint_) {
    ++out.offsets_[static_cast<size_t>(w) + 1];
  }
  for (size_t w = 0; w < num_w; ++w) out.offsets_[w + 1] += out.offsets_[w];
  out.endpoint_.resize(num_edges());
  out.distance_.resize(num_edges());
  std::vector<size_t> cursor(out.offsets_.begin(), out.offsets_.end() - 1);
  for (int u = 0; u < num_candidates(); ++u) {
    const EdgeLanes lanes = ForwardLanesOf(u);
    for (size_t i = 0; i < lanes.size; ++i) {
      const size_t slot = cursor[static_cast<size_t>(lanes.endpoint[i])]++;
      out.endpoint_[slot] = u;
      out.distance_[slot] = lanes.distance[i];
    }
  }
  return out;
}

CoverageGraph::EdgeLanes CoverageGraph::Transposed::LanesOf(int w) const {
  OSRS_DCHECK_GE(w, 0);
  OSRS_DCHECK_LT(static_cast<size_t>(w) + 1, offsets_.size());
  const size_t begin = offsets_[static_cast<size_t>(w)];
  return {endpoint_.data() + begin, distance_.data() + begin,
          offsets_[static_cast<size_t>(w) + 1] - begin};
}

double CoverageGraph::EmptySummaryCost() const {
  double total = 0.0;
  for (size_t w = 0; w < root_distance_.size(); ++w) {
    total += root_distance_[w] * target_weight(static_cast<int>(w));
  }
  return total;
}

double CoverageGraph::CostOfSelection(const std::vector<int>& selected) const {
  std::vector<float> best(root_distance_f32_.size());
  return CostOfSelection(std::span<const int>(selected),
                         std::span<float>(best));
}

double CoverageGraph::CostOfSelection(std::span<const int> selected,
                                      std::span<float> best_scratch) const {
  OSRS_DCHECK_EQ(best_scratch.size(), root_distance_f32_.size());
  std::copy(root_distance_f32_.begin(), root_distance_f32_.end(),
            best_scratch.begin());
  for (int u : selected) {
    const EdgeLanes lanes = ForwardLanesOf(u);
    for (size_t i = 0; i < lanes.size; ++i) {
      float& b = best_scratch[static_cast<size_t>(lanes.endpoint[i])];
      b = std::min(b, static_cast<float>(lanes.distance[i]));
    }
  }
  double total = 0.0;
  for (size_t w = 0; w < best_scratch.size(); ++w) {
    total += static_cast<double>(best_scratch[w]) *
             target_weight(static_cast<int>(w));
  }
  return total;
}

double CoverageGraph::AverageCandidateDegree() const {
  if (num_candidates() == 0) return 0.0;
  return static_cast<double>(num_edges()) /
         static_cast<double>(num_candidates());
}

}  // namespace osrs

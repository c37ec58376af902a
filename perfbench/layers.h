#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Reference answers for the output checks, and the layer replays of the
// traced run: the benchmark times the public entry points of the api,
// coverage and solver layers on the same (item, k) a request asked for.

#include <functional>
#include <string>
#include <vector>

#include "api/review_summarizer.h"
#include "core/model.h"
#include "ledger.h"
#include "ontology/ontology.h"

namespace perfbench {

/// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn);

/// Selection and cost of one summary, compared bit for bit.
struct SummaryRef {
  std::vector<osrs::SummaryEntry> entries;
  double cost = 0.0;
};

SummaryRef MakeRef(const osrs::ItemSummary& summary);
/// Empty when equal; otherwise what differs.
std::string CompareSummary(const SummaryRef& expected,
                           const std::vector<osrs::SummaryEntry>& entries,
                           double cost);

/// Per-layer timings of replayed solves.
struct LayerSamples {
  Samples facade_ms;     // ReviewSummarizer::Summarize
  Samples build_ms;      // TryBuildItemGraph
  Samples build_large_ms;
  Samples build_small_ms;
  Samples greedy_ms;     // GreedySummarizer::Summarize

  void Append(const LayerSamples& other);
  /// api.summarize_*, api.self_share, coverage.build_* and solver.*.
  void Report(RunReport* report) const;
};

/// Edge count at or above which an item's graph counts as "large".
inline constexpr size_t kLargeItemEdges = 1'000'000;

/// Times the facade, then the graph build and the greedy solve it runs
/// inside, on one (item, k). Spans go under a "replay" root for `request`.
void ReplayLayers(const osrs::Ontology& ontology,
                  const osrs::ReviewSummarizerOptions& options,
                  const osrs::Item& item, int k, SpanLog* spans,
                  uint64_t request, LayerSamples* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

#include "layers.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <thread>

#include "common/strings.h"
#include "core/distance.h"
#include "coverage/item_graph.h"
#include "solver/greedy.h"

namespace perfbench {

void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  const int count = std::max(1, std::min<int>(threads, static_cast<int>(n)));
  for (int t = 0; t < count; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

SummaryRef MakeRef(const osrs::ItemSummary& summary) {
  return {summary.entries, summary.cost};
}

std::string CompareSummary(const SummaryRef& expected,
                           const std::vector<osrs::SummaryEntry>& entries,
                           double cost) {
  if (std::bit_cast<uint64_t>(expected.cost) != std::bit_cast<uint64_t>(cost)) {
    return osrs::StrFormat("cost %.17g != reference %.17g", cost,
                           expected.cost);
  }
  if (entries.size() != expected.entries.size()) {
    return osrs::StrFormat("%zu entries != reference %zu", entries.size(),
                           expected.entries.size());
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    const osrs::SummaryEntry& a = entries[i];
    const osrs::SummaryEntry& b = expected.entries[i];
    if (a.review_index != b.review_index ||
        a.sentence_index != b.sentence_index ||
        a.pair.concept_id != b.pair.concept_id ||
        std::bit_cast<uint64_t>(a.pair.sentiment) !=
            std::bit_cast<uint64_t>(b.pair.sentiment) ||
        a.display != b.display) {
      return osrs::StrFormat("entry %zu differs from the reference", i);
    }
  }
  return "";
}

void LayerSamples::Append(const LayerSamples& other) {
  facade_ms.Append(other.facade_ms);
  build_ms.Append(other.build_ms);
  build_large_ms.Append(other.build_large_ms);
  build_small_ms.Append(other.build_small_ms);
  greedy_ms.Append(other.greedy_ms);
}

void LayerSamples::Report(RunReport* report) const {
  const double facade = facade_ms.Sum();
  report->AddQuantile("api.summarize_p50_ms", facade_ms, 0.5, /*gate=*/false);
  report->AddQuantile("api.summarize_p99_ms", facade_ms, 0.99, /*gate=*/false);
  report->Add("api.self_share",
              Ratio(facade - build_ms.Sum() - greedy_ms.Sum(), facade),
              "ratio");
  report->AddQuantile("coverage.build_p50_ms", build_ms, 0.5, /*gate=*/false);
  report->AddQuantile("coverage.build_p99_ms", build_ms, 0.99, /*gate=*/false);
  report->AddQuantile("coverage.build_p99_ms.large", build_large_ms, 0.99,
                      /*gate=*/false);
  report->AddQuantile("coverage.build_p99_ms.small", build_small_ms, 0.99,
                      /*gate=*/false);
  report->Add("coverage.build_share", Ratio(build_ms.Sum(), facade), "ratio");
  report->AddQuantile("solver.greedy_p50_ms", greedy_ms, 0.5, /*gate=*/false);
  report->AddQuantile("solver.greedy_p99_ms", greedy_ms, 0.99, /*gate=*/false);
  report->Add("solver.greedy_share", Ratio(greedy_ms.Sum(), facade), "ratio");
}

void ReplayLayers(const osrs::Ontology& ontology,
                  const osrs::ReviewSummarizerOptions& options,
                  const osrs::Item& item, int k, SpanLog* spans,
                  uint64_t request, LayerSamples* out) {
  ScopedSpan root(spans, "replay", request, 0);
  {
    osrs::ReviewSummarizer facade(&ontology, options);
    ScopedSpan span(spans, "api.summarize", request, root.id());
    auto summary = facade.Summarize(item, k);
    out->facade_ms.Add(span.ElapsedMs());
  }
  osrs::PairDistance distance(&ontology, options.epsilon);
  osrs::CoverageBuildOptions build_options;
  build_options.num_threads = options.graph_build_threads;
  build_options.max_memory_bytes = options.max_memory_bytes;
  std::optional<osrs::Result<osrs::ItemGraph>> built;
  {
    ScopedSpan span(spans, "coverage.build", request, root.id());
    built.emplace(osrs::TryBuildItemGraph(distance, item, options.granularity,
                                          build_options));
    const double ms = span.ElapsedMs();
    out->build_ms.Add(ms);
    if (built->ok() && (*built)->graph.num_edges() >= kLargeItemEdges) {
      out->build_large_ms.Add(ms);
    } else {
      out->build_small_ms.Add(ms);
    }
  }
  if (!built->ok()) return;
  const osrs::CoverageGraph& graph = (*built)->graph;
  osrs::GreedySummarizer greedy;
  const int effective_k = std::min(k, graph.num_candidates());
  ScopedSpan span(spans, "solver.greedy", request, root.id());
  auto result = greedy.Summarize(graph, effective_k);
  out->greedy_ms.Add(span.ElapsedMs());
}

}  // namespace perfbench

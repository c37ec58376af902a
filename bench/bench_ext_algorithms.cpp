// Extensions bench (beyond the paper's three algorithms): how do the
// greedy+swap local search and the deterministic LP-top-k rounding compare
// against ILP / RR / Greedy on cost and time? Also quantifies the
// duplicate-pair deduplication optimization (weighted targets): identical
// costs on a smaller graph.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "core/cost.h"
#include "datagen/doctor_corpus.h"
#include "solver/local_search.h"

int main(int argc, char** argv) {
  osrs::bench::StatsSession stats_session(argc, argv);
  osrs::DoctorCorpusOptions corpus_options;
  corpus_options.scale = 0.008;  // 8 doctors
  corpus_options.ontology_concepts = 2000;
  osrs::Corpus corpus = osrs::GenerateDoctorCorpus(corpus_options);
  osrs::PairDistance distance(&corpus.ontology, 0.5);
  const int k = 6;

  osrs::IlpSummarizer ilp;
  osrs::RandomizedRoundingSummarizer rr;
  osrs::RandomizedRoundingOptions topk_options;
  topk_options.strategy = osrs::RoundingStrategy::kTopK;
  osrs::RandomizedRoundingSummarizer lp_topk(topk_options);
  osrs::GreedySummarizer greedy;
  osrs::LocalSearchSummarizer polished;
  std::vector<osrs::Summarizer*> algorithms{&ilp, &rr, &lp_topk, &greedy,
                                            &polished};

  osrs::TableWriter table(
      "Extensions: avg cost and time across doctors (k=6, eps=0.5, pairs)");
  table.SetHeader({"algorithm", "avg_cost", "gap_vs_ILP_%", "avg_time_ms"});
  std::vector<double> costs(algorithms.size(), 0.0);
  std::vector<double> times(algorithms.size(), 0.0);

  for (const osrs::Item& item : corpus.items) {
    osrs::Item capped = osrs::TruncateToPairBudget(item, 220);
    auto pairs = osrs::PairsOf(osrs::CollectPairs(capped));
    osrs::CoverageGraph graph =
        osrs::CoverageGraph::TryBuildForPairs(distance, pairs).value();
    for (size_t a = 0; a < algorithms.size(); ++a) {
      auto result = algorithms[a]->Summarize(graph, k);
      OSRS_CHECK_MSG(result.ok(), algorithms[a]->name()
                                      << ": " << result.status().ToString());
      costs[a] += result->cost / static_cast<double>(corpus.items.size());
      times[a] +=
          result->seconds * 1e3 / static_cast<double>(corpus.items.size());
    }
  }
  for (size_t a = 0; a < algorithms.size(); ++a) {
    table.AddRow({algorithms[a]->name(),
                  osrs::StrFormat("%.1f", costs[a]),
                  osrs::StrFormat("%.2f", 100.0 * (costs[a] / costs[0] - 1.0)),
                  osrs::StrFormat("%.3f", times[a])});
  }
  table.Print();

  // Deduplication ablation: graph size and greedy cost with and without
  // collapsing duplicate (concept, sentiment-bucket) pairs.
  osrs::TableWriter dedup_table(
      "Dedup ablation: weighted targets vs raw duplicates (greedy, k=6)");
  dedup_table.SetHeader({"item", "pairs", "unique", "edges_raw",
                         "edges_dedup", "cost_raw", "cost_dedup"});
  for (size_t i = 0; i < std::min<size_t>(corpus.items.size(), 5); ++i) {
    osrs::Item capped = osrs::TruncateToPairBudget(corpus.items[i], 220);
    auto pairs = osrs::PairsOf(osrs::CollectPairs(capped));
    // Quantize to a 0.05 grid first so duplicates actually exist.
    for (auto& pair : pairs) {
      pair.sentiment = std::round(pair.sentiment * 20.0) / 20.0;
    }
    osrs::CoverageGraph raw =
        osrs::CoverageGraph::TryBuildForPairs(distance, pairs).value();
    osrs::DedupedPairs deduped = osrs::DedupePairs(pairs, 1e-9);
    osrs::CoverageGraph compact =
        osrs::CoverageGraph::TryBuildForPairsWeighted(distance, deduped.pairs,
                                                      deduped.weights)
            .value();
    auto cost_raw = greedy.Summarize(raw, k);
    auto cost_dedup = greedy.Summarize(compact, k);
    OSRS_CHECK(cost_raw.ok());
    OSRS_CHECK(cost_dedup.ok());
    dedup_table.AddRow(
        {capped.id, osrs::StrFormat("%zu", pairs.size()),
         osrs::StrFormat("%zu", deduped.pairs.size()),
         osrs::StrFormat("%zu", raw.num_edges()),
         osrs::StrFormat("%zu", compact.num_edges()),
         osrs::StrFormat("%.1f", cost_raw->cost),
         osrs::StrFormat("%.1f", cost_dedup->cost)});
  }
  dedup_table.Print();
  return 0;
}

// batch_ingest: the paper's offline job (§5.2) on the doctor corpus.
//
// Step 1 re-annotates every item from its raw sentence text on one thread
// (ReviewAnnotator, lexicon-only estimator). Step 2 summarizes all items
// with BatchSummarizer on nproc threads at the Fig. 4 k values times the
// three granularities. Each step gets half of the run and repeats whole
// units of work (an item, a SummarizeAll call) until its half is over.

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/annotator.h"
#include "api/batch_summarizer.h"
#include "api/review_summarizer.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datagen/doctor_corpus.h"
#include "extraction/dictionary_extractor.h"
#include "layers.h"
#include "obs/metrics.h"
#include "sentiment/estimator.h"
#include "text/tokenizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using osrs::Item;
using osrs::SummaryGranularity;

constexpr int kFig4K[] = {2, 4, 6, 8, 10};
constexpr SummaryGranularity kGranularities[] = {
    SummaryGranularity::kPairs, SummaryGranularity::kSentences,
    SummaryGranularity::kReviews};
constexpr int kSetupRepeats = 15;
constexpr size_t kTracedAnnotateStride = 10;  // every 10th item is decomposed
constexpr size_t kLayerReplays = 2000;        // sampled (item, config) solves

struct Config {
  size_t granularity;  // index into kGranularities
  int k;
};

struct Programs {
  osrs::ReviewAnnotator annotator;
  std::vector<osrs::BatchSummarizer> batch;  // one per granularity
};

osrs::BatchSummarizerOptions BatchOptions(SummaryGranularity granularity,
                                          int threads) {
  osrs::BatchSummarizerOptions options;
  options.num_threads = threads;
  options.summarizer.collect_stats = false;
  options.summarizer.granularity = granularity;
  return options;
}

Programs MakePrograms(const osrs::Ontology& ontology, int threads) {
  Programs programs{
      osrs::ReviewAnnotator(&ontology, osrs::SentimentEstimator::LexiconOnly()),
      {}};
  for (SummaryGranularity granularity : kGranularities) {
    programs.batch.emplace_back(&ontology, BatchOptions(granularity, threads));
  }
  return programs;
}

bool SamePairs(const Item& a, const Item& b, bool concepts_only) {
  if (a.reviews.size() != b.reviews.size()) return false;
  for (size_t r = 0; r < a.reviews.size(); ++r) {
    const auto& sa = a.reviews[r].sentences;
    const auto& sb = b.reviews[r].sentences;
    if (sa.size() != sb.size()) return false;
    for (size_t s = 0; s < sa.size(); ++s) {
      const auto& pa = sa[s].pairs;
      const auto& pb = sb[s].pairs;
      if (pa.size() != pb.size()) return false;
      for (size_t p = 0; p < pa.size(); ++p) {
        if (pa[p].concept_id != pb[p].concept_id) return false;
        if (!concepts_only && std::bit_cast<uint64_t>(pa[p].sentiment) !=
                                  std::bit_cast<uint64_t>(pb[p].sentiment)) {
          return false;
        }
      }
    }
  }
  return true;
}

struct StepResults {
  Samples annotate_ms;       // per item, step 1
  int64_t reviews_annotated = 0;
  int64_t items_annotated = 0;
  int64_t annotate_failed = 0;

  Samples item_ms;           // entry budget_spent_ms, step 2
  int64_t item_solves = 0;   // entries returned
  int64_t good_solves = 0;   // OK, non-degraded, equal to the reference
  int64_t degraded = 0;
  int64_t failed_solves = 0;
  double batch_wall_ms = 0.0;
  double edges = 0.0;
  int64_t coverage_builds = 0;
};

class Ingest {
 public:
  Ingest(const RunConfig& config, const osrs::Corpus& corpus)
      : config_(config), corpus_(corpus) {
    raw_ = corpus.items;
    for (Item& item : raw_) {
      for (auto& review : item.reviews) {
        for (auto& sentence : review.sentences) sentence.pairs.clear();
      }
    }
    for (size_t g = 0; g < std::size(kGranularities); ++g) {
      for (int k : kFig4K) configs_.push_back({g, k});
    }
  }

  /// Reference annotation of every item, composed directly from the
  /// public text, extraction and sentiment calls (its concepts must be the
  /// generator's; sentiments are the estimator's own), and serial facade
  /// solves of every annotated item at every configuration.
  void ComputeRefs(RunReport* report) {
    const osrs::DictionaryExtractor extractor(&corpus_.ontology);
    const osrs::SentimentEstimator estimator =
        osrs::SentimentEstimator::LexiconOnly();
    annotated_ = raw_;
    ParallelFor(annotated_.size(), config_.nproc, [&](size_t i) {
      for (auto& review : annotated_[i].reviews) {
        for (auto& sentence : review.sentences) {
          const std::vector<std::string> tokens = osrs::Tokenize(sentence.text);
          const std::vector<osrs::ConceptId> concepts =
              extractor.ExtractConcepts(tokens);
          if (concepts.empty()) continue;
          const double sentiment = estimator.ScoreSentence(tokens);
          for (osrs::ConceptId concept_id : concepts) {
            sentence.pairs.push_back({concept_id, sentiment});
          }
        }
      }
    });
    for (size_t i = 0; i < annotated_.size(); ++i) {
      if (!SamePairs(annotated_[i], corpus_.items[i], /*concepts_only=*/true)) {
        report->Fail("extracted concepts of " + raw_[i].id +
                     " differ from the generator's");
      }
    }
    refs_.assign(configs_.size(), std::vector<SummaryRef>(raw_.size()));
    ParallelFor(configs_.size() * raw_.size(), config_.nproc, [&](size_t j) {
      const size_t c = j / raw_.size();
      const size_t i = j % raw_.size();
      osrs::ReviewSummarizer facade(
          &corpus_.ontology,
          BatchOptions(kGranularities[configs_[c].granularity], 1).summarizer);
      auto summary = facade.Summarize(annotated_[i], configs_[c].k);
      if (summary.ok()) refs_[c][i] = MakeRef(*summary);
    });
  }

  StepResults Run(const Programs& programs, SpanLog* spans, RunReport* report) {
    StepResults out;
    std::vector<Item> items = raw_;
    const double half_ms = config_.seconds * 500.0;

    // Step 1: whole items until half the run is over; at least one pass.
    const Clock::time_point step1 = Clock::now();
    for (size_t n = 0;; ++n) {
      const size_t i = n % items.size();
      if (n >= items.size() && MsBetween(step1, Clock::now()) >= half_ms) break;
      osrs::Status status;
      {
        ScopedSpan span(spans, "annotate.item", n + 1, 0);
        status = programs.annotator.Annotate(items[i]);
        out.annotate_ms.Add(span.ElapsedMs());
      }
      ++out.items_annotated;
      out.reviews_annotated += static_cast<int64_t>(items[i].reviews.size());
      if (!status.ok()) {
        ++out.annotate_failed;
        report->Fail("annotate " + items[i].id + ": " + status.ToString());
      } else if (!SamePairs(items[i], annotated_[i], /*concepts_only=*/false)) {
        report->Fail("annotated pairs of " + items[i].id +
                     " differ from the reference annotation");
      }
    }

    // Step 2: whole SummarizeAll calls, cycling through the configurations.
    osrs::obs::Counter* builds =
        osrs::obs::MetricsRegistry::Global().GetCounter("osrs.coverage.builds");
    const int64_t builds_before = builds->value();
    const Clock::time_point step2 = Clock::now();
    for (size_t n = 0;; ++n) {
      const size_t c = n % configs_.size();
      if (n >= configs_.size() && MsBetween(step2, Clock::now()) >= half_ms) {
        break;
      }
      const Config& cfg = configs_[c];
      std::vector<osrs::BatchEntry> entries;
      {
        ScopedSpan span(spans, "batch.summarize_all", 1'000'000 + n + 1, 0);
        entries = programs.batch[cfg.granularity].SummarizeAll(items, cfg.k);
        out.batch_wall_ms += span.ElapsedMs();
      }
      CheckEntries(c, entries, &out, report);
    }
    out.coverage_builds = builds->value() - builds_before;
    return out;
  }

  /// Layer replays of sampled (item, configuration) solves.
  void Replay(SpanLog* spans, RunReport* report) const {
    osrs::Rng rng(config_.seed * 0x9E3779B97F4A7C15ull + 3);
    std::vector<std::pair<size_t, size_t>> picks(kLayerReplays);
    for (auto& pick : picks) {
      pick = {rng.NextUint64(configs_.size()), rng.NextUint64(raw_.size())};
    }
    std::vector<LayerSamples> per(picks.size());
    ParallelFor(picks.size(), config_.nproc, [&](size_t j) {
      const Config& cfg = configs_[picks[j].first];
      ReplayLayers(corpus_.ontology,
                   BatchOptions(kGranularities[cfg.granularity], 1).summarizer,
                   annotated_[picks[j].second], cfg.k, spans,
                   2'000'000 + j + 1, &per[j]);
    });
    LayerSamples layers;
    for (const LayerSamples& one : per) layers.Append(one);
    layers.Report(report);
  }

  /// Times ReviewAnnotator::Annotate and then its three public stages on
  /// the same sentences, for every kTracedAnnotateStride-th item.
  void DecomposeAnnotate(const Programs& programs, SpanLog* spans,
                         RunReport* report) const {
    osrs::DictionaryExtractor extractor(&corpus_.ontology);
    const osrs::SentimentEstimator estimator =
        osrs::SentimentEstimator::LexiconOnly();
    double annotate = 0, tokenize = 0, extract = 0, score = 0;
    for (size_t i = 0; i < raw_.size(); i += kTracedAnnotateStride) {
      const uint64_t request = 3'000'000 + i + 1;
      Item item = raw_[i];
      {
        ScopedSpan span(spans, "annotate.item", request, 0);
        (void)programs.annotator.Annotate(item);
        annotate += span.ElapsedMs();
      }
      ScopedSpan stages(spans, "annotate.stages", request, 0);
      for (const auto& review : item.reviews) {
        for (const auto& sentence : review.sentences) {
          std::vector<std::string> tokens;
          {
            ScopedSpan span(spans, "text.tokenize", request, stages.id());
            tokens = osrs::Tokenize(sentence.text);
            tokenize += span.ElapsedMs();
          }
          std::vector<osrs::ConceptId> concepts;
          {
            ScopedSpan span(spans, "extraction.extract", request, stages.id());
            concepts = extractor.ExtractConcepts(tokens);
            extract += span.ElapsedMs();
          }
          if (concepts.empty()) continue;  // Annotate skips scoring too
          ScopedSpan span(spans, "sentiment.score", request, stages.id());
          volatile double sentiment = estimator.ScoreSentence(tokens);
          (void)sentiment;
          score += span.ElapsedMs();
        }
      }
    }
    report->Add("annotate.tokenize_share", Ratio(tokenize, annotate), "ratio");
    report->Add("annotate.extract_share", Ratio(extract, annotate), "ratio");
    report->Add("annotate.sentiment_share", Ratio(score, annotate), "ratio");
    int64_t sentences = 0, pairs = 0;
    for (const Item& item : annotated_) {
      for (const auto& review : item.reviews) {
        for (const auto& sentence : review.sentences) {
          ++sentences;
          pairs += static_cast<int64_t>(sentence.pairs.size());
        }
      }
    }
    report->Add("annotate.pairs_per_sentence",
                sentences > 0 ? static_cast<double>(pairs) / sentences : 0.0,
                "ratio");
  }

 private:
  void CheckEntries(size_t c, const std::vector<osrs::BatchEntry>& entries,
                    StepResults* out, RunReport* report) const {
    if (entries.size() != raw_.size()) {
      report->Fail(osrs::StrFormat(
          "SummarizeAll returned %zu entries for %zu items", entries.size(),
          raw_.size()));
    }
    for (size_t i = 0; i < entries.size() && i < raw_.size(); ++i) {
      const osrs::BatchEntry& entry = entries[i];
      ++out->item_solves;
      if (!entry.status.ok()) {
        ++out->failed_solves;
        continue;
      }
      out->item_ms.Add(entry.summary.budget_spent_ms);
      out->edges += static_cast<double>(entry.summary.num_edges);
      if (entry.summary.degraded) {
        ++out->degraded;
        continue;
      }
      const std::string mismatch =
          CompareSummary(refs_[c][i], entry.summary.entries,
                         entry.summary.cost);
      if (!mismatch.empty()) {
        report->Fail(osrs::StrFormat(
            "batch item %s (granularity %zu, k %d): %s", raw_[i].id.c_str(),
            configs_[c].granularity, configs_[c].k, mismatch.c_str()));
        continue;
      }
      ++out->good_solves;
    }
  }

  const RunConfig& config_;
  const osrs::Corpus& corpus_;
  std::vector<Item> raw_;        // the corpus with every pair removed
  std::vector<Item> annotated_;  // raw_ after one reference annotation
  std::vector<Config> configs_;
  std::vector<std::vector<SummaryRef>> refs_;  // [config][item]
};

}  // namespace

RunReport RunBatchIngest(const RunConfig& config) {
  RunReport report;
  // The corpus is the fixed Table-1 stand-in; the seed fixes the order in
  // which its items arrive.
  osrs::Corpus corpus = osrs::GenerateDoctorCorpus({});
  osrs::Rng order(config.seed * 0x9E3779B97F4A7C15ull + 4);
  order.Shuffle(corpus.items);
  Ingest ingest(config, corpus);
  ingest.ComputeRefs(&report);

  Samples setup_samples;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    Programs programs = MakePrograms(corpus.ontology, config.nproc);
    setup_samples.Add(MsBetween(start, Clock::now()) / 1000.0);
  }
  const Programs programs = MakePrograms(corpus.ontology, config.nproc);

  const StepResults plain = ingest.Run(programs, nullptr, &report);
  const double annotate_per_s =
      Ratio(static_cast<double>(plain.reviews_annotated),
            plain.annotate_ms.Sum() / 1000.0);
  const double items_per_s =
      Ratio(static_cast<double>(plain.good_solves),
            plain.batch_wall_ms / 1000.0);
  report.attempted = plain.items_annotated + plain.item_solves;
  report.failed = plain.annotate_failed + plain.failed_solves;
  report.Detail("items_annotated", std::to_string(plain.items_annotated));
  report.Detail("annotate_failed", std::to_string(plain.annotate_failed));
  report.Detail("item_solves", std::to_string(plain.item_solves));
  report.Detail("item_solves_ok_fresh", std::to_string(plain.good_solves));
  report.Detail("item_solves_degraded", std::to_string(plain.degraded));
  report.Detail("item_solves_failed", std::to_string(plain.failed_solves));
  report.DetailNum("annotate_reviews_per_s", annotate_per_s);
  report.DetailNum("batch_items_per_s", items_per_s);

  if (!config.trace) {
    report.Add("setup_s", setup_samples.Quantile(0.5), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.AddQuantile("latency_p50_ms", plain.annotate_ms, 0.5);
    report.AddQuantile("latency_p99_ms", plain.annotate_ms, 0.99);
    report.Add("goodput_per_s", items_per_s, "1/s");
    return report;
  }

  SpanLog spans(Clock::now());
  osrs::obs::MetricsRegistry::Global().SetEnabled(true);
  const StepResults traced = ingest.Run(programs, &spans, &report);
  osrs::obs::MetricsRegistry::Global().SetEnabled(false);
  const double traced_items_per_s =
      Ratio(static_cast<double>(traced.good_solves),
            traced.batch_wall_ms / 1000.0);

  report.Add("annotate.reviews_per_s",
             Ratio(static_cast<double>(traced.reviews_annotated),
                   traced.annotate_ms.Sum() / 1000.0),
             "1/s");
  ingest.DecomposeAnnotate(programs, &spans, &report);
  report.Add("batch.items_per_s", traced_items_per_s, "1/s");
  report.AddQuantile("batch.item_p50_ms", traced.item_ms, 0.5, /*gate=*/false);
  report.AddQuantile("batch.item_p99_ms", traced.item_ms, 0.99, /*gate=*/false);
  report.Add("batch.parallel_efficiency",
             Ratio(traced.item_ms.Sum(), traced.batch_wall_ms * config.nproc),
             "ratio");
  const double solves = static_cast<double>(traced.item_solves);
  report.Add("api.fallback_frac",
             Ratio(static_cast<double>(traced.degraded),
                   solves - static_cast<double>(traced.failed_solves)),
             "ratio");
  report.Add("coverage.builds_per_read",
             Ratio(static_cast<double>(traced.coverage_builds), solves),
             "ratio");
  report.Add("coverage.edges_per_read", Ratio(traced.edges, solves), "count");
  ingest.Replay(&spans, &report);

  report.AddTraceOverhead("latency_p50_ms",
                          Ratio(traced.annotate_ms.Quantile(0.5),
                                plain.annotate_ms.Quantile(0.5)));
  report.AddTraceOverhead("latency_p99_ms",
                          Ratio(traced.annotate_ms.Quantile(0.99),
                                plain.annotate_ms.Quantile(0.99)));
  report.AddTraceOverhead("goodput_per_s",
                          Ratio(items_per_s, traced_items_per_s));
  WriteSpans(config, spans, &report);
  return report;
}

}  // namespace perfbench

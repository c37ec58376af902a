// osrs_stats — solver telemetry probe over a corpus file.
//
// Loads an `# osrs-corpus v1` file, summarizes every item with each
// requested §4 algorithm (stats collection on), and prints the per-phase
// timing breakdown plus the solver progress counters the traces recorded:
// coverage-graph build, heap init, greedy iterations, LP relaxation,
// rounding trials, branch-and-bound, and the matching counters (heap pops,
// simplex pivots, rounding trials, distance evaluations, ...).
//
// Usage: osrs_stats [options] <corpus-file>
//   --json             one JSON object on stdout instead of text
//   --registry         also dump the process-wide metrics registry
//   --registry=<file>  dump a previously exported registry snapshot
//                      (e.g. from `osrs_serve --metrics-file`) instead of
//                      the live one; the corpus file becomes optional
//   --prometheus       render the registry in OpenMetrics text format
//   -k <n>             summary size per item (default 5)
//   --epsilon <e>      sentiment threshold ε (default 0.5)
//   --items <n>        only the first n items (default: all)
//   --granularity <g>  pairs | sentences | reviews (default sentences)
//   --algorithms <csv> subset of greedy,greedy_lazy,ilp,rr,local_search
//                      (default greedy,rr,ilp)
//
// Exit codes: 0 success, 2 usage/IO error.

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/batch_summarizer.h"
#include "api/review_summarizer.h"
#include "common/strings.h"
#include "datagen/corpus_io.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"

namespace {

using osrs::BatchEntry;
using osrs::ItemSummary;
using osrs::ReviewSummarizer;
using osrs::ReviewSummarizerOptions;
using osrs::SummaryAlgorithm;

struct StatsOptions {
  bool json = false;
  bool registry = false;
  bool prometheus = false;
  /// Non-empty: dump this exported snapshot file instead of the live
  /// registry (read through the failpoint-aware corpus_io helpers so an
  /// unreadable target is a coded Status, not a silent exit).
  std::string registry_file;
  int k = 5;
  double epsilon = 0.5;
  int64_t max_items = -1;  // -1 = all
  osrs::SummaryGranularity granularity =
      osrs::SummaryGranularity::kSentences;
  std::vector<std::pair<std::string, SummaryAlgorithm>> algorithms = {
      {"greedy", SummaryAlgorithm::kGreedy},
      {"rr", SummaryAlgorithm::kRandomizedRounding},
      {"ilp", SummaryAlgorithm::kIlp},
  };
};

void PrintUsage(std::FILE* out) {
  std::fputs(
      "usage: osrs_stats [options] <corpus-file>\n"
      "\n"
      "Summarizes every item of the corpus with each requested algorithm\n"
      "and prints per-phase solver timings and progress counters.\n"
      "\n"
      "options:\n"
      "  --json             JSON on stdout instead of text\n"
      "  --registry         also dump the process-wide metrics registry\n"
      "  --registry=<file>  dump an exported registry snapshot instead of\n"
      "                     the live one (corpus file becomes optional)\n"
      "  --prometheus       registry in OpenMetrics text format on stdout\n"
      "  -k <n>             summary size per item (default 5)\n"
      "  --epsilon <e>      sentiment threshold (default 0.5)\n"
      "  --items <n>        only the first n items\n"
      "  --granularity <g>  pairs | sentences | reviews (default sentences)\n"
      "  --algorithms <csv> subset of greedy,greedy_lazy,ilp,rr,\n"
      "                     local_search (default greedy,rr,ilp)\n"
      "  -h, --help         this message\n"
      "\n"
      "exit codes: 0 success, 2 usage or I/O error\n",
      out);
}

bool ParseAlgorithm(std::string_view name, SummaryAlgorithm* out) {
  if (name == "greedy") {
    *out = SummaryAlgorithm::kGreedy;
  } else if (name == "greedy_lazy") {
    *out = SummaryAlgorithm::kGreedyLazy;
  } else if (name == "ilp") {
    *out = SummaryAlgorithm::kIlp;
  } else if (name == "rr") {
    *out = SummaryAlgorithm::kRandomizedRounding;
  } else if (name == "local_search") {
    *out = SummaryAlgorithm::kLocalSearch;
  } else {
    return false;
  }
  return true;
}

bool ParseGranularity(std::string_view name, osrs::SummaryGranularity* out) {
  if (name == "pairs") {
    *out = osrs::SummaryGranularity::kPairs;
  } else if (name == "sentences") {
    *out = osrs::SummaryGranularity::kSentences;
  } else if (name == "reviews") {
    *out = osrs::SummaryGranularity::kReviews;
  } else {
    return false;
  }
  return true;
}

/// Runs one algorithm over (a prefix of) the corpus items and returns one
/// BatchEntry per item, exactly like BatchSummarizer would.
std::vector<BatchEntry> RunAlgorithm(const osrs::Corpus& corpus,
                                     SummaryAlgorithm algorithm,
                                     const StatsOptions& options) {
  ReviewSummarizerOptions summarizer_options;
  summarizer_options.algorithm = algorithm;
  summarizer_options.epsilon = options.epsilon;
  summarizer_options.granularity = options.granularity;
  summarizer_options.collect_stats = true;
  ReviewSummarizer summarizer(&corpus.ontology, summarizer_options);

  size_t limit = corpus.items.size();
  if (options.max_items >= 0 &&
      static_cast<size_t>(options.max_items) < limit) {
    limit = static_cast<size_t>(options.max_items);
  }
  std::vector<BatchEntry> entries(limit);
  for (size_t i = 0; i < limit; ++i) {
    auto result = summarizer.Summarize(corpus.items[i], options.k);
    if (result.ok()) {
      entries[i].summary = std::move(result).value();
    } else {
      entries[i].status = result.status();
    }
  }
  return entries;
}

void PrintText(const std::string& name, const osrs::BatchStats& stats) {
  std::printf("%s: %lld item(s), %lld ok, %lld failed, %lld degraded\n",
              name.c_str(), static_cast<long long>(stats.total),
              static_cast<long long>(stats.ok),
              static_cast<long long>(stats.failed),
              static_cast<long long>(stats.degraded));
  if (stats.retries > 0 || stats.exhausted_retries > 0 ||
      stats.isolated_exceptions > 0) {
    std::printf(
        "  resilience: %lld retrie(s), %lld exhausted, "
        "%lld isolated exception(s)\n",
        static_cast<long long>(stats.retries),
        static_cast<long long>(stats.exhausted_retries),
        static_cast<long long>(stats.isolated_exceptions));
  }
  if (stats.total_ms.total_count > 0) {
    std::printf("  end-to-end: %.3f ms total over %lld solve(s)\n",
                stats.total_ms.sum,
                static_cast<long long>(stats.total_ms.total_count));
  }
  if (!stats.stats.empty()) {
    std::fputs(stats.stats.ToText("  ").c_str(), stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  StatsOptions options;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--registry") {
      options.registry = true;
    } else if (arg.rfind("--registry=", 0) == 0) {
      options.registry = true;
      options.registry_file =
          std::string(arg.substr(std::string_view("--registry=").size()));
      if (options.registry_file.empty()) {
        std::fprintf(stderr, "osrs_stats: --registry= needs a file path\n");
        return 2;
      }
    } else if (arg == "--prometheus") {
      options.prometheus = true;
    } else if (arg == "-k") {
      int64_t k = 0;
      if (i + 1 >= argc || !osrs::ParseInt64(argv[i + 1], &k) || k < 0) {
        std::fprintf(stderr, "osrs_stats: -k needs a non-negative int\n");
        return 2;
      }
      options.k = static_cast<int>(k);
      ++i;
    } else if (arg == "--epsilon") {
      double epsilon = 0.0;
      if (i + 1 >= argc || !osrs::ParseDouble(argv[i + 1], &epsilon) ||
          epsilon <= 0.0) {
        std::fprintf(stderr, "osrs_stats: --epsilon needs a positive value\n");
        return 2;
      }
      options.epsilon = epsilon;
      ++i;
    } else if (arg == "--items") {
      int64_t items = 0;
      if (i + 1 >= argc || !osrs::ParseInt64(argv[i + 1], &items) ||
          items < 0) {
        std::fprintf(stderr, "osrs_stats: --items needs a non-negative int\n");
        return 2;
      }
      options.max_items = items;
      ++i;
    } else if (arg == "--granularity") {
      if (i + 1 >= argc ||
          !ParseGranularity(argv[i + 1], &options.granularity)) {
        std::fprintf(stderr,
                     "osrs_stats: --granularity needs pairs, sentences, "
                     "or reviews\n");
        return 2;
      }
      ++i;
    } else if (arg == "--algorithms") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "osrs_stats: --algorithms needs a csv list\n");
        return 2;
      }
      options.algorithms.clear();
      for (const std::string& name : osrs::Split(argv[i + 1], ',')) {
        SummaryAlgorithm algorithm;
        if (!ParseAlgorithm(name, &algorithm)) {
          std::fprintf(stderr, "osrs_stats: unknown algorithm '%s'\n",
                       name.c_str());
          return 2;
        }
        options.algorithms.emplace_back(name, algorithm);
      }
      ++i;
    } else if (arg == "-h" || arg == "--help") {
      PrintUsage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "osrs_stats: unknown option '%s'\n", argv[i]);
      PrintUsage(stderr);
      return 2;
    } else if (path.empty()) {
      path = std::string(arg);
    } else {
      std::fprintf(stderr, "osrs_stats: more than one corpus file given\n");
      return 2;
    }
  }
  if (options.json && options.prometheus) {
    std::fprintf(stderr,
                 "osrs_stats: --json and --prometheus are exclusive\n");
    return 2;
  }

  // An exported-snapshot dump is read up front through the failpoint-aware
  // corpus_io helpers, so an unreadable target reports a coded Status
  // (kNotFound / kUnavailable) instead of exiting silently.
  std::string registry_snapshot;
  if (!options.registry_file.empty()) {
    auto snapshot = osrs::ReadTextFile(options.registry_file);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "osrs_stats: %s\n",
                   snapshot.status().ToString().c_str());
      return 2;
    }
    registry_snapshot = std::move(snapshot).value();
    // Inspecting a snapshot needs no corpus run.
    if (path.empty()) {
      std::fputs(registry_snapshot.c_str(), stdout);
      return 0;
    }
  }
  if (path.empty()) {
    PrintUsage(stderr);
    return 2;
  }

  auto corpus = osrs::LoadCorpusFromFile(path);
  if (!corpus.ok()) {
    std::fprintf(stderr, "osrs_stats: %s\n",
                 corpus.status().ToString().c_str());
    return 2;
  }

  // The registry accrues the process-wide osrs.* counters while the
  // per-solve traces feed ItemSummary::stats.
  osrs::obs::MetricsRegistry::Global().SetEnabled(true);

  std::vector<std::pair<std::string, osrs::BatchStats>> results;
  results.reserve(options.algorithms.size());
  for (const auto& [name, algorithm] : options.algorithms) {
    std::vector<BatchEntry> entries =
        RunAlgorithm(*corpus, algorithm, options);
    results.emplace_back(name, osrs::AggregateBatchStats(entries));
  }

  if (options.prometheus) {
    std::fputs(osrs::obs::RenderGlobalOpenMetrics().c_str(), stdout);
    return 0;
  }

  if (options.json) {
    std::string out = osrs::StrFormat(
        "{\"file\":\"%s\",\"k\":%d,\"epsilon\":%g,\"algorithms\":{",
        osrs::JsonEscape(path).c_str(), options.k, options.epsilon);
    for (size_t i = 0; i < results.size(); ++i) {
      if (i > 0) out += ',';
      out += osrs::StrFormat("\"%s\":%s",
                             osrs::JsonEscape(results[i].first).c_str(),
                             results[i].second.ToJson().c_str());
    }
    out += '}';
    if (!options.registry_file.empty()) {
      out += osrs::StrFormat(
          ",\"registry_file\":\"%s\",\"registry_snapshot\":\"%s\"",
          osrs::JsonEscape(options.registry_file).c_str(),
          osrs::JsonEscape(registry_snapshot).c_str());
    } else if (options.registry) {
      out += ",\"registry\":";
      out += osrs::obs::MetricsRegistry::Global().ToJson();
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
  }

  std::printf("%s: %zu item(s), k=%d, epsilon=%g\n", path.c_str(),
              corpus->items.size(), options.k, options.epsilon);
  for (const auto& [name, stats] : results) {
    PrintText(name, stats);
  }
  if (!options.registry_file.empty()) {
    std::printf("registry (%s):\n", options.registry_file.c_str());
    std::fputs(registry_snapshot.c_str(), stdout);
  } else if (options.registry) {
    std::fputs("registry:\n", stdout);
    std::fputs(osrs::obs::MetricsRegistry::Global().ToText().c_str(),
               stdout);
  }
  return 0;
}

#include "api/review_summarizer.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/distance.h"
#include "coverage/item_graph.h"
#include "eval/elbow.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"
#include "solver/local_search.h"
#include "solver/randomized_rounding.h"
#include "solver/summarizer.h"
#include "validate/model_validator.h"

namespace osrs {

const char* SummaryAlgorithmToString(SummaryAlgorithm algorithm) {
  switch (algorithm) {
    case SummaryAlgorithm::kGreedy:
      return "Greedy";
    case SummaryAlgorithm::kIlp:
      return "ILP";
    case SummaryAlgorithm::kRandomizedRounding:
      return "RR";
    case SummaryAlgorithm::kLocalSearch:
      return "Greedy+swap";
  }
  return "unknown";
}

namespace {

/// The solver of a non-greedy algorithm; greedy solves through the
/// graph's run (SummaryGraph::SolveGreedy).
std::unique_ptr<Summarizer> MakeSolver(SummaryAlgorithm algorithm,
                                       uint64_t seed) {
  switch (algorithm) {
    case SummaryAlgorithm::kRandomizedRounding: {
      RandomizedRoundingOptions rr_options;
      rr_options.seed = seed;
      return std::make_unique<RandomizedRoundingSummarizer>(rr_options);
    }
    case SummaryAlgorithm::kLocalSearch:
      return std::make_unique<LocalSearchSummarizer>();
    default:
      OSRS_CHECK(algorithm == SummaryAlgorithm::kIlp);
      return std::make_unique<IlpSummarizer>();
  }
}

Status StrictValidationError(const ValidationReport& report) {
  return Status::InvalidArgument("strict validation failed:\n" +
                                 report.ToString());
}

obs::Counter* SummariesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.api.summaries");
  return counter;
}

obs::Histogram* SolveMsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("osrs.api.solve_ms",
                                                  obs::LatencyBoundsMs());
  return histogram;
}

/// Each field is mixed into the running hash with the splitmix64
/// finalizer, so field order and adjacent-value collisions cannot cancel
/// out.
uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + kSplitMix64Gamma + (seed << 6)));
}

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Item validation, preceded under strict validation by the
/// corpus-integrity checks: they front-load a dangling concept reference
/// as a structured report instead of tripping an OSRS_CHECK deep inside
/// the ontology walk.
Status CheckItem(const Item& item, const Ontology& ontology, bool strict,
                 const ModelValidator& validator, ValidationReport* report) {
  if (strict) {
    validator.CheckItem(item, ontology.num_concepts(), report);
    if (!report->ok()) return StrictValidationError(*report);
  }
  return ValidateItem(item);
}

}  // namespace

SummaryGraph::SummaryGraph(double graph_epsilon, ItemGraph graph)
    : epsilon(graph_epsilon), item_graph(std::move(graph)) {}

SummaryGraph::~SummaryGraph() = default;

size_t SummaryGraph::EstimateBytes() const {
  const CoverageGraph& graph = item_graph.graph;
  return CoverageGraph::EstimateBytes(
      graph.num_edges(), static_cast<size_t>(graph.num_candidates()),
      static_cast<size_t>(graph.num_targets()),
      graph.target_weights_or_null() != nullptr);
}

int SummaryGraph::GreedyRunRounds() const {
  MutexLock lock(slot_.mutex);
  return slot_.run == nullptr ? -1 : slot_.run->rounds();
}

Result<SummaryResult> SummaryGraph::SolveGreedy(
    int k, const ExecutionBudget& budget) const {
  Stopwatch watch;
  obs::DeferredTraceSpan greedy_span(obs::SpanKind::kGreedy);
  std::unique_ptr<GreedyRun> run;
  {
    MutexLock lock(slot_.mutex);
    while (slot_.extending) {
      greedy_span.Open();
      slot_.extended_cv.Wait(slot_.mutex);
    }
    if (slot_.run != nullptr && slot_.run->Covers(k)) {
      // A pure slice: k rounds are recorded, nothing runs.
      Result<SummaryResult> sliced = slot_.run->Solve(k, budget);
      if (sliced.ok()) sliced->seconds = watch.ElapsedSeconds();
      return sliced;
    }
    slot_.extending = true;
    run = std::move(slot_.run);
  }
  greedy_span.Open();
  // Starting and extending run outside the lock; until the run is back in
  // the slot, other greedy solves wait on `extending`. The guard hands the
  // run back however this call ends, except when the init or a round
  // throws: then the run is dropped, so the state the interrupted
  // work left is never read and the next solve starts a new run. A run
  // whose init failed is null, which also leaves the slot empty.
  class SlotRelease {
   public:
    SlotRelease(RunSlot& slot, std::unique_ptr<GreedyRun>& run)
        : slot_(slot), run_(run) {}
    SlotRelease(const SlotRelease&) = delete;
    SlotRelease& operator=(const SlotRelease&) = delete;
    ~SlotRelease() {
      const bool threw = std::uncaught_exceptions() > exceptions_;
      {
        MutexLock lock(slot_.mutex);
        slot_.extending = false;
        slot_.run = threw ? nullptr : std::move(run_);
      }
      slot_.extended_cv.NotifyAll();
    }

   private:
    RunSlot& slot_;
    std::unique_ptr<GreedyRun>& run_;
    const int exceptions_ = std::uncaught_exceptions();
  } release(slot_, run);

  if (run == nullptr) {
    Result<std::unique_ptr<GreedyRun>> started =
        GreedyRun::Start(item_graph.graph, GreedyOptions::Heap::kLazy,
                         budget);
    OSRS_RETURN_IF_ERROR(started.status());
    run = std::move(started).value();
    obs::TraceStat(obs::Stat::kGreedyRunStarts, 1);
  }
  const int rounds_before = run->rounds();
  Result<SummaryResult> solved = run->Solve(k, budget);
  obs::TraceStat(obs::Stat::kGreedyRunRounds, run->rounds() - rounds_before);
  if (solved.ok()) solved->seconds = watch.ElapsedSeconds();
  return solved;
}

uint64_t OptionsFingerprint(const ReviewSummarizerOptions& options) {
  uint64_t h = 0x05B5E0A1C0FFEE01ull;  // fingerprint-format version tag
  h = HashCombine(h, BitsOf(options.epsilon));
  h = HashCombine(h, options.auto_epsilon ? 1 : 0);
  h = HashCombine(h, static_cast<uint64_t>(options.algorithm));
  h = HashCombine(h, static_cast<uint64_t>(options.granularity));
  h = HashCombine(h, options.seed);
  h = HashCombine(h, static_cast<uint64_t>(options.max_solver_work));
  h = HashCombine(h, options.strict_validation ? 1 : 0);
  h = HashCombine(h, static_cast<uint64_t>(options.max_memory_bytes));
  h = HashCombine(h, options.fallback_chain.size());
  for (SummaryAlgorithm fallback : options.fallback_chain) {
    h = HashCombine(h, static_cast<uint64_t>(fallback));
  }
  return h;
}

std::string ItemSummary::ToJson() const {
  std::string warnings_json = "[";
  for (size_t i = 0; i < validation_warnings.size(); ++i) {
    if (i > 0) warnings_json += ',';
    warnings_json += '"';
    warnings_json += JsonEscape(validation_warnings[i]);
    warnings_json += '"';
  }
  warnings_json += ']';

  std::string out = "{";
  out += StrFormat(
      "\"cost\":%.6g,\"epsilon\":%.6g,"
      "\"num_pairs\":%zu,\"num_candidates\":%zu,\"num_edges\":%zu,",
      cost, epsilon, num_pairs, num_candidates, num_edges);
  out += StrFormat(
      "\"diagnostics\":{\"degraded\":%s,\"algorithm\":\"%s\","
      "\"stop_reason\":\"%s\",\"budget_spent_ms\":%.3f,"
      "\"solver_seconds\":%.6g,\"retries\":%d,"
      "\"request_id\":%llu,\"trace_id\":\"%016llx\","
      "\"validation_warnings\":%s,\"stats\":%s},",
      degraded ? "true" : "false",
      JsonEscape(SummaryAlgorithmToString(algorithm_used)).c_str(),
      StatusCodeToString(stop_reason), budget_spent_ms, solver_seconds,
      retries, static_cast<unsigned long long>(request_id),
      static_cast<unsigned long long>(trace_id), warnings_json.c_str(),
      stats.ToJson().c_str());
  out += "\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"display\":\"%s\",\"review\":%d,\"sentence\":%d,"
        "\"concept\":%d,\"sentiment\":%.6g}",
        JsonEscape(entries[i].display).c_str(), entries[i].review_index,
        entries[i].sentence_index, entries[i].pair.concept_id,
        entries[i].pair.sentiment);
  }
  out += "]}";
  return out;
}

ReviewSummarizer::ReviewSummarizer(const Ontology* ontology,
                                   ReviewSummarizerOptions options)
    : ontology_(ontology), options_(options) {
  OSRS_CHECK(ontology != nullptr);
  OSRS_CHECK(ontology->finalized());
  OSRS_CHECK_GT(options.epsilon, 0.0);
}

Result<ItemSummary> ReviewSummarizer::Summarize(const Item& item,
                                                int k) const {
  return Summarize(item, k, ExecutionBudget::Unlimited());
}

Result<ItemSummary> ReviewSummarizer::Summarize(
    const Item& item, int k, const ExecutionBudget& external) const {
  return Summarize(item, k, external,
                   [this, &item, k] { return BuildGraph(item, k); });
}

Result<std::shared_ptr<const SummaryGraph>> ReviewSummarizer::BuildGraph(
    const Item& item, int k) const {
  if (options_.graph_build_threads < 0) {
    return Status::InvalidArgument(StrFormat(
        "graph_build_threads=%d negative", options_.graph_build_threads));
  }
  ModelValidator validator;
  ValidationReport report = validator.MakeReport();
  OSRS_RETURN_IF_ERROR(CheckItem(item, *ontology_, options_.strict_validation,
                                 validator, &report));

  // The elbow probes and the real build share one set of build options, so
  // the memory bound and the failpoint cover every graph this call builds.
  CoverageBuildOptions build_options;
  build_options.num_threads = options_.graph_build_threads;
  build_options.max_memory_bytes = options_.max_memory_bytes;
  double epsilon = options_.epsilon;
  if (options_.auto_epsilon) {
    auto pairs = PairsOf(CollectPairs(item));
    if (!pairs.empty()) {
      Result<ElbowResult> elbow = SelectEpsilonByElbow(
          *ontology_, pairs, std::max(1, k),
          {0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.2, 1.6, 2.0}, build_options);
      OSRS_RETURN_IF_ERROR(elbow.status());
      epsilon = elbow->chosen_epsilon;
    }
  }

  PairDistance distance(ontology_, epsilon);
  Result<ItemGraph> built =
      TryBuildItemGraph(distance, item, options_.granularity, build_options);
  // Graph construction failures (memory budget, injected faults) have no
  // partial result to degrade to; surface them for the caller's retry
  // policy — kResourceExhausted and injected codes are retryable.
  OSRS_RETURN_IF_ERROR(built.status());
  return std::make_shared<const SummaryGraph>(epsilon,
                                              std::move(built).value());
}

Status ReviewSummarizer::StartGreedyRun(const SummaryGraph& graph,
                                        const ExecutionBudget& budget) const {
  if (options_.algorithm != SummaryAlgorithm::kGreedy) return Status::OK();
  return graph.SolveGreedy(0, budget).status();
}

Result<ItemSummary> ReviewSummarizer::Summarize(
    const Item& item, int k, const ExecutionBudget& external,
    const GraphSource& graph_source) const {
  if (k < 0) return Status::InvalidArgument(StrFormat("k=%d negative", k));

  ModelValidator validator;
  ValidationReport strict_report = validator.MakeReport();
  OSRS_RETURN_IF_ERROR(CheckItem(item, *ontology_, options_.strict_validation,
                                 validator, &strict_report));

  Stopwatch total_watch;
  ExecutionBudget budget;
  if (options_.deadline_ms > 0.0) budget.SetDeadlineMs(options_.deadline_ms);
  if (options_.max_solver_work > 0) budget.SetMaxWork(options_.max_solver_work);
  budget.AddCancellation(options_.cancellation);
  budget = budget.TightenedBy(external);
  // A budget already expired at entry (e.g. a batch deadline that tripped
  // before this item was claimed) is an error, not a degradation: no work
  // has been done, so there is nothing to degrade to.
  OSRS_RETURN_IF_ERROR(budget.Check());

  // Everything below (a graph build the source runs, every solver
  // attempt) records into the trace installed on this thread: under
  // SummaryServer, the request's. With none installed, collect_stats
  // records into a local one. `stats` covers what was recorded after
  // `mark`, so only this call's work.
  std::optional<obs::RequestTrace> local_trace;
  obs::RequestTrace* trace = obs::Tracer::current();
  if (trace == nullptr && options_.collect_stats) {
    trace = &local_trace.emplace();
    // Enough for a build, two attempts and their phases without regrowth.
    trace->ReserveSpans(16);
  }
  obs::Tracer::Scope trace_scope(trace);
  const obs::RequestTrace::Mark mark =
      trace != nullptr ? trace->mark() : obs::RequestTrace::Mark{};

  Result<std::shared_ptr<const SummaryGraph>> source_result = graph_source();
  OSRS_RETURN_IF_ERROR(source_result.status());
  const std::shared_ptr<const SummaryGraph> summary_graph =
      std::move(source_result).value();
  const ItemGraph& item_graph = summary_graph->item_graph;
  const double epsilon = summary_graph->epsilon;
  int effective_k = std::min<int>(k, item_graph.graph.num_candidates());

  if (options_.strict_validation) {
    validator.CheckSolverConfig(
        k, epsilon, static_cast<size_t>(item_graph.graph.num_candidates()),
        &strict_report);
    validator.CheckGroups(item_graph.groups, item_graph.occurrences.size(),
                          &strict_report);
    if (!strict_report.ok()) return StrictValidationError(strict_report);
  }

  // The primary algorithm followed by the fallback chain, attempted
  // verbatim (repeats retry with a fresh seed). Each attempt gets the full
  // work budget; the wall-clock deadline is absolute and therefore shared,
  // which is why the last fallback drops everything but cancellation.
  std::vector<SummaryAlgorithm> attempts;
  attempts.reserve(1 + options_.fallback_chain.size());
  attempts.push_back(options_.algorithm);
  attempts.insert(attempts.end(), options_.fallback_chain.begin(),
                  options_.fallback_chain.end());

  SummaryResult result;
  SummaryAlgorithm algorithm_used = options_.algorithm;
  bool solved = false;
  bool degraded = false;
  StatusCode stop_reason = StatusCode::kOk;
  Status last_error = Status::OK();

  for (size_t attempt = 0; attempt < attempts.size(); ++attempt) {
    const bool final_fallback = attempt > 0 && attempt + 1 == attempts.size();
    const ExecutionBudget attempt_budget =
        final_fallback ? budget.CancellationOnly() : budget;
    obs::TraceSpan attempt_span(obs::SpanKind::kSolveAttempt);
    // Greedy answers from the graph's run, so a greedy fallback after a
    // budget-tripped greedy primary continues that run instead of redoing
    // the heap init.
    Result<SummaryResult> attempt_result =
        attempts[attempt] == SummaryAlgorithm::kGreedy
            ? summary_graph->SolveGreedy(effective_k, attempt_budget)
            : MakeSolver(attempts[attempt], options_.seed + attempt)
                  ->Summarize(item_graph.graph, effective_k, attempt_budget);
    if (attempt_result.ok()) {
      result = std::move(*attempt_result);
      algorithm_used = attempts[attempt];
      solved = true;
      if (result.approximate && attempt + 1 < attempts.size()) {
        // A budget-tripped incumbent with fallbacks still in the chain:
        // keep it as the answer of record but let a later attempt replace
        // it with a complete solution.
        degraded = true;
        if (stop_reason == StatusCode::kOk) stop_reason = result.stop_reason;
        continue;
      }
      break;
    }
    last_error = attempt_result.status();
    if (last_error.code() == StatusCode::kCancelled ||
        last_error.code() == StatusCode::kInvalidArgument) {
      return last_error;  // fallbacks never absorb these
    }
    degraded = true;
    if (stop_reason == StatusCode::kOk) stop_reason = last_error.code();
  }
  if (!solved) return last_error;
  if (result.approximate) {
    degraded = true;
    if (stop_reason == StatusCode::kOk) stop_reason = result.stop_reason;
  }

  ItemSummary summary;
  summary.cost = result.cost;
  summary.solver_seconds = result.seconds;
  summary.epsilon = epsilon;
  summary.degraded = degraded;
  summary.algorithm_used = algorithm_used;
  summary.stop_reason = stop_reason;
  summary.num_pairs = item_graph.occurrences.size();
  // Any finding still in the report passed the error gates above, so all
  // that is left to surface are warnings.
  for (const ValidationFinding& finding : strict_report.findings()) {
    summary.validation_warnings.push_back(finding.ToString());
  }
  summary.num_candidates =
      static_cast<size_t>(item_graph.graph.num_candidates());
  summary.num_edges = item_graph.graph.num_edges();

  for (int candidate : result.selected) {
    SummaryEntry entry;
    if (options_.granularity == SummaryGranularity::kPairs) {
      const PairOccurrence& occ =
          item_graph.occurrences[static_cast<size_t>(candidate)];
      entry.pair = occ.pair;
      entry.review_index = occ.review_index;
      entry.sentence_index = occ.sentence_index;
      entry.display =
          StrFormat("%s = %+.2f", ontology_->name(occ.pair.concept_id).c_str(),
                    occ.pair.sentiment);
    } else {
      auto [review_index, sentence_index] =
          item_graph.group_origin[static_cast<size_t>(candidate)];
      entry.review_index = review_index;
      entry.sentence_index = sentence_index;
      const Review& review =
          item.reviews[static_cast<size_t>(review_index)];
      const auto& members =
          item_graph.groups[static_cast<size_t>(candidate)];
      if (!members.empty()) {
        entry.pair =
            item_graph.occurrences[static_cast<size_t>(members.front())].pair;
      }
      if (options_.granularity == SummaryGranularity::kSentences) {
        entry.display =
            review.sentences[static_cast<size_t>(sentence_index)].text;
      } else {
        entry.display = StrFormat(
            "review #%d: %s%s", review_index,
            review.sentences.empty() ? ""
                                     : review.sentences[0].text.c_str(),
            review.sentences.size() > 1 ? " ..." : "");
      }
    }
    summary.entries.push_back(std::move(entry));
  }
  summary.budget_spent_ms = total_watch.ElapsedMillis();
  if (options_.collect_stats) {
    summary.stats = obs::SolverStats::FromTrace(*trace, mark);
  }
  SummariesCounter()->Increment();
  SolveMsHistogram()->Observe(summary.budget_spent_ms);
  return summary;
}

}  // namespace osrs

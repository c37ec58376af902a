#include "obs/trace.h"

#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"

namespace osrs::obs {

uint64_t DeriveTraceId(uint64_t request_id) {
  return Mix64(request_id + kSplitMix64Gamma);
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kBuildCoverageGraph:
      return "build_coverage_graph";
    case SpanKind::kHeapInit:
      return "heap_init";
    case SpanKind::kGreedyIterations:
      return "greedy_iterations";
    case SpanKind::kLpRelaxation:
      return "lp_relaxation";
    case SpanKind::kRoundingTrials:
      return "rounding_trials";
    case SpanKind::kBranchAndBound:
      return "branch_and_bound";
    case SpanKind::kLocalSearchPasses:
      return "local_search_passes";
    case SpanKind::kExhaustiveEnumeration:
      return "exhaustive_enumeration";
    case SpanKind::kReductionBuild:
      return "reduction_build";
    case SpanKind::kSolveAttempt:
      return "solve_attempt";
    case SpanKind::kServe:
      return "serve";
    case SpanKind::kCacheProbe:
      return "cache_probe";
    case SpanKind::kAdmission:
      return "admission";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kShedDecision:
      return "shed_decision";
    case SpanKind::kSolve:
      return "solve";
    case SpanKind::kGraphBuild:
      return "graph_build";
    case SpanKind::kGreedy:
      return "greedy";
    case SpanKind::kStaleFallback:
      return "stale_fallback";
    case SpanKind::kCoalescedWait:
      return "coalesced_wait";
  }
  return "unknown";
}

const char* StatName(Stat stat) {
  switch (stat) {
    case Stat::kCandidatesConsidered:
      return "candidates_considered";
    case Stat::kHeapPops:
      return "heap_pops";
    case Stat::kKeyUpdates:
      return "key_updates";
    case Stat::kGainRecomputes:
      return "gain_recomputes";
    case Stat::kDistanceEvaluations:
      return "distance_evaluations";
    case Stat::kSimplexPivots:
      return "simplex_pivots";
    case Stat::kBnbNodes:
      return "bnb_nodes";
    case Stat::kRoundingTrials:
      return "rounding_trials";
    case Stat::kSwapsApplied:
      return "swaps_applied";
    case Stat::kSubsetsEvaluated:
      return "subsets_evaluated";
    case Stat::kGraphEdgesBuilt:
      return "graph_edges_built";
    case Stat::kGreedyRunStarts:
      return "greedy_run_starts";
    case Stat::kGreedyRunRounds:
      return "greedy_run_rounds";
  }
  return "unknown";
}

size_t RequestTrace::BeginSpan(SpanKind kind, int64_t start_ns) {
  Span span;
  span.kind = kind;
  span.depth = open_depth_;
  span.start_ns = start_ns >= 0 ? start_ns : watch_.ElapsedNanos();
  ++open_depth_;
  spans_.push_back(span);
  return spans_.size() - 1;
}

void RequestTrace::EndSpan(size_t index) {
  OSRS_CHECK(index < spans_.size());
  OSRS_CHECK(spans_[index].duration_ns < 0);
  spans_[index].duration_ns = watch_.ElapsedNanos() - spans_[index].start_ns;
  --open_depth_;
}

void RequestTrace::AddSpan(SpanKind kind, int64_t start_ns,
                           int64_t duration_ns) {
  Span span;
  span.kind = kind;
  span.depth =
      open_depth_ > 0 ? open_depth_ : (spans_.empty() ? 0 : 1);
  span.start_ns = start_ns;
  span.duration_ns = duration_ns < 0 ? 0 : duration_ns;
  spans_.push_back(span);
}

bool RequestTrace::balanced() const {
  if (open_depth_ != 0) return false;
  for (const Span& span : spans_) {
    if (span.duration_ns < 0) return false;
  }
  return true;
}

bool RequestTrace::HasSpan(SpanKind kind) const {
  for (const Span& span : spans_) {
    if (span.kind == kind) return true;
  }
  return false;
}

int64_t RequestTrace::SpanDurationNs(SpanKind kind) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.kind == kind && span.duration_ns >= 0) {
      total += span.duration_ns;
    }
  }
  return total;
}

std::string RequestTrace::ToJson() const {
  std::string out = StrFormat(
      "{\"trace_id\":\"%016llx\",\"request_id\":%llu,\"spans\":[",
      static_cast<unsigned long long>(context.trace_id),
      static_cast<unsigned long long>(context.request_id));
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"kind\":\"%s\",\"depth\":%d,\"start_ns\":%lld,"
        "\"duration_ns\":%lld}",
        SpanKindName(spans_[i].kind), spans_[i].depth,
        static_cast<long long>(spans_[i].start_ns),
        static_cast<long long>(spans_[i].duration_ns));
  }
  out += "]}";
  return out;
}

void TraceRing::Push(RequestTrace trace) {
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  while (traces_.size() >= capacity_) traces_.pop_front();
  traces_.push_back(std::move(trace));
}

std::vector<RequestTrace> TraceRing::Snapshot() const {
  MutexLock lock(mutex_);
  return std::vector<RequestTrace>(traces_.begin(), traces_.end());
}

size_t TraceRing::size() const {
  MutexLock lock(mutex_);
  return traces_.size();
}

}  // namespace osrs::obs

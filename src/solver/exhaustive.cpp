#include "solver/exhaustive.h"

#include <algorithm>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace osrs {
namespace {

obs::Counter* SolvesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.exhaustive.solves");
  return counter;
}

/// C(n, k) with saturation at limit+1 to avoid overflow.
int64_t BinomialCapped(int n, int k, int64_t limit) {
  if (k < 0 || k > n) return 0;
  k = std::min(k, n - k);
  int64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
    if (result > limit) return limit + 1;
  }
  return result;
}

}  // namespace

ExhaustiveSummarizer::ExhaustiveSummarizer(int64_t max_subsets)
    : max_subsets_(max_subsets) {}

Result<SummaryResult> ExhaustiveSummarizer::Summarize(
    const CoverageGraph& graph, int k, const ExecutionBudget& budget) {
  const int n = graph.num_candidates();
  if (k < 0 || k > n) {
    return Status::InvalidArgument(StrFormat("k=%d outside [0, %d]", k, n));
  }
  int64_t subsets = BinomialCapped(n, k, max_subsets_);
  if (subsets > max_subsets_) {
    return Status::ResourceExhausted(
        StrFormat("C(%d, %d) exceeds the %lld-subset budget", n, k,
                  static_cast<long long>(max_subsets_)));
  }

  OSRS_RETURN_IF_ERROR(budget.Check());
  Stopwatch watch;
  SummaryResult result;
  result.cost = graph.EmptySummaryCost();

  std::vector<int> combo(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) combo[static_cast<size_t>(i)] = i;
  std::vector<int> best_combo = combo;
  double best_cost = k == 0 ? result.cost : graph.CostOfSelection(combo);
  int64_t evaluated = k == 0 ? 0 : 1;

  // Lexicographic enumeration of k-combinations of [0, n).
  obs::TraceSpan enum_span(obs::SpanKind::kExhaustiveEnumeration);
  constexpr int64_t kBudgetCheckPeriod = 1024;
  while (k > 0) {
    if (evaluated % kBudgetCheckPeriod == 0) {
      // Exact-or-error: a partial enumeration proves nothing, so the oracle
      // reports the budget verdict instead of a bogus "optimum".
      Status budget_status = budget.Check(evaluated);
      if (!budget_status.ok()) {
        obs::TraceStat(obs::Stat::kSubsetsEvaluated, evaluated);
        return budget_status;
      }
    }
    int i = k - 1;
    while (i >= 0 &&
           combo[static_cast<size_t>(i)] == n - k + i) {
      --i;
    }
    if (i < 0) break;
    ++combo[static_cast<size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      combo[static_cast<size_t>(j)] = combo[static_cast<size_t>(j - 1)] + 1;
    }
    double cost = graph.CostOfSelection(combo);
    ++evaluated;
    if (cost < best_cost) {
      best_cost = cost;
      best_combo = combo;
    }
  }

  obs::TraceStat(obs::Stat::kSubsetsEvaluated, evaluated);
  SolvesCounter()->Increment();
  result.selected = best_combo;
  if (k == 0) result.selected.clear();
  result.cost = k == 0 ? graph.EmptySummaryCost() : best_cost;
  result.seconds = watch.ElapsedSeconds();
  result.work = evaluated;
  return result;
}

}  // namespace osrs

#include "solver/randomized_rounding.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/kmedian_model.h"

namespace osrs {
namespace {

obs::Counter* SolvesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.rr.solves");
  return counter;
}

}  // namespace

RandomizedRoundingSummarizer::RandomizedRoundingSummarizer(
    RandomizedRoundingOptions options)
    : options_(options) {}

Result<SummaryResult> RandomizedRoundingSummarizer::Summarize(
    const CoverageGraph& graph, int k, const ExecutionBudget& budget) {
  if (k < 0 || k > graph.num_candidates()) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [0, %d]", k, graph.num_candidates()));
  }
  OSRS_RETURN_IF_ERROR(budget.Check());
  Stopwatch watch;
  KMedianModel model = BuildKMedianModel(graph, k, /*integral_x=*/false);
  RevisedSimplex simplex(options_.lp);
  LpSolution lp;
  {
    obs::TraceSpan lp_span(obs::SpanKind::kLpRelaxation);
    lp = simplex.Solve(model.problem,
                       budget.IsUnlimited() ? nullptr : &budget);
  }
  if (lp.status == LpStatus::kInterrupted) {
    // No fractional point yet, so there is nothing to round: surface the
    // budget's own verdict (deadline, cancellation, or work bound).
    Status cause = budget.Check(lp.iterations);
    return cause.ok()
               ? Status::ResourceExhausted("LP relaxation budget tripped")
               : cause;
  }
  if (lp.status == LpStatus::kError) {
    // Environmental failure (e.g. an injected "osrs.lp.pivot" failpoint):
    // propagate the underlying Status code, not a blanket kInternal.
    return lp.error;
  }
  if (lp.status != LpStatus::kOptimal) {
    return Status::Internal(StrFormat("k-median LP relaxation reported %s",
                                      LpStatusToString(lp.status)));
  }

  // Per-solve scratch below (opening weights, per-trial draws, cost
  // scratch) is arena-backed; only the winning selection is copied out
  // into the result before the frame rewinds.
  Arena& arena = PerThreadSolveArena();
  ArenaFrame frame(arena);
  const size_t num_facilities = model.x_vars.size();

  // Fractional opening weights q(p) ∝ x_p (Algorithm 1, line 2).
  std::span<double> base_weights = arena.AllocateArray<double>(num_facilities);
  for (size_t u = 0; u < num_facilities; ++u) {
    double x = lp.values[static_cast<size_t>(model.x_vars[u])];
    base_weights[u] = x > 1e-12 ? x : 0.0;
  }
  std::span<float> cost_scratch = arena.AllocateArray<float>(
      static_cast<size_t>(graph.num_targets()));

  obs::TraceSpan rounding_span(obs::SpanKind::kRoundingTrials);
  if (options_.strategy == RoundingStrategy::kTopK) {
    // Deterministic rounding: open the k largest fractional facilities.
    std::span<int32_t> order = arena.AllocateArray<int32_t>(num_facilities);
    for (size_t u = 0; u < num_facilities; ++u)
      order[u] = static_cast<int32_t>(u);
    std::sort(order.begin(), order.end(), [&base_weights](int a, int b) {
      double wa = base_weights[static_cast<size_t>(a)];
      double wb = base_weights[static_cast<size_t>(b)];
      if (wa != wb) return wa > wb;
      return a < b;
    });
    SummaryResult result;
    result.selected.assign(order.begin(),
                           order.begin() + std::min<size_t>(
                                               static_cast<size_t>(k),
                                               order.size()));
    result.cost = graph.CostOfSelection(result.selected);
    result.seconds = watch.ElapsedSeconds();
    result.work = lp.iterations;
    obs::TraceStat(obs::Stat::kRoundingTrials, 1);
    SolvesCounter()->Increment();
    return result;
  }

  Rng rng(options_.seed);
  SummaryResult best;
  bool have_best = false;
  int64_t trials_done = 0;
  // Trial scratch, reused across every draw (copied / reset in place —
  // the former per-trial vector copies were the dominant allocation churn
  // of a rounding solve).
  std::span<double> weights = arena.AllocateArray<double>(num_facilities);
  std::span<int32_t> selected =
      arena.AllocateArray<int32_t>(static_cast<size_t>(k));
  std::span<uint8_t> chosen = arena.AllocateArray<uint8_t>(num_facilities);
  for (int trial = 0; trial < std::max(1, options_.trials); ++trial) {
    Status budget_status = budget.Check(lp.iterations + trial);
    if (!budget_status.ok()) {
      if (budget_status.code() == StatusCode::kCancelled || !have_best) {
        obs::TraceStat(obs::Stat::kRoundingTrials, trials_done);
        return budget_status;
      }
      // Keep the cheapest draw completed so far as the incumbent.
      best.approximate = true;
      best.stop_reason = budget_status.code();
      break;
    }
    std::copy(base_weights.begin(), base_weights.end(), weights.begin());
    size_t num_selected = 0;
    // Sample without replacement (Algorithm 1, lines 4-6). If the LP opens
    // fewer than k candidates fractionally, the support runs dry; the
    // remaining slots are filled uniformly from the unchosen candidates,
    // which cannot increase the cost.
    for (int round = 0; round < k; ++round) {
      double total = 0.0;
      for (double w : weights) total += w;
      if (total <= 0.0) break;
      size_t pick = rng.NextDiscrete(std::span<const double>(weights));
      selected[num_selected++] = static_cast<int32_t>(pick);
      weights[pick] = 0.0;
    }
    if (static_cast<int>(num_selected) < k) {
      std::fill(chosen.begin(), chosen.end(), uint8_t{0});
      for (size_t s = 0; s < num_selected; ++s) {
        chosen[static_cast<size_t>(selected[s])] = 1;
      }
      auto uniform_order =
          rng.SampleWithoutReplacement(num_facilities, num_facilities);
      for (size_t u : uniform_order) {
        if (static_cast<int>(num_selected) >= k) break;
        if (chosen[u] == 0) selected[num_selected++] = static_cast<int32_t>(u);
      }
    }
    double cost = graph.CostOfSelection(
        std::span<const int32_t>(selected.data(), num_selected),
        cost_scratch);
    ++trials_done;
    if (!have_best || cost < best.cost) {
      best.selected.assign(selected.begin(),
                           selected.begin() +
                               static_cast<std::ptrdiff_t>(num_selected));
      best.cost = cost;
      have_best = true;
    }
  }

  obs::TraceStat(obs::Stat::kRoundingTrials, trials_done);
  SolvesCounter()->Increment();
  best.seconds = watch.ElapsedSeconds();
  best.work = lp.iterations;
  return best;
}

}  // namespace osrs

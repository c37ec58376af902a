#include "solver/local_search.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/arena.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace osrs {
namespace {

obs::Counter* SolvesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.local_search.solves");
  return counter;
}

/// First- and second-best coverage of every target under a selection, with
/// the owner of the best. The implicit root is folded in as owner -1.
/// Arena-backed: spans are allocated once per solve and refilled per pass.
/// Distances are float (integral hop counts, exact); the swap deltas below
/// compute in double over the same values the old double state held.
struct CoverageState {
  std::span<float> best1;
  std::span<int32_t> owner1;  // selected candidate index, or -1 for the root
  std::span<float> best2;

  void Allocate(Arena& arena, size_t num_targets) {
    best1 = arena.AllocateArray<float>(num_targets);
    best2 = arena.AllocateArray<float>(num_targets);
    owner1 = arena.AllocateArray<int32_t>(num_targets);
  }

  void Rebuild(const CoverageGraph& graph, const std::vector<int>& selected) {
    std::copy(graph.root_distances_f32(),
              graph.root_distances_f32() + best1.size(), best1.begin());
    // The root never leaves, so it backstops both.
    std::copy(best1.begin(), best1.end(), best2.begin());
    std::fill(owner1.begin(), owner1.end(), int32_t{-1});
    for (int u : selected) {
      const CoverageGraph::EdgeLanes lanes = graph.ForwardLanesOf(u);
      for (size_t i = 0; i < lanes.size; ++i) {
        size_t w = static_cast<size_t>(lanes.endpoint[i]);
        const float d = lanes.distance[i];
        if (d < best1[w]) {
          best2[w] = best1[w];
          best1[w] = d;
          owner1[w] = u;
        } else if (d < best2[w]) {
          best2[w] = d;
        }
      }
    }
  }
};

}  // namespace

LocalSearchSummarizer::LocalSearchSummarizer(LocalSearchOptions options)
    : options_(options) {}

Result<SummaryResult> LocalSearchSummarizer::Summarize(
    const CoverageGraph& graph, int k, const ExecutionBudget& budget) {
  Stopwatch watch;
  // The greedy seed solve keeps its scratch in its own GreedyRun, not in
  // the arena; only this solve's swap scratch lives under the frame.
  // Nothing arena-backed escapes into the result.
  Arena& arena = PerThreadSolveArena();
  ArenaFrame frame(arena);

  auto seed = greedy_.Summarize(graph, k, budget);
  OSRS_RETURN_IF_ERROR(seed.status());
  if (seed->approximate) {
    // The budget already ran out inside the greedy seed; polishing is off
    // the table, so hand the partial greedy incumbent through unchanged.
    return seed;
  }
  std::vector<int> selected = seed->selected;
  double cost = seed->cost;

  const size_t num_targets = static_cast<size_t>(graph.num_targets());
  const size_t num_candidates = static_cast<size_t>(graph.num_candidates());
  std::span<uint8_t> is_selected = arena.AllocateArray<uint8_t>(num_candidates);
  std::fill(is_selected.begin(), is_selected.end(), uint8_t{0});
  for (int u : selected) is_selected[static_cast<size_t>(u)] = 1;

  CoverageState state;
  state.Allocate(arena, num_targets);
  int64_t swaps_applied = 0;
  // Scratch: distance from the incoming candidate to each target (∞ when
  // not adjacent); reset sparsely between candidates.
  constexpr float kNotAdjacent = std::numeric_limits<float>::infinity();
  std::span<float> in_distance = arena.AllocateArray<float>(num_targets);
  std::fill(in_distance.begin(), in_distance.end(), kNotAdjacent);
  // Scratch for the exact post-swap cost recomputation.
  std::span<float> cost_scratch = arena.AllocateArray<float>(num_targets);

  // Non-OK once the budget fires mid-polish; the greedy-seeded solution in
  // `selected` stays valid at every point, so it becomes the incumbent.
  Status budget_status = Status::OK();

  for (int pass = 0;
       pass < options_.max_passes && budget_status.ok(); ++pass) {
    budget_status = budget.Check(swaps_applied);
    if (!budget_status.ok()) break;
    // One span per pass, so the trace's call count equals the number of
    // polish passes actually run.
    obs::TraceSpan pass_span(obs::SpanKind::kLocalSearchPasses);
    state.Rebuild(graph, selected);
    double best_delta = -options_.min_improvement;
    size_t best_out_pos = 0;
    int best_in = -1;

    for (int u_in = 0; u_in < graph.num_candidates(); ++u_in) {
      if (u_in % 64 == 0) {
        budget_status = budget.Check(swaps_applied);
        if (!budget_status.ok()) break;
      }
      if (is_selected[static_cast<size_t>(u_in)] != 0) continue;
      const CoverageGraph::EdgeLanes in_lanes = graph.ForwardLanesOf(u_in);
      for (size_t i = 0; i < in_lanes.size; ++i) {
        in_distance[static_cast<size_t>(in_lanes.endpoint[i])] =
            in_lanes.distance[i];
      }
      for (size_t out_pos = 0; out_pos < selected.size(); ++out_pos) {
        const int u_out = selected[out_pos];
        // Delta over targets adjacent to u_in or owned by u_out; all other
        // targets keep their current coverage.
        double delta = 0.0;
        for (size_t i = 0; i < in_lanes.size; ++i) {
          size_t w = static_cast<size_t>(in_lanes.endpoint[i]);
          double base = static_cast<double>(
              state.owner1[w] == u_out ? state.best2[w] : state.best1[w]);
          double now =
              std::min(base, static_cast<double>(in_lanes.distance[i]));
          delta += (now - static_cast<double>(state.best1[w])) *
                   graph.target_weight(in_lanes.endpoint[i]);
        }
        const CoverageGraph::EdgeLanes out_lanes = graph.ForwardLanesOf(u_out);
        for (size_t i = 0; i < out_lanes.size; ++i) {
          size_t w = static_cast<size_t>(out_lanes.endpoint[i]);
          if (state.owner1[w] != u_out) continue;
          if (in_distance[w] < kNotAdjacent) continue;  // counted above
          delta += (static_cast<double>(state.best2[w]) -
                    static_cast<double>(state.best1[w])) *
                   graph.target_weight(out_lanes.endpoint[i]);
        }
        if (delta < best_delta) {
          best_delta = delta;
          best_out_pos = out_pos;
          best_in = u_in;
        }
      }
      for (size_t i = 0; i < in_lanes.size; ++i) {
        in_distance[static_cast<size_t>(in_lanes.endpoint[i])] = kNotAdjacent;
      }
    }

    if (best_in < 0) break;  // local optimum
    is_selected[static_cast<size_t>(selected[best_out_pos])] = 0;
    is_selected[static_cast<size_t>(best_in)] = 1;
    selected[best_out_pos] = best_in;
    ++swaps_applied;
    // Exact recomputation (avoids delta drift), allocation-free.
    cost = graph.CostOfSelection(std::span<const int>(selected), cost_scratch);
  }

  obs::TraceStat(obs::Stat::kSwapsApplied, swaps_applied);
  if (!budget_status.ok()) {
    if (budget_status.code() == StatusCode::kCancelled) return budget_status;
    // Deadline/work trip mid-polish: the greedy-seeded selection is a valid
    // incumbent at every point, but the polish is incomplete.
  }
  SolvesCounter()->Increment();
  SummaryResult result;
  result.selected = std::move(selected);
  result.cost = cost;
  result.seconds = watch.ElapsedSeconds();
  result.work = swaps_applied;
  result.approximate = !budget_status.ok();
  result.stop_reason = budget_status.code();
  return result;
}

}  // namespace osrs

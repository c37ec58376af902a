#include "lp/mip.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace osrs {
namespace {

obs::Counter* NodesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.mip.nodes");
  return counter;
}

/// Shared search state threaded through the recursive DFS.
struct SearchState {
  LpProblem* problem;
  RevisedSimplex* simplex;
  const MipOptions* options;
  MipSolution* solution;
  /// Caller budget with its work bound stripped (node accounting happens
  /// here, not in iteration units inside the LP); null when unbudgeted.
  const ExecutionBudget* lp_budget = nullptr;
  /// Caller budget as given, checked per node against `nodes`.
  const ExecutionBudget* budget = nullptr;
  bool budget_exhausted = false;
  bool interrupted = false;
};

/// Index of the integer variable whose LP value is most fractional, or -1
/// when the point is integral on all flagged variables.
int MostFractionalVariable(const LpProblem& problem,
                           const std::vector<double>& x, double tol) {
  int best = -1;
  double best_score = tol;
  for (int j = 0; j < problem.num_variables(); ++j) {
    if (!problem.is_integer(j)) continue;
    double frac = x[static_cast<size_t>(j)] -
                  std::floor(x[static_cast<size_t>(j)]);
    double distance = std::min(frac, 1.0 - frac);
    if (distance > best_score) {
      best_score = distance;
      best = j;
    }
  }
  return best;
}

void Dfs(SearchState& state) {
  if (state.budget_exhausted) return;
  MipSolution& out = *state.solution;
  if (out.nodes >= state.options->max_nodes) {
    state.budget_exhausted = true;
    return;
  }
  if (state.budget != nullptr && !state.budget->Check(out.nodes).ok()) {
    state.budget_exhausted = true;
    state.interrupted = true;
    return;
  }
  ++out.nodes;

  LpSolution lp = state.simplex->Solve(*state.problem, state.lp_budget);
  out.lp_iterations += lp.iterations;
  if (lp.status == LpStatus::kInterrupted) {
    state.budget_exhausted = true;
    state.interrupted = true;
    return;
  }
  if (lp.status == LpStatus::kError) {
    // Environmental failure (e.g. injected by a failpoint): abandon the
    // search and surface the underlying Status — an incumbent found before
    // the failure is not trustworthy evidence of optimality.
    out.status = LpStatus::kError;
    out.error = lp.error;
    state.budget_exhausted = true;
    return;
  }
  if (lp.status == LpStatus::kInfeasible) return;
  if (lp.status == LpStatus::kUnbounded) {
    // A bounded-below MIP cannot have an unbounded node unless the root is
    // unbounded; surface it.
    out.status = LpStatus::kUnbounded;
    state.budget_exhausted = true;
    return;
  }
  if (lp.status == LpStatus::kIterationLimit) {
    state.budget_exhausted = true;
    return;
  }

  // Bound pruning against the incumbent.
  if (out.has_incumbent) {
    double cutoff = state.options->objective_is_integral
                        ? out.objective - 1.0 + 1e-6
                        : out.objective - 1e-9;
    if (lp.objective > cutoff) return;
  }

  int branch_var = MostFractionalVariable(*state.problem, lp.values,
                                          state.options->integrality_tol);
  if (branch_var == -1) {
    // Integral: new incumbent (strictly better, else the prune above fired).
    if (!out.has_incumbent || lp.objective < out.objective) {
      out.has_incumbent = true;
      out.objective = lp.objective;
      out.values = lp.values;
    }
    return;
  }

  double value = lp.values[static_cast<size_t>(branch_var)];
  double saved_lower = state.problem->lower(branch_var);
  double saved_upper = state.problem->upper(branch_var);
  double floor_value = std::floor(value);

  // Dive first into the side the LP leans toward.
  bool up_first = (value - floor_value) >= 0.5;
  for (int side = 0; side < 2; ++side) {
    bool up = (side == 0) == up_first;
    if (up) {
      state.problem->SetBounds(branch_var,
                               std::max(saved_lower, floor_value + 1.0),
                               saved_upper);
    } else {
      state.problem->SetBounds(branch_var, saved_lower,
                               std::min(saved_upper, floor_value));
    }
    if (state.problem->lower(branch_var) <=
        state.problem->upper(branch_var)) {
      Dfs(state);
    }
    state.problem->SetBounds(branch_var, saved_lower, saved_upper);
    if (state.budget_exhausted) return;
  }
}

}  // namespace

MipSolver::MipSolver(MipOptions options) : options_(options) {}

MipSolution MipSolver::Solve(LpProblem problem,
                             const ExecutionBudget* budget) {
  MipSolution solution;
  RevisedSimplex simplex(options_.lp);
  SearchState state{&problem, &simplex, &options_, &solution};
  ExecutionBudget lp_budget;
  if (budget != nullptr) {
    state.budget = budget;
    lp_budget = *budget;
    lp_budget.SetMaxWork(0);  // node budget must not bind LP iterations
    state.lp_budget = &lp_budget;
  }
  {
    obs::TraceSpan bnb_span(obs::SpanKind::kBranchAndBound);
    Dfs(state);
  }
  obs::TraceStat(obs::Stat::kBnbNodes, solution.nodes);
  NodesCounter()->Add(solution.nodes);

  if (solution.status == LpStatus::kUnbounded ||
      solution.status == LpStatus::kError) {
    return solution;
  }
  if (state.interrupted) {
    solution.status = LpStatus::kInterrupted;
  } else if (state.budget_exhausted) {
    solution.status = LpStatus::kIterationLimit;
  } else {
    solution.status =
        solution.has_incumbent ? LpStatus::kOptimal : LpStatus::kInfeasible;
  }
  return solution;
}

}  // namespace osrs

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/stats.h"

/// \file budget_search.h
/// Min-budget estimation: the empirical counterpart of a lower bound.
///
/// A communication lower bound cannot be executed; what *can* be measured is
/// the smallest per-player budget at which a (capped) protocol still reaches
/// a target success probability on the hard distribution. Sweeping that
/// minimum budget across n and fitting the log-log slope reproduces the
/// lower bound's exponent whenever the matching upper bound is tight
/// (Section 4: the Theta((nd)^{1/3}) simultaneous and Theta~(n^{1/4})
/// one-way regimes).
///
/// The search does each probe's work once: duplicate budget probes are
/// memoized, per-trial verdicts are reused across budgets via monotonicity,
/// and a budget's trial loop stops as soon as the trials resolved so far
/// force its pass/fail decision. What this preserves of the exhaustive
/// evaluation (every trial at every probe) is spelled out in EXPERIMENTS.md
/// ("Sweep methodology") and held to its frozen output by
/// tests/test_sweep.cpp.

namespace tft {

/// One protocol execution under a budget. `trial_index` must fully
/// determine the run's randomness (instance + protocol seed) so success
/// rates at different budgets are comparable.
///
/// The search assumes the verdict is monotone in the budget for a fixed
/// trial_index — true for every capped protocol in this repo, which
/// truncate a shared-permutation-ordered candidate list, so a larger budget
/// sees a superset of the same candidates.
using BudgetTrial = std::function<bool(std::uint64_t budget, std::uint64_t trial_index)>;

struct BudgetCurvePoint {
  std::uint64_t budget = 0;
  SuccessRate success;
};

struct BudgetSearchResult {
  bool found = false;             ///< a passing budget <= budget_hi exists
  std::uint64_t min_budget = 0;   ///< smallest passing budget located
  std::vector<BudgetCurvePoint> curve;  ///< every (budget, success) evaluated

  // Work accounting: how many trials the search ran, and how many it did
  // not need to. tests/test_sweep.cpp pins them on fixed grids.
  std::uint64_t trials_run = 0;       ///< protocol executions actually performed
  std::uint64_t trials_inferred = 0;  ///< verdicts reused via per-trial monotonicity
  std::uint64_t trials_skipped = 0;   ///< trials left unresolved by early stopping
  std::uint64_t memo_hits = 0;        ///< budget probes answered from the memo
};

struct BudgetSearchOptions {
  double target_success = 0.9;
  std::size_t trials_per_budget = 40;
  /// First doubling probe. Budgets start at 1: find_min_budget rejects 0.
  std::uint64_t budget_lo = 1;
  std::uint64_t budget_hi = 1ULL << 40;
  /// Bisection refinement steps after the doubling phase brackets the
  /// threshold (each step costs at most trials_per_budget runs).
  std::uint32_t refine_steps = 4;

  /// Extra budgets to evaluate after the search, appended to `curve` in the
  /// given order (also when the search itself finds no passing budget).
  /// Curve points always report the full trials_per_budget count — they are
  /// never early-stopped — so a grid point that collides with a search probe
  /// is answered from the memo only when the stored evaluation is complete.
  /// This is how the benches print a success curve without re-running the
  /// budgets the search already measured.
  std::vector<std::uint64_t> curve_budgets;
};

/// Doubling from budget_lo until the success target is met, then bisection
/// between the last failing and first passing budgets. Throws
/// std::invalid_argument, before any trial runs, when budget_lo or a
/// curve_budgets entry is 0.
[[nodiscard]] BudgetSearchResult find_min_budget(const BudgetTrial& trial,
                                                 const BudgetSearchOptions& opts);

}  // namespace tft

#include "lower_bounds/budget_search.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "util/parallel.h"

namespace tft {

namespace {

/// Smallest success count whose rate passes the target, under the exhaustive
/// evaluation's comparison (`SuccessRate::rate() >= target` in double
/// precision). May return trials + 1: the target is unreachable.
std::size_t needed_successes(double target, std::size_t trials) {
  for (std::size_t s = 0; s <= trials; ++s) {
    SuccessRate sr;
    sr.successes = s;
    sr.trials = trials;
    if (sr.rate() >= target) return s;
  }
  return trials + 1;
}

/// One budget's evaluation: the recorded curve point plus the pass/fail
/// decision. `pass` is carried explicitly because under early stopping the
/// stored rate can be partial while the decision is exact.
struct Eval {
  SuccessRate rate;
  bool pass = false;
};

/// Evaluates budgets for one find_min_budget call, carrying the memo and
/// the per-trial monotone state across probes.
class BudgetEvaluator {
 public:
  BudgetEvaluator(const BudgetTrial& trial, const BudgetSearchOptions& opts,
                  BudgetSearchResult& result)
      : trial_(trial),
        opts_(opts),
        result_(result),
        needed_(needed_successes(opts.target_success, opts.trials_per_budget)),
        pass_at_(opts.trials_per_budget, UINT64_MAX),
        fail_at_(opts.trials_per_budget, 0) {}

  /// A search probe may stop early once its decision is forced. A curve
  /// point (`full`) always reports every trial: a memoized probe is reused
  /// only when it resolved every trial (early stopping stores partial
  /// counts, which must not masquerade as a full curve point), and a fresh
  /// run does not stop early.
  Eval evaluate(std::uint64_t budget, bool full) {
    const auto it = memo_.find(budget);
    if (it != memo_.end() && (!full || it->second.rate.trials == opts_.trials_per_budget)) {
      ++result_.memo_hits;
      return it->second;
    }
    const Eval e = run_budget(budget, /*may_stop_early=*/!full);
    memo_[budget] = e;  // a full evaluation supersedes a partial one
    return e;
  }

 private:
  Eval run_budget(std::uint64_t budget, bool may_stop_early) {
    const std::size_t total = opts_.trials_per_budget;

    // Resolve what monotonicity already knows, collect the rest to run.
    std::size_t inferred_pass = 0;
    std::size_t inferred_fail = 0;
    std::vector<std::uint32_t> to_run;
    to_run.reserve(total);
    for (std::size_t t = 0; t < total; ++t) {
      if (pass_at_[t] <= budget) {
        ++inferred_pass;
      } else if (fail_at_[t] >= budget) {
        ++inferred_fail;
      } else {
        to_run.push_back(static_cast<std::uint32_t>(t));
      }
    }
    result_.trials_inferred += inferred_pass + inferred_fail;

    // Execute, in trial-index order. Chunks advance exactly to the next
    // index at which a decision could become forced; chunk boundaries
    // depend only on success counts, never on thread count or timing, so
    // the set of trials run (and hence every downstream byte) is
    // deterministic. A curve point runs everything left as one chunk.
    std::vector<std::uint8_t> ok(to_run.size(), 0);
    std::size_t run_successes = 0;
    std::size_t ran = 0;
    while (ran < to_run.size()) {
      const std::size_t successes = inferred_pass + run_successes;
      const std::size_t remaining = to_run.size() - ran;
      std::size_t chunk = remaining;
      if (may_stop_early) {
        if (successes >= needed_) break;                // pass already forced
        if (successes + remaining < needed_) break;     // fail already forced
        const std::size_t to_pass = needed_ - successes;
        const std::size_t to_fail = remaining - to_pass + 1;
        chunk = std::min(remaining, std::max<std::size_t>(1, std::min(to_pass, to_fail)));
      }
      parallel_for(
          chunk,
          [&](std::size_t i) {
            const std::uint32_t t = to_run[ran + i];
            ok[ran + i] = trial_(budget, t) ? 1 : 0;
          },
          /*grain=*/1);
      for (std::size_t i = 0; i < chunk; ++i) run_successes += ok[ran + i];
      ran += chunk;
    }
    result_.trials_run += ran;
    result_.trials_skipped += to_run.size() - ran;

    // Fold the fresh verdicts into the monotone state.
    for (std::size_t i = 0; i < ran; ++i) {
      const std::uint32_t t = to_run[i];
      if (ok[i]) {
        pass_at_[t] = std::min(pass_at_[t], budget);
      } else {
        fail_at_[t] = std::max(fail_at_[t], budget);
      }
    }

    Eval e;
    e.rate.successes = inferred_pass + run_successes;
    e.rate.trials = inferred_pass + inferred_fail + ran;  // == total unless early-stopped
    e.pass = e.rate.successes >= needed_;
    return e;
  }

  const BudgetTrial& trial_;
  const BudgetSearchOptions& opts_;
  BudgetSearchResult& result_;
  const std::size_t needed_;
  std::vector<std::uint64_t> pass_at_;  ///< per trial: min budget known to pass
  /// Per trial: max budget known to fail. 0 means none, since budgets are
  /// at least 1.
  std::vector<std::uint64_t> fail_at_;
  std::unordered_map<std::uint64_t, Eval> memo_;
};

}  // namespace

BudgetSearchResult find_min_budget(const BudgetTrial& trial, const BudgetSearchOptions& opts) {
  // The monotone state reads fail_at_[t] = 0 as "no failing budget known",
  // so a budget of 0 would be inferred to fail without a run (and doubling
  // from 0 would never leave 0).
  if (opts.budget_lo == 0 ||
      std::ranges::find(opts.curve_budgets, std::uint64_t{0}) != opts.curve_budgets.end()) {
    throw std::invalid_argument("find_min_budget: budgets start at 1");
  }
  BudgetSearchResult result;
  BudgetEvaluator eval(trial, opts, result);

  // Doubling phase.
  std::uint64_t lo = 0;  // highest known-failing budget
  std::uint64_t hi = 0;  // lowest known-passing budget
  for (std::uint64_t b = opts.budget_lo; b <= opts.budget_hi; b *= 2) {
    const auto e = eval.evaluate(b, /*full=*/false);
    result.curve.push_back({b, e.rate});
    if (e.pass) {
      hi = b;
      break;
    }
    lo = b;
    if (b > opts.budget_hi / 2) break;  // avoid overflow past the cap
  }
  if (hi != 0) {
    // Bisection refinement.
    for (std::uint32_t step = 0; step < opts.refine_steps && hi > lo + 1; ++step) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      const auto e = eval.evaluate(mid, /*full=*/false);
      result.curve.push_back({mid, e.rate});
      if (e.pass) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    result.found = true;
    result.min_budget = hi;
  }

  // The requested success-curve grid rides on the same evaluator, so grid
  // points the search already measured in full come from the memo and the
  // rest reuse every monotone-resolved trial verdict.
  for (const std::uint64_t b : opts.curve_budgets) {
    result.curve.push_back({b, eval.evaluate(b, /*full=*/true).rate});
  }
  return result;
}

}  // namespace tft

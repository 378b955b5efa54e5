#!/usr/bin/env python3
"""Exact type I / type II error rates of the test at its two operating points.

Both stop rules are conclusive, so a query is SAT exactly when its N-sample
success count reaches K = ceil(c*N), and P(SAT | p) is a binomial tail.  At
p = 1 - eps' the nominal bound on the UNSAT (type I) rate is alpha; at
p = 1 - eps the nominal bound on the SAT (type II) rate is beta.  This
script prints the exact rates so the gap between the nominal bounds and the
verbatim-formula behavior is visible (see README for why the rates exceed
the bounds).
"""

import argparse
import sys

from ewrobust.stats import ErrorBudget, plan_test, sat_probability


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, default=0.1)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--beta", type=float, default=0.05)
    args = parser.parse_args()

    plan = plan_test(args.eps, ErrorBudget(args.alpha, args.beta))
    print(f"plan: N={plan.N} c={plan.c:.6f} K={plan.accept_successes} "
          f"eps={plan.epsilon} eps_prime={plan.epsilon_prime}")
    upper, lower = 1.0 - plan.epsilon_prime, 1.0 - plan.epsilon
    print(f"at p_r = 1-eps' = {upper}: UNSAT rate = "
          f"{1.0 - sat_probability(plan, upper):.4f} (nominal bound alpha = {args.alpha})")
    print(f"at p_r = 1-eps  = {lower}: SAT rate   = "
          f"{sat_probability(plan, lower):.4f} (nominal bound beta  = {args.beta})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

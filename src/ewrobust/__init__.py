"""Statistical epsilon-weakened robustness toolkit.

Decides whether the fraction of misclassified points inside an lp ball stays
below a tolerance epsilon, with explicit type I/II error bounds, and searches
for the largest radius at which that holds.
"""

__version__ = "0.1.0"

from .decision import (CenterMisclassifiedError, RadiusResult, RobustnessQuery,
                       Verdict, decide, decide_with_source, evaluate, point_check)
from .gadgets import CnfFormula, build_gadget, parse_dimacs
from .nn import (NetworkModel, NumericOverflowError, ShapeMismatchError, dump_model,
                 forward, indicative, load_model, predict)
from .sampling import BallSpec, sample_batch
from .special import inv_norm_cdf, reg_lower_incomplete_gamma
from .stats import (ErrorBudget, TestPlan, choose_epsilon_prime, early_accept,
                    early_reject, plan_test, sat_probability)

__all__ = [
    "BallSpec", "CenterMisclassifiedError", "CnfFormula", "ErrorBudget",
    "NetworkModel", "NumericOverflowError", "RadiusResult",
    "RobustnessQuery", "ShapeMismatchError",
    "TestPlan", "Verdict", "build_gadget", "choose_epsilon_prime",
    "decide", "decide_with_source", "dump_model", "early_accept",
    "early_reject", "evaluate", "forward", "indicative", "inv_norm_cdf", "load_model",
    "parse_dimacs", "plan_test", "point_check", "predict",
    "reg_lower_incomplete_gamma", "sample_batch", "sat_probability",
]

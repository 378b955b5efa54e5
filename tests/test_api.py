import ewrobust


def test_every_public_name_resolves():
    missing = [name for name in ewrobust.__all__ if not hasattr(ewrobust, name)]
    assert not missing
    assert len(set(ewrobust.__all__)) == len(ewrobust.__all__)


def test_public_names_are_exactly_these():
    # the test oracles (model counting, corner sources, the threshold
    # classifier) live in tests/oracles.py, not in the package
    assert set(ewrobust.__all__) == {
        "BallSpec", "CenterMisclassifiedError", "CnfFormula", "ErrorBudget", "NetworkModel",
        "NumericOverflowError", "RadiusResult", "RobustnessQuery", "ShapeMismatchError",
        "TestPlan", "Verdict", "build_gadget", "choose_epsilon_prime", "decide",
        "decide_with_source", "dump_model", "early_accept", "early_reject", "evaluate",
        "forward", "indicative", "inv_norm_cdf", "load_model", "parse_dimacs", "plan_test",
        "point_check", "predict", "reg_lower_incomplete_gamma", "sample_batch",
        "sat_probability",
    }

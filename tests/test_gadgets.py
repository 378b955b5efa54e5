import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewrobust.gadgets import CnfFormula, DimacsError, build_gadget, parse_dimacs
from ewrobust.nn import NetworkModel, predict
from oracles import (_assignment_table, corner_source, count_satisfying, satisfies,
                     threshold_classifier, threshold_fraction)

EXAMPLE = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n"


@st.composite
def cnf_formulas(draw):
    n = draw(st.integers(1, 6))
    literals = st.integers(1, n).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(
        st.lists(literals, min_size=1, max_size=4).map(tuple),
        min_size=0, max_size=6).map(tuple))
    return CnfFormula(n, clauses)


class TestDimacs:
    def test_parse_example(self):
        cnf = parse_dimacs(EXAMPLE)
        assert cnf.num_vars == 3
        assert cnf.clauses == ((1, -2), (2, 3))

    def test_comments_and_blank_lines_ignored(self):
        cnf = parse_dimacs("c x\n\np cnf 2 1\nc y\n1 2 0\n")
        assert cnf.clauses == ((1, 2),)

    def test_clause_split_across_lines(self):
        cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert cnf.clauses == ((1, 2, 3),)

    @pytest.mark.parametrize("text", [
        "1 2 0\n",                      # missing header
        "p cnf x 1\n1 0\n",             # non-integer header
        "p dnf 2 1\n1 0\n",             # wrong format tag
        "p cnf 2 2\n1 0\n",             # clause count mismatch
        "p cnf 2 1\n1 2\n",             # missing terminator
        "p cnf 2 1\n0\n",               # empty clause
        "p cnf 2 1\n1 a 0\n",           # non-integer literal
        "p cnf 2 1\n3 0\n",             # literal out of range
    ])
    def test_malformed_inputs(self, text):
        with pytest.raises((DimacsError, ValueError)):
            parse_dimacs(text)


class TestCnfSemantics:
    def test_literal_validation(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((0,),))
        with pytest.raises(ValueError):
            CnfFormula(2, ((3,),))
        with pytest.raises(ValueError):
            CnfFormula(0, ())

    def test_count_example(self):
        # (x1 or not x2) and (x2 or x3): satisfied by 4 of 8 assignments
        # (110, 001, 101, 111 in x1 x2 x3 order)
        cnf = CnfFormula(3, ((1, -2), (2, 3)))
        assert count_satisfying(cnf) == 4

    def test_count_tautology_and_contradiction(self):
        assert count_satisfying(CnfFormula(4, ())) == 16
        assert count_satisfying(CnfFormula(2, ((1,), (-1,)))) == 0

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            count_satisfying(CnfFormula(21, ((1,),)))

    def test_assignment_table_lsb_is_variable_one(self):
        table = _assignment_table(3)
        assert table.shape == (8, 3)
        assert np.array_equal(table[1], [1.0, 0.0, 0.0])
        assert np.array_equal(table[6], [0.0, 1.0, 1.0])


class TestGadgetNetwork:
    def test_single_clause_truth_table(self):
        model = build_gadget(CnfFormula(2, ((1, 2),)))
        corners = _assignment_table(2)
        labels = predict(model, corners)
        assert list(labels) == [1, 0, 0, 0]  # only (0,0) falsifies x1 or x2

    def test_negated_literals(self):
        model = build_gadget(CnfFormula(1, ((-1,),)))
        assert predict(model, np.array([[0.0]]))[0] == 0
        assert predict(model, np.array([[1.0]]))[0] == 1

    def test_empty_formula_is_vacuously_satisfied(self):
        model = build_gadget(CnfFormula(3, ()))
        labels = predict(model, _assignment_table(3))
        assert (labels == 0).all()

    @given(cnf_formulas())
    @settings(max_examples=80)
    def test_network_matches_brute_force_on_all_corners(self, cnf):
        model = build_gadget(cnf)
        corners = _assignment_table(cnf.num_vars)
        network_sat = predict(model, corners) == 0
        assert np.array_equal(network_sat, satisfies(cnf, corners))

    def test_margin_is_half(self):
        # o1 - o2 is +0.5 on satisfying corners and <= -0.5 otherwise
        from ewrobust.nn import forward
        cnf = CnfFormula(3, ((1, -2), (2, 3), (-1, -3)))
        logits = forward(build_gadget(cnf), _assignment_table(3))
        margin = logits[:, 0] - logits[:, 1]
        sat = satisfies(cnf, _assignment_table(3))
        assert np.allclose(margin[sat], 0.5)
        assert (margin[~sat] <= -0.5 + 1e-12).all()


class TestCornerSource:
    def test_tautology_always_one(self):
        out = corner_source(CnfFormula(3, ()), seed=1)(np.arange(100, dtype=np.uint64))
        assert (out == 1).all()

    def test_contradiction_always_zero(self):
        cnf = CnfFormula(2, ((1,), (-1,)))
        out = corner_source(cnf, seed=1)(np.arange(100, dtype=np.uint64))
        assert (out == 0).all()

    def test_empirical_fraction_matches_model_count(self):
        cnf = CnfFormula(3, ((1, -2), (2, 3)))
        p = count_satisfying(cnf) / 2 ** cnf.num_vars  # 5/8
        m = 50_000
        out = corner_source(cnf, seed=9)(np.arange(m, dtype=np.uint64))
        tol = 4 * math.sqrt(p * (1 - p) / m)
        assert out.mean() == pytest.approx(p, abs=tol)

    def test_accepts_prebuilt_gadget(self):
        model = build_gadget(CnfFormula(2, ((1,),)))
        assert isinstance(model, NetworkModel)
        out = corner_source(model, seed=4)(np.arange(1000, dtype=np.uint64))
        assert out.mean() == pytest.approx(0.5, abs=0.07)


class TestThresholdClassifier:
    def test_decision_boundary(self):
        model = threshold_classifier(3, 1, 0.25)
        xs = np.array([[9.0, 0.1, 9.0], [9.0, 0.25, 9.0], [9.0, 0.3, 9.0]])
        assert list(predict(model, xs)) == [0, 0, 1]  # ties go to label 0

    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            threshold_classifier(3, 3, 0.0)

    def test_fraction_closed_form_cases(self):
        assert threshold_fraction(0.0, 1.0, 0.0) == 0.5
        assert threshold_fraction(0.0, 1.0, 1.0) == 1.0
        assert threshold_fraction(0.0, 1.0, -1.0) == 0.0
        assert threshold_fraction(0.0, 2.0, 1.0) == 0.75
        assert threshold_fraction(0.3, 0.0, 0.5) == 1.0
        assert threshold_fraction(0.7, 0.0, 0.5) == 0.0

    def test_fraction_matches_monte_carlo(self):
        from ewrobust.sampling import LINF, BallSpec, sample_batch
        model = threshold_classifier(2, 0, 0.4)
        spec = BallSpec(np.array([0.1, 0.0]), 1.5, LINF)
        m = 1_000_000
        pts = sample_batch(spec, 31, 0, m)
        frac = (predict(model, pts) == 0).mean()
        p = threshold_fraction(0.1, 1.5, 0.4)
        assert frac == pytest.approx(p, abs=4 * math.sqrt(p * (1 - p) / m))


class TestMajorityReduction:
    """Validates the counting identity behind the MAJSAT-style reduction:
    appending a fresh variable p to every clause of phi and adding the
    padding clauses (x1 or x2 or not p) ... (x1 or xn or not p) yields
    count(phi') = count(phi) + 2^(n-1) + 1 over n+1 variables."""

    @staticmethod
    def padded(cnf: CnfFormula) -> CnfFormula:
        n = cnf.num_vars
        p = n + 1
        clauses = tuple(cl + (p,) for cl in cnf.clauses)
        padding = tuple((1, k, -p) for k in range(2, n + 1))
        return CnfFormula(n + 1, clauses + padding)

    def test_padding_formula_count(self):
        # (x1 or x2) and ... and (x1 or xn) has 2^(n-1) + 1 models
        for n in range(2, 7):
            psi = CnfFormula(n, tuple((1, k) for k in range(2, n + 1)))
            assert count_satisfying(psi) == 2 ** (n - 1) + 1

    @given(cnf_formulas().filter(lambda c: c.num_vars >= 2))
    @settings(max_examples=60)
    def test_counting_identity(self, cnf):
        n = cnf.num_vars
        assert count_satisfying(self.padded(cnf)) == \
            count_satisfying(cnf) + 2 ** (n - 1) + 1

    @given(cnf_formulas().filter(lambda c: c.num_vars >= 2))
    @settings(max_examples=60)
    def test_strict_majority_equivalence(self, cnf):
        # count(phi) >= 2^(n-1)  <=>  count(phi') > 2^n  (strict majority
        # of the padded formula's 2^(n+1) assignments)
        n = cnf.num_vars
        lhs = count_satisfying(cnf) >= 2 ** (n - 1)
        rhs = count_satisfying(self.padded(cnf)) > 2 ** n
        assert lhs == rhs

"""Exact test oracles: CNF-to-ReLU reduction and analytic synthetic
classifiers.

The reduction turns a CNF formula into a 2-label ReLU network that outputs
label 0 exactly on satisfying Boolean assignments: per clause,
y = 1 - max(0, 1 - sum of literal values) with negated inputs realized as the
affine map 1 - x, then o1 = sum_j y_j against a constant o2 = m - 0.5.
Combined with brute-force model counting this gives end-to-end oracles whose
acceptance probability is known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prng
from .decision import IndicativeSource
from .nn import Dense, NetworkModel, Relu, predict

ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class CnfFormula:
    """Clauses as tuples of DIMACS-style signed 1-based literals."""
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError(f"num_vars must be positive, got {self.num_vars}")
        object.__setattr__(self, "clauses",
                           tuple(tuple(int(l) for l in cl) for cl in self.clauses))
        for ci, clause in enumerate(self.clauses):
            if not clause:
                raise ValueError(f"clause {ci} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"clause {ci}: literal {lit} out of range "
                                     f"for {self.num_vars} variables")


class DimacsError(ValueError):
    """Malformed DIMACS CNF text."""


def parse_dimacs(text: str) -> CnfFormula:
    """Standard DIMACS CNF: 'p cnf <vars> <clauses>' header, clauses as
    0-terminated signed integers, 'c' comment lines."""
    num_vars = declared_clauses = None
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed problem line: {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed problem line: {line!r}") from None
            continue
        if num_vars is None:
            raise DimacsError("clause data before 'p cnf' header")
        try:
            tokens.extend(int(t) for t in line.split())
        except ValueError:
            raise DimacsError(f"non-integer token in clause line: {line!r}") from None
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if not current:
                raise DimacsError("empty clause (bare 0 terminator)")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise DimacsError("trailing clause without 0 terminator")
    if len(clauses) != declared_clauses:
        raise DimacsError(f"header declares {declared_clauses} clauses, "
                          f"found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def build_gadget(cnf: CnfFormula) -> NetworkModel:
    """CNF -> 2-label ReLU network, label 0 iff every clause is satisfied."""
    n = cnf.num_vars
    m = len(cnf.clauses)
    if m == 0:
        vacuous = Dense(np.zeros((2, n)), np.array([0.0, -0.5]))
        return NetworkModel((n,), 2, (vacuous,))

    # literal layer: one unit per literal occurrence; x for positive
    # literals, 1 - x for negated ones
    total_lits = sum(len(cl) for cl in cnf.clauses)
    lit_w = np.zeros((total_lits, n))
    lit_b = np.zeros(total_lits)
    clause_rows: list[range] = []
    row = 0
    for clause in cnf.clauses:
        clause_rows.append(range(row, row + len(clause)))
        for lit in clause:
            var = abs(lit) - 1
            if lit > 0:
                lit_w[row, var] = 1.0
            else:
                lit_w[row, var] = -1.0
                lit_b[row] = 1.0
            row += 1

    # clause pre-activation 1 - sum(literals), clipped by ReLU
    pre_w = np.zeros((m, total_lits))
    pre_b = np.ones(m)
    for ci, rows in enumerate(clause_rows):
        pre_w[ci, list(rows)] = -1.0

    # o1 = sum_j (1 - relu_j) = m - sum(relu), o2 = m - 0.5 constant
    out_w = np.vstack([-np.ones(m), np.zeros(m)])
    out_b = np.array([float(m), m - 0.5])

    return NetworkModel((n,), 2, (Dense(lit_w, lit_b), Dense(pre_w, pre_b),
                                  Relu(), Dense(out_w, out_b)))


def _assignment_table(num_vars: int) -> np.ndarray:
    """All 2^n Boolean assignments, rows indexed by the binary value with
    variable 1 as the least significant bit."""
    if num_vars > ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive enumeration capped at "
                         f"{ENUMERATION_LIMIT} variables, got {num_vars}")
    codes = np.arange(2 ** num_vars, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(num_vars, dtype=np.uint32)) & 1).astype(np.float64)


def satisfies(cnf: CnfFormula, assignments: np.ndarray) -> np.ndarray:
    """Boolean per row of a {0,1}-valued assignment matrix."""
    assignments = np.asarray(assignments, dtype=np.float64)
    ok = np.ones(assignments.shape[0], dtype=bool)
    for clause in cnf.clauses:
        clause_ok = np.zeros(assignments.shape[0], dtype=bool)
        for lit in clause:
            val = assignments[:, abs(lit) - 1] > 0.5
            clause_ok |= val if lit > 0 else ~val
        ok &= clause_ok
    return ok


def count_satisfying(cnf: CnfFormula) -> int:
    """Exact satisfying-assignment count by full enumeration (n <= 20)."""
    return int(satisfies(cnf, _assignment_table(cnf.num_vars)).sum())


def corner_source(target: CnfFormula | NetworkModel, seed: int) -> IndicativeSource:
    """0/1 source: sample index i maps to a uniform corner of {0,1}^n and
    the outcome is 1 iff the gadget network labels it satisfied."""
    model = build_gadget(target) if isinstance(target, CnfFormula) else target
    n = model.input_shape[0]

    def source(indices: np.ndarray) -> np.ndarray:
        corners = (prng.uniforms(seed, indices, n) >= 0.5).astype(np.float64)
        return (predict(model, corners) == 0).astype(np.int64)

    return source


def threshold_classifier(n: int, coordinate: int, threshold: float) -> NetworkModel:
    """2-label model predicting label 0 iff x[coordinate] <= threshold
    (label 0 at equality via the smallest-index tie break)."""
    if not 0 <= coordinate < n:
        raise ValueError(f"coordinate {coordinate} out of range for n={n}")
    w = np.zeros((2, n))
    w[0, coordinate] = -1.0
    w[1, coordinate] = 1.0
    b = np.array([threshold, -threshold])
    return NetworkModel((n,), 2, (Dense(w, b),))


def threshold_fraction(center_coord: float, radius: float, threshold: float) -> float:
    """Exact fraction of an linf ball (projected on one coordinate) with
    x <= threshold: the closed-form success probability of the threshold
    classifier."""
    if radius == 0.0:
        return 1.0 if center_coord <= threshold else 0.0
    return float(np.clip((threshold - (center_coord - radius)) / (2.0 * radius), 0.0, 1.0))

"""The CNF-to-ReLU reduction behind `ewrobust gadget`.

The reduction turns a CNF formula into a 2-label ReLU network that outputs
label 0 exactly on satisfying Boolean assignments: per clause,
y = 1 - max(0, 1 - sum of literal values) with negated inputs realized as the
affine map 1 - x, then o1 = sum_j y_j against a constant o2 = m - 0.5.  The
share of Boolean corners the network labels 0 is then the formula's model
count over 2^n, which ties a robustness decision to #SAT (the paper's
PP-hardness argument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Dense, NetworkModel, Relu


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

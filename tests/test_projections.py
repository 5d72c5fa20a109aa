"""The projections oracle: fixed-column masks against the dense product.

``projections_suite`` classes each product ``P_mu P_nu`` from the bitmasks
of the columns the two composed maps fix.  The reference below is the
classification the suite made before masks: the kernel product of the two
maps, compared with zero and with each factor.  The faults check that the
oracle still fails on a wrong symbolic rule and on wrong matrices.
"""

import tracemalloc
from functools import reduce
from operator import matmul

import pytest

from wmfock import suites
from wmfock.fock import TruncationParams, basis_index, column_map, indices_up_to
from wmfock.sparse import PhaseMatrix
from wmfock.suites import _fixed_mask, projections_suite
from wmfock.words import NormalMonomial, ProductResult, evaluate_word

ORACLE = "product-rule-matches-matrix-oracle"


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def _dense_classes(n, max_degree, degree_cap):
    """Every pair's class from the product ``P_mu @ P_nu``; None when the
    product is neither zero nor one of its factors."""
    params = TruncationParams(n, max_degree)
    indices = indices_up_to(n, degree_cap)
    matrices = {mu: evaluate_word(NormalMonomial.projection(mu).word(), params)
                for mu in indices}
    classes = {}
    for mu in indices:
        for nu in indices:
            prod = matrices[mu] @ matrices[nu]
            if prod.is_zero():
                oracle = ProductResult.ZERO
            elif prod == matrices[mu]:
                oracle = ProductResult.LEFT_SURVIVES
            elif prod == matrices[nu]:
                oracle = ProductResult.RIGHT_SURVIVES
            else:
                oracle = None
            # mu = nu makes both classifications correct; prefer the symbolic one
            if mu == nu and oracle is not None:
                oracle = ProductResult.LEFT_SURVIVES
            classes[mu, nu] = oracle
    return classes


def test_fixed_mask_reads_diagonal_maps_only():
    assert _fixed_mask(PhaseMatrix((0, -1, 2))) == 0b101
    assert _fixed_mask(PhaseMatrix((-1, -1))) == 0
    assert _fixed_mask(PhaseMatrix((0, 0, 2))) is None  # column 1 leaks to row 0
    assert _fixed_mask(PhaseMatrix((1, 0))) is None


# (2, 3, 4) and (3, 3, 4) hold indices deeper than the truncation, whose maps are zero
@pytest.mark.parametrize("n, max_degree, degree_cap", [
    (2, 3, 4), (2, 4, 2), (2, 6, 4), (3, 3, 4), (3, 5, 3), (3, 6, 4),
    (4, 4, 2), (4, 6, 4)])
def test_mask_classes_match_the_dense_product(monkeypatch, n, max_degree, degree_cap):
    reference = _dense_classes(n, max_degree, degree_cap)
    assert None not in reference.values()
    asked = []

    def dense_product(mu, nu):
        asked.append((mu, nu))
        return reference[mu, nu]

    # the suite then fails exactly the pairs where masks and products disagree
    monkeypatch.setattr(suites, "projection_product", dense_product)
    report = projections_suite(n, max_degree, degree_cap)
    assert _check(report, ORACLE) == {"name": ORACLE, "cases": len(reference),
                                      "failures": 0, "firstFailure": None}
    assert asked == list(reference)


def test_oracle_catches_a_symbolic_fault(monkeypatch):
    monkeypatch.setattr(suites, "projection_product",
                        lambda mu, nu: ProductResult.LEFT_SURVIVES)
    check = _check(projections_suite(4, 6), ORACLE)
    assert (check["cases"], check["failures"]) == (4900, 4606)
    assert check["firstFailure"] == {"mu": [0, 0, 0, 0], "nu": [1, 0, 0, 0],
                                     "symbolic": "left", "matrix": "right"}


def test_oracle_keeps_one_failure_payload(monkeypatch):
    # every case but the diagonal fails; the count and first failure are the
    # ones the suite reported when it kept a payload per failure (6.5 MB here)
    monkeypatch.setattr(suites, "projection_product",
                        lambda mu, nu: ProductResult.LEFT_SURVIVES)
    tracemalloc.start()
    try:
        report = projections_suite(5, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check = _check(report, ORACLE)
    assert (check["cases"], check["failures"]) == (15876, 15330)
    assert check["firstFailure"] == {"mu": [0, 0, 0, 0, 0], "nu": [1, 0, 0, 0, 0],
                                     "symbolic": "left", "matrix": "right"}
    assert peak < 1_000_000


def test_antisymmetry_keeps_one_failure_payload(monkeypatch):
    monkeypatch.setattr(suites, "precedes_pivot", lambda nu, mu: 1)
    report = projections_suite(3, 6, degree_cap=3)
    m = len(indices_up_to(3, 3))
    check = _check(report, "order-antisymmetric")
    assert (check["cases"], check["failures"]) == (m * (m - 1), m * (m - 1))
    assert check["firstFailure"] == {"mu": [0, 0, 0], "nu": [1, 0, 0]}


def test_oracle_catches_a_leaking_letter(monkeypatch):
    # a1 also keeps the vacuum, so P_mu = a*(mu) a(mu) sends the vacuum to
    # the state mu whenever mu uses letter 1 alone: not a diagonal map.
    # These maps still multiply as the order says, so only their diagonal
    # shape gives the fault away.
    def leaky_word(word, params):
        def letter(sym):
            generator = column_map(params, sym.index, sym.starred)
            if sym.index == 1 and not sym.starred:
                return PhaseMatrix((0,) + generator.image[1:])
            return generator
        return reduce(matmul, [letter(sym) for sym in word],
                      PhaseMatrix.identity(params.basis_size))

    monkeypatch.setattr(suites, "evaluate_word", leaky_word)
    check = _check(projections_suite(4, 6), ORACLE)
    assert check["failures"] > 0
    assert check["firstFailure"] == {"mu": [0, 0, 0, 0], "nu": [1, 0, 0, 0],
                                     "symbolic": "right", "matrix": "mixed"}


class _ZeroSquares(PhaseMatrix):
    """A map whose kernel product is always zero."""

    __slots__ = ()

    def __matmul__(self, other):
        return PhaseMatrix((-1,) * self.dim)


def test_oracle_squares_each_projection_with_the_kernel(monkeypatch):
    # the masks decide every pair of distinct indices; only P_mu @ P_mu,
    # which must give P_mu back, runs the kernel product
    monkeypatch.setattr(suites, "evaluate_word",
                        lambda word, params: _ZeroSquares(evaluate_word(word, params).image))
    check = _check(projections_suite(3, 6, degree_cap=3), ORACLE)
    assert check["failures"] == len(indices_up_to(3, 3))
    assert check["firstFailure"] == {"mu": [0, 0, 0], "nu": [0, 0, 0],
                                     "symbolic": "left", "matrix": "mixed"}


def test_oracle_catches_a_dropped_fixed_column(monkeypatch):
    # P_0, the identity, loses the state e_1, which P_(1,0,0,0) also fixes
    def dropping_word(word, params):
        matrix = evaluate_word(word, params)
        if not word:
            pos = basis_index(params)[(1,) + (0,) * (params.n - 1)]
            matrix = PhaseMatrix(matrix.image[:pos] + (-1,) + matrix.image[pos + 1:])
        return matrix

    monkeypatch.setattr(suites, "evaluate_word", dropping_word)
    check = _check(projections_suite(4, 6), ORACLE)
    assert check["failures"] == 2
    assert check["firstFailure"] == {"mu": [0, 0, 0, 0], "nu": [1, 0, 0, 0],
                                     "symbolic": "right", "matrix": "mixed"}

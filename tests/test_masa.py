"""Conditional expectation and rank-one projections of the diagonal."""

from fractions import Fraction

import pytest

from wmfock.fock import TruncationParams, basis_index
from wmfock.masa import (expectation, expectation_of_monomial, matrix_rank_one,
                         rank_one_projection)
from wmfock.sparse import SparseOp
from wmfock.suites import indices_up_to, sample_words
from wmfock.words import (NormalForm, NormalMonomial, creation_guard, evaluate,
                          evaluate_word, parse_word, rewrite)


def test_expectation_extracts_diagonal():
    op = SparseOp(3, {(0, 0): 1, (0, 1): 5, (2, 2): Fraction(1, 3)})
    diag = expectation(op)
    assert diag == SparseOp(3, {(0, 0): Fraction(1), (2, 2): Fraction(1, 3)})
    assert diag.entries == {(0, 0): Fraction(1), (2, 2): Fraction(1, 3)}


def test_expectation_idempotent_and_unital():
    params = TruncationParams(2, 4)
    ident = SparseOp.identity(params.basis_size)
    assert expectation(ident) == ident
    op = evaluate_word(parse_word("a1* a2 a2* a1", 2), params)
    once = expectation(op)
    assert expectation(once) == once


def test_expectation_of_mixed_word_vanishes():
    # a single off-diagonal monomial has an empty diagonal
    params = TruncationParams(2, 6)
    op = evaluate_word(parse_word("a2* a1", 2), params)
    assert expectation(op) == SparseOp(params.basis_size)


def test_expectation_of_monomial_rule():
    diag = NormalMonomial((1, 1), False, (1, 1))
    assert expectation_of_monomial(diag) == NormalForm({diag: 1})
    flagged = NormalMonomial((0, 0), True, (0, 0))
    assert expectation_of_monomial(flagged) == NormalForm({flagged: 1})
    off = NormalMonomial((1, 0), False, (0, 1))
    assert not expectation_of_monomial(off)


@pytest.mark.parametrize("n", [2, 3])
def test_symbolic_expectation_matches_matrix_on_monomials(n):
    params = TruncationParams(n, 6)
    for nu in indices_up_to(n, 3):
        for mu in indices_up_to(n, 3):
            for flag in (False, True):
                monomial = NormalMonomial(nu, flag, mu)
                guard = creation_guard(monomial.word())
                cutoff = params.degree_prefix(params.max_degree - guard)
                matrix_side = {p: v for p, v in
                               expectation(evaluate_word(monomial.word(), params)).diagonal().items()
                               if p < cutoff}
                symbolic = evaluate(expectation_of_monomial(monomial), params)
                symbolic_side = {p: v for p, v in symbolic.diagonal().items() if p < cutoff}
                assert matrix_side == symbolic_side, (nu, flag, mu)


def test_symbolic_expectation_matches_matrix_on_words():
    params = TruncationParams(2, 6)
    for word in sample_words(2, 60, 7, seed=99):
        guard = creation_guard(word)
        cutoff = params.degree_prefix(params.max_degree - guard)
        direct = {p: v for p, v in
                  expectation(evaluate_word(word, params)).diagonal().items() if p < cutoff}
        symbolic = evaluate(rewrite(word, 2).diagonal_part(), params)
        assert direct == {p: v for p, v in symbolic.diagonal().items() if p < cutoff}


def test_rank_one_vacuum_case():
    nf = rank_one_projection((0, 0), 2)
    assert nf == NormalForm({NormalMonomial((0, 0), True, (0, 0)): 1})
    params = TruncationParams(2, 4)
    assert evaluate(nf, params) == matrix_rank_one((0, 0), params)


def test_rank_one_subtracts_only_slots_up_to_the_lowest_letter():
    nf = rank_one_projection((1, 1), 2)
    # deepening the second slot leaves the range of P_(1,1): not subtracted
    assert nf == NormalForm({NormalMonomial((1, 1), False, (1, 1)): 1,
                             NormalMonomial((2, 1), False, (2, 1)): -1})
    nf3 = rank_one_projection((0, 0, 2), 3)
    assert len(nf3) == 4  # lowest letter 3: slots 1, 2, 3 all subtracted


@pytest.mark.parametrize("n,cap,deg", [(2, 5, 6), (3, 5, 6)])
def test_rank_one_evaluates_to_matrix_unit(n, cap, deg):
    params = TruncationParams(n, deg)
    for mu in indices_up_to(n, cap):
        value = evaluate(rank_one_projection(mu, n), params)
        assert value == matrix_rank_one(mu, params), mu
        assert value == value.transpose()
        assert value @ value == value


def test_all_slots_subtraction_is_not_a_projection():
    # subtracting every deepened slot (not only those dominated by P_mu)
    # over-corrects: the result has a -1 eigenvalue and is not idempotent
    params = TruncationParams(2, 6)
    combo = NormalForm({
        NormalMonomial((1, 1), False, (1, 1)): Fraction(1),
        NormalMonomial((2, 1), False, (2, 1)): Fraction(-1),
        NormalMonomial((1, 2), False, (1, 2)): Fraction(-1),
    })
    op = evaluate(combo, params)
    pos = basis_index(params)[(1, 2)]
    assert op.entries[(pos, pos)] == Fraction(-1)
    assert op @ op != op


def test_diagonal_completeness():
    params = TruncationParams(2, 5)
    for d in range(params.max_degree):
        total = evaluate(sum((rank_one_projection(mu, 2) for mu in indices_up_to(2, d)),
                             NormalForm()), params)
        cutoff = params.degree_prefix(d)
        assert total == SparseOp(params.basis_size,
                                 {(p, p): Fraction(1) for p in range(cutoff)})


def test_rank_one_rejects_bad_indices():
    with pytest.raises(ValueError):
        rank_one_projection((1, -1), 2)
    with pytest.raises(ValueError):
        rank_one_projection((1, 0, 0), 2)

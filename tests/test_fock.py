"""Basis enumeration and generator matrices on the truncated model."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from wmfock.fock import (Tally, TruncationParams, basis_index, check_guarded_identity,
                         column_map, enumerate_basis, indices_up_to, iter_ranked_blocks,
                         iter_ranked_indices, run_columns)
from wmfock.sparse import PhaseMatrix, SparseOp, frac_str
from wmfock.spectrum import r_value
from wmfock.words import GeneratorSymbol, creation_guard, evaluate_word, parse_word


def to_op(matrix):
    """The 0/1 matrix of an order-1 map."""
    return SparseOp.from_terms(matrix.dim, [(1, matrix)])


def weak_compositions(n, cap):
    """Independent stars-and-bars oracle: brute-force enumeration."""
    return [mu for mu in product(range(cap + 1), repeat=n) if sum(mu) <= cap]


def _compositions(total, parts):
    """Reference walk, independent of the ranked one: count vectors of fixed
    degree, ascending in the lexicographic order of the reversed tuple
    (mu_n, ..., mu_1)."""
    if parts == 1:
        yield (total,)
        return
    for top in range(total + 1):
        for rest in _compositions(total - top, parts - 1):
            yield rest + (top,)


def reference_indices(n, cap):
    return [mu for d in range(cap + 1) for mu in _compositions(d, n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ranked_walk_follows_the_reference_order(n):
    # n = 1 is the path of a boundary tail above the next-to-last pivot
    for cap in range(9):
        ranked = list(iter_ranked_indices(n, cap))
        assert [mu for mu, _ in ranked] == reference_indices(n, cap)
        for mu, ranks in ranked:
            assert ranks == tuple(r_value(mu, k) for k in range(1, n + 1))
        assert indices_up_to(n, cap) == reference_indices(n, cap)
        if n >= 2 and cap >= 1:
            assert list(enumerate_basis(TruncationParams(n, cap))) == reference_indices(n, cap)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ranked_runs_expand_to_the_walk(n):
    # each run spelled out here, letter 2 climbing from 0 (n = 1: one vector),
    # with its exponents from r_value rather than from the run; for n >= 2,
    # run_columns must give the same rows
    for cap in range(9):
        expanded = []
        for run in iter_ranked_blocks(n, cap):
            total, tail, upper, upper_ranks = run
            assert len(upper) == max(n - 2, 0) and tail == sum(upper)
            rows = []
            for top in range(total + 1 if n > 1 else 1):
                mu = ((total - top, top) + upper)[:n]
                ranks = tuple(r_value(mu, k) for k in range(1, n + 1))
                assert ranks[2:] == upper_ranks
                rows.append((mu, ranks))
            if n > 1:
                letters, ranks = run_columns(run)
                assert list(zip(zip(*letters), zip(*ranks))) == rows
            expanded.extend(rows)
        assert expanded == list(iter_ranked_indices(n, cap))
        assert [mu for mu, _ in expanded] == reference_indices(n, cap)


def test_basis_count_small():
    # frozen from the brute-force count: 6 indices for n=2, D=2
    assert len(weak_compositions(2, 2)) == 6
    params = TruncationParams(2, 2)
    assert params.basis_size == 6
    assert enumerate_basis(params) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_basis_count_deeper():
    # frozen from the brute-force count: 28 indices for n=2, D=6
    assert len(weak_compositions(2, 6)) == 28
    assert TruncationParams(2, 6).basis_size == 28


@pytest.mark.parametrize("n,cap", [(2, 4), (3, 3), (4, 2)])
def test_basis_matches_brute_force(n, cap):
    params = TruncationParams(n, cap)
    assert sorted(enumerate_basis(params)) == sorted(weak_compositions(n, cap))
    assert params.basis_size == comb(cap + n, n)


def test_basis_order_graded_then_reversed_lex():
    params = TruncationParams(3, 2)
    basis = enumerate_basis(params)
    assert basis[0] == (0, 0, 0)
    keys = [(sum(mu), tuple(reversed(mu))) for mu in basis]
    assert keys == sorted(keys)


def test_degree_prefix():
    params = TruncationParams(2, 6)
    assert params.degree_prefix(0) == 1
    assert params.degree_prefix(2) == 6
    assert params.degree_prefix(6) == 28
    assert params.degree_prefix(99) == 28
    assert params.degree_prefix(-1) == 0


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        TruncationParams(1, 4)
    with pytest.raises(ValueError):
        TruncationParams(2, 0)


def test_annihilator_actions():
    params = TruncationParams(2, 3)
    idx = basis_index(params)
    a1 = column_map(params, 1, False).image
    a2 = column_map(params, 2, False).image
    # a letter matching the top is stripped
    assert a1[idx[(1, 0)]] == idx[(0, 0)]
    assert a2[idx[(1, 1)]] == idx[(1, 0)]
    # a mismatched top letter kills the state
    assert a1[idx[(1, 1)]] == -1
    assert a1[idx[(0, 0)]] == -1


def test_creator_actions():
    params = TruncationParams(2, 2)
    idx = basis_index(params)
    c1 = column_map(params, 1, True).image
    c2 = column_map(params, 2, True).image
    # creation below the current top letter is forbidden
    assert c1[idx[(0, 1)]] == -1
    assert c2[idx[(1, 0)]] == idx[(1, 1)]
    # truncation boundary: degree 3 result is dropped at D = 2
    assert c2[idx[(1, 1)]] == -1


def test_index_range_errors():
    params = TruncationParams(2, 2)
    with pytest.raises(ValueError):
        column_map(params, 3, False)
    with pytest.raises(ValueError):
        column_map(params, 0, True)
    with pytest.raises(ValueError):
        column_map(params, -1, False)


def test_adjoint_is_transpose():
    params = TruncationParams(3, 4)
    for i in range(1, 4):
        creator, annihilator = column_map(params, i, True), column_map(params, i, False)
        assert creator == annihilator.adjoint()
        assert to_op(creator) == to_op(annihilator).transpose()


def test_generators_are_partial_permutations():
    params = TruncationParams(3, 4)
    ops = [to_op(column_map(params, i, False)) for i in range(4)]
    ops.extend(to_op(column_map(params, i, True)) for i in range(1, 4))
    for op in ops:
        assert all(v == Fraction(1) for v in op.entries.values())
        rows = [r for r, _ in op.entries]
        cols = [c for _, c in op.entries]
        assert len(cols) == len(set(cols))  # at most one nonzero per column
        assert len(rows) == len(set(rows))  # and per row


def test_vacuum_projection_shape():
    params = TruncationParams(2, 4)
    vac = column_map(params, 0, False)
    assert vac.image == (0,) + (-1,) * (params.basis_size - 1)
    assert to_op(vac).entries == {(0, 0): Fraction(1)}


@pytest.mark.parametrize("n", [2, 3])
def test_guarded_identities_pass(n):
    params = TruncationParams(n, 6)
    size = params.basis_size
    ident = SparseOp.identity(size)
    a = [column_map(params, i, False) for i in range(n + 1)]
    c = [None] + [column_map(params, i, True) for i in range(1, n + 1)]
    # the top creator is an isometry for the annihilator side: A_n A_n^T = I
    cases, tally, _ = check_guarded_identity(params, to_op(a[n] @ c[n]), ident, 1)
    assert not tally.failures and cases == params.degree_prefix(5)
    # support decomposition for i = 1
    lhs = to_op(a[1] @ c[1])
    rhs = SparseOp.from_terms(size, [(1, a[0]), (1, c[1] @ a[1])])
    _, tally, _ = check_guarded_identity(params, lhs, rhs, 1)
    assert not tally.failures
    # mixed creator pair vanishes on the whole space
    lhs = to_op(a[1] @ c[2])
    _, tally, _ = check_guarded_identity(params, lhs, SparseOp(size), 1)
    assert not tally.failures


def test_truncation_artifact_is_flagged_not_failed():
    params = TruncationParams(2, 3)
    ident = SparseOp.identity(params.basis_size)
    lhs = to_op(column_map(params, 2, False) @ column_map(params, 2, True))
    _, tally, artifact = check_guarded_identity(params, lhs, ident, 1)
    assert not tally.failures
    assert artifact  # the cut top layer differs, by construction


def test_failure_reports_first_bad_basis_vector():
    params = TruncationParams(2, 3)
    ident = SparseOp.identity(params.basis_size)
    zero = SparseOp(params.basis_size)
    _, tally, _ = check_guarded_identity(params, ident, zero, 0)
    assert tally.failures == 1
    assert tally.first["basis_position"] == 0
    assert tally.first["multi_index"] == [0, 0]


def test_guarded_identity_validation():
    params = TruncationParams(2, 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        check_guarded_identity(params, SparseOp(4), SparseOp(5), 0)
    # both sides agree, but not with the basis of (2, 3), which has 10 states
    with pytest.raises(ValueError, match="not built over the given parameters"):
        check_guarded_identity(params, SparseOp(9), SparseOp(9), 0)
    with pytest.raises(ValueError, match="guard must lie"):
        check_guarded_identity(params, SparseOp(10), SparseOp(10), 7)
    with pytest.raises(ValueError, match="guard must lie"):
        check_guarded_identity(params, SparseOp(10), SparseOp(10), -1)


def _column_by_column(params, lhs, rhs, guard):
    """The column-by-column loop that check_guarded_identity replaced, as
    (cases, failures, first payload, artifact)."""
    cutoff = params.degree_prefix(params.max_degree - guard)
    lhs_cols, rhs_cols = {}, {}
    for op, cols in ((lhs, lhs_cols), (rhs, rhs_cols)):
        for (r, c), v in op.entries.items():
            cols.setdefault(c, {})[r] = v
    for col in range(cutoff):
        left, right = lhs_cols.get(col, {}), rhs_cols.get(col, {})
        if left != right:
            return cutoff, 1, {
                "basis_position": col,
                "multi_index": list(enumerate_basis(params)[col]),
                "lhs_column": [[r, frac_str(v)] for r, v in sorted(left.items())],
                "rhs_column": [[r, frac_str(v)] for r, v in sorted(right.items())],
            }, False
    artifact = any(lhs_cols.get(col, {}) != rhs_cols.get(col, {})
                   for col in range(cutoff, params.basis_size))
    return cutoff, 0, None, artifact


_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def guarded_pairs(draw):
    """Two combinations of random order-1 maps over a small basis, and a guard.

    Both sides share some terms.  Each side then adds terms whose live
    columns lie in one region: the guarded band, the cut layers above it,
    or anywhere.  A term may come with its negation, so its entries cancel.
    """
    n, max_degree = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    params = TruncationParams(n, max_degree)
    guard = draw(st.integers(0, max_degree))  # guard == max_degree: the vacuum column only
    dim, cutoff = params.basis_size, params.degree_prefix(max_degree - guard)

    def terms(columns):
        out = []
        for _ in range(draw(st.integers(0, 2))):
            image = [draw(st.integers(-1, dim - 1)) if c in columns else -1 for c in range(dim)]
            coeff = draw(_COEFFS)
            out.append((coeff, PhaseMatrix(image)))
            if draw(st.booleans()):
                out.append((-coeff, PhaseMatrix(image)))
        return out

    regions = [range(cutoff), range(cutoff, dim), range(dim)]
    shared = terms(range(dim))
    sides = [SparseOp.from_terms(dim, shared + terms(draw(st.sampled_from(regions))))
             for _ in range(2)]
    return params, sides[0], sides[1], guard


@settings(max_examples=400, deadline=None)
@given(guarded_pairs())
def test_guarded_identity_matches_the_column_by_column_loop(case):
    params, lhs, rhs, guard = case
    cases, tally, artifact = check_guarded_identity(params, lhs, rhs, guard)
    assert (cases, tally.failures, tally.first, artifact) == _column_by_column(
        params, lhs, rhs, guard)


def test_tally_counts_every_failure_and_builds_only_the_first_payload():
    tally = Tally()
    assert (tally.failures, tally.first) == (0, None)
    built = []
    for k in range(3):
        tally.fail(lambda: built.append(k) or {"k": k})
    assert (tally.failures, tally.first, built) == (3, {"k": 0}, [0])


# the generators over n = 3 letters, and words of up to five of them
_SYMBOLS = [GeneratorSymbol(0)] + [GeneratorSymbol(i, s) for i in (1, 2, 3) for s in (False, True)]
_WORDS = st.lists(st.sampled_from(_SYMBOLS), min_size=1, max_size=5).map(tuple)
_EXACT_DEGREE = 9


def _agree(words, max_degree, band):
    """Whether the words' matrices at ``max_degree`` agree on every state of
    degree ``<= band``."""
    params = TruncationParams(3, max_degree)
    cutoff = params.degree_prefix(band)
    left, right = (evaluate_word(word, params).image[:cutoff] for word in words)
    return left == right


def _lemma_case(words):
    """The lemma's premise and its conclusion for two words: they agree on
    degree ``<= A + 1`` at a truncation deep enough for both guards, and on
    the exact band of max_degree 9."""
    annihilators = max(sum(1 for s in word if s.index and not s.starred) for word in words)
    guard = max(creation_guard(word) for word in words)
    premise = _agree(words, annihilators + 1 + guard, annihilators + 1)
    return premise, _agree(words, _EXACT_DEGREE, _EXACT_DEGREE - guard)


@settings(max_examples=200, deadline=None)
@given(left=_WORDS, right=_WORDS)
def test_agreement_up_to_degree_a_plus_one_is_untruncated(left, right):
    premise, conclusion = _lemma_case((left, right))
    assume(premise)
    assert conclusion


def test_lemma_bound_a_plus_one_is_tight():
    # a0 a3 and a3 (A = 1) agree up to degree 1 and differ on e3 (x) e3
    words = (parse_word("a0 a3", 3), parse_word("a3", 3))
    assert _agree(words, 3, 1) and not _agree(words, 3, 2)
    params = TruncationParams(3, 3)
    index = basis_index(params)
    e33 = index[(0, 0, 2)]
    assert [evaluate_word(word, params).image[e33] for word in words] == [-1, index[(0, 0, 1)]]
    # so the premise must read degree A + 1: at degree A it would hold
    assert _lemma_case(words) == (False, False)

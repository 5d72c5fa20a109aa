"""Parsing, rewriting, the projection order, and the matrix oracle."""

from fractions import Fraction
from itertools import product as cartesian

import pytest
from hypothesis import given, settings, strategies as st

from wmfock.fock import TruncationParams, basis_index, column_map, indices_up_to
from wmfock.sparse import SparseOp
from wmfock.words import (GeneratorIndexError, GeneratorSymbol, NormalForm,
                          NormalMonomial, ProductResult, WordSyntaxError,
                          creation_guard, evaluate, evaluate_word, parse_word,
                          precedes, precedes_pivot, projection_product, rewrite,
                          word_text, _code, _compose_codes, _monomial_from_codes,
                          _queue_rewrite, _validate_indices)


def to_op(matrix):
    """The 0/1 matrix of an order-1 map."""
    return SparseOp.from_terms(matrix.dim, [(1, matrix)])


def rewrite_whole_word(word, n):
    """One-sweep reduction of the full word (cross-check for ``rewrite``)."""
    word = tuple(word)
    _validate_indices(word, n)
    reduced = _queue_rewrite(tuple(_code(sym) for sym in word), n)
    return NormalForm({_monomial_from_codes(w, n): c for w, c in reduced.items()})


# ---------------------------------------------------------------------------
# symbols and parsing
# ---------------------------------------------------------------------------


def test_symbol_validation():
    with pytest.raises(ValueError):
        GeneratorSymbol(-1)
    with pytest.raises(ValueError):
        GeneratorSymbol(0, True)
    assert str(GeneratorSymbol(2, True)) == "a2*"


def test_parse_simple():
    assert parse_word("a1 a2*", 2) == (GeneratorSymbol(1), GeneratorSymbol(2, True))


def test_parse_normalizes_starred_vacuum():
    assert parse_word("a0*", 2) == (GeneratorSymbol(0),)


def test_parse_index_out_of_range():
    with pytest.raises(GeneratorIndexError):
        parse_word("a7", 2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a1 b2", 2)
    assert err.value.position == 3
    with pytest.raises(WordSyntaxError):
        parse_word("a1a2", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("   ", 2)


def test_parse_multidigit_indices():
    word = parse_word("a10 a10*", 12)
    assert word[0].index == 10 and word[1].starred


def test_word_text_round_trip():
    word = parse_word("a2* a0 a1 a2", 2)
    assert parse_word(word_text(word), 2) == word


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------


def test_rewrite_mixed_pair_is_zero():
    assert not rewrite(parse_word("a1 a2*", 2), 2)


def test_rewrite_support_decomposition():
    nf = rewrite(parse_word("a1 a1*", 2), 2)
    expected = NormalForm({
        NormalMonomial((0, 0), True, (0, 0)): Fraction(1),
        NormalMonomial((1, 0), False, (1, 0)): Fraction(1),
    })
    assert nf == expected
    assert nf.render() == "1/1 · P0 + 1/1 · a*(1,0) a(1,0)"


def test_rewrite_top_support_is_identity():
    nf = rewrite(parse_word("a2 a2*", 2), 2)
    assert nf == NormalForm({NormalMonomial((0, 0), False, (0, 0)): 1})
    assert nf.render() == "1/1 · I"


def test_rewrite_projection_square_is_idempotent():
    # P_(1,1) written out as an eight-symbol word, squared.  The R2 cascade
    # produces the equivalent split form P0_(1,1) + P_(2,1); its matrix is
    # exactly the matrix of P_(1,1), confirming idempotence.
    word = parse_word("a2* a1* a1 a2 a2* a1* a1 a2", 2)
    nf = rewrite(word, 2)
    assert nf == NormalForm({
        NormalMonomial((1, 1), True, (1, 1)): Fraction(1),
        NormalMonomial((2, 1), False, (2, 1)): Fraction(1),
    })
    params = TruncationParams(2, 6)
    single = evaluate(NormalForm({NormalMonomial((1, 1), False, (1, 1)): 1}), params)
    assert evaluate(nf, params) == single
    assert single @ single == single


def test_rewrite_empty_word_is_identity():
    assert rewrite((), 2) == NormalForm({NormalMonomial((0, 0), False, (0, 0)): 1})


def test_rewrite_vacuum_rules():
    n = 2
    assert rewrite(parse_word("a0 a0", n), n) == NormalForm({NormalMonomial((0, 0), True, (0, 0)): 1})
    assert not rewrite(parse_word("a1 a0", n), n)
    assert not rewrite(parse_word("a0 a1*", n), n)
    # a0 a1 and a1* a0 are already normal
    nf = rewrite(parse_word("a0 a1", n), n)
    assert nf == NormalForm({NormalMonomial((0, 0), True, (1, 0)): 1})


def test_rewrite_rejects_out_of_range_indices():
    with pytest.raises(GeneratorIndexError):
        rewrite((GeneratorSymbol(3),), 2)


def _symbols_strategy(n):
    specs = [(0, False)] + [(i, s) for i in range(1, n + 1) for s in (False, True)]
    return st.sampled_from([GeneratorSymbol(i, s) for i, s in specs])


@settings(max_examples=150, deadline=None)
@given(st.lists(_symbols_strategy(2), min_size=0, max_size=10))
def test_fold_agrees_with_one_sweep_engine(symbols):
    word = tuple(symbols)
    assert rewrite(word, 2) == rewrite_whole_word(word, 2)


@settings(max_examples=150, deadline=None)
@given(st.lists(_symbols_strategy(2), min_size=0, max_size=8))
def test_soundness_against_matrix_oracle(symbols):
    word = tuple(symbols)
    params = TruncationParams(2, 8)
    guard = creation_guard(word)
    cutoff = params.degree_prefix(params.max_degree - guard)
    direct = to_op(evaluate_word(word, params)).restrict_columns(cutoff)
    reduced = evaluate(rewrite(word, 2), params, cutoff)
    assert direct == reduced
    assert reduced == evaluate(rewrite(word, 2), params).restrict_columns(cutoff)


@settings(max_examples=60, deadline=None)
@given(st.lists(_symbols_strategy(3), min_size=0, max_size=16))
def test_rewriting_terminates_on_long_words(symbols):
    nf = rewrite(tuple(symbols), 3)
    for monomial, coeff in nf.items():
        assert coeff != 0
        assert monomial.n == 3


def test_normal_form_algebra():
    one = NormalForm({NormalMonomial((0, 0), False, (0, 0)): 1})
    vac = NormalForm({NormalMonomial((0, 0), True, (0, 0)): Fraction(1, 2)})
    total = one + vac
    assert dict(total.items())[NormalMonomial((0, 0), False, (0, 0))] == 1
    assert total + NormalForm({NormalMonomial((0, 0), False, (0, 0)): -1}) == vac
    assert not NormalForm({m: 0 * c for m, c in total.items()})
    assert vac.diagonal_part() == vac
    off = NormalForm({NormalMonomial((1, 0), False, (0, 1)): 1})
    assert not off.diagonal_part()
    assert NormalForm().render() == "0"


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def test_creation_guard_values():
    n = 2
    assert creation_guard(parse_word("a1 a1*", n)) == 1
    assert creation_guard(parse_word("a1* a1", n)) == 0
    assert creation_guard(parse_word("a2* a2*", n)) == 2
    assert creation_guard(parse_word("a1 a2", n)) == 0
    # survivors of the vacuum projection have degree zero, so annihilators
    # already absorbed the excursion of the trailing creator
    assert creation_guard(parse_word("a2* a0 a1 a1", n)) == 0
    assert creation_guard(parse_word("a2* a0", n)) == 1
    assert creation_guard(()) == 0


# ---------------------------------------------------------------------------
# projection order and products
# ---------------------------------------------------------------------------


def precedes_pivot_oracle(nu, mu):
    """Reference order test: a nested scan over every candidate pivot.

    Tries each letter k in turn for equal tails above it, a strict gap at
    it and nothing of ``nu`` below it.  The library kernel never calls it.
    """
    if len(nu) != len(mu):
        raise ValueError("length mismatch: %d vs %d" % (len(nu), len(mu)))
    if tuple(nu) == tuple(mu):
        return None
    n = len(mu)
    for k in range(1, n + 1):
        if (nu[k - 1] < mu[k - 1]
                and all(nu[j] == mu[j] for j in range(k, n))
                and all(nu[j] == 0 for j in range(k - 1))):
            return k
    return None


def projection_product_oracle(mu, nu):
    """Reference product rule built on two oracle order tests."""
    if tuple(mu) == tuple(nu) or precedes_pivot_oracle(nu, mu) is not None:
        return ProductResult.LEFT_SURVIVES
    if precedes_pivot_oracle(mu, nu) is not None:
        return ProductResult.RIGHT_SURVIVES
    return ProductResult.ZERO


def _assert_kernel_matches_oracle(mu, nu):
    pivot = precedes_pivot_oracle(nu, mu)
    assert precedes_pivot(nu, mu) == pivot
    assert precedes(nu, mu) is (pivot is not None)
    assert projection_product(mu, nu) is projection_product_oracle(mu, nu)


def test_precedes_examples():
    assert precedes((0, 1, 2), (2, 3, 2))
    assert precedes_pivot((0, 1, 2), (2, 3, 2)) == 2
    assert not precedes((1, 1), (0, 2))
    assert not precedes((1, 1), (1, 1))
    assert precedes((0, 0), (0, 3))
    assert precedes_pivot((0, 0), (0, 3)) == 2


def test_precedes_pivot_covers_full_letter_range():
    # the pivot can be any letter, including 1 and n
    assert precedes_pivot((0, 1), (1, 1)) == 1
    assert precedes_pivot((0, 0), (0, 1)) == 2


def test_precedes_length_mismatch():
    with pytest.raises(ValueError):
        precedes((1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        precedes_pivot((1, 0, 0), (1, 0))


def test_projection_product_length_mismatch():
    with pytest.raises(ValueError):
        projection_product((1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        projection_product((0, 0, 1), (0, 1))


@pytest.mark.parametrize("n,cap", [(2, 6), (3, 5), (4, 4), (5, 3)])
def test_order_kernel_matches_oracle_exhaustive(n, cap):
    indices = indices_up_to(n, cap)
    for mu in indices:
        for nu in indices:
            _assert_kernel_matches_oracle(mu, nu)


@st.composite
def _count_vector_pairs(draw):
    # nu copies a random top tail of mu and is mostly zero below it, so
    # comparable pairs are common; either side may be a list or a tuple
    n = draw(st.integers(2, 6))
    mu = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    shared = draw(st.integers(0, n))
    head = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2, 5)),
                         min_size=n - shared, max_size=n - shared))
    nu = head + mu[n - shared:]
    return draw(st.sampled_from((list, tuple)))(mu), draw(st.sampled_from((list, tuple)))(nu)


@settings(max_examples=300, deadline=None)
@given(_count_vector_pairs())
def test_order_kernel_matches_oracle_on_random_vectors(pair):
    mu, nu = pair
    _assert_kernel_matches_oracle(mu, nu)
    _assert_kernel_matches_oracle(nu, mu)
    _assert_kernel_matches_oracle(mu, list(mu))


def test_projection_product_examples():
    assert projection_product((2, 3, 2), (0, 1, 2)) is ProductResult.LEFT_SURVIVES
    assert projection_product((0, 2), (1, 1)) is ProductResult.ZERO
    assert projection_product((1, 2), (1, 2)) is ProductResult.LEFT_SURVIVES
    assert projection_product((0, 1, 2), (2, 3, 2)) is ProductResult.RIGHT_SURVIVES


@pytest.mark.parametrize("n,cap", [(2, 5), (3, 5)])
def test_precedes_antisymmetric_exhaustive(n, cap):
    indices = indices_up_to(n, cap)
    for mu in indices:
        for nu in indices:
            if mu != nu:
                assert not (precedes(mu, nu) and precedes(nu, mu))


def test_projection_product_matches_matrices_spot():
    params = TruncationParams(3, 8)
    mu, nu = (2, 3, 2), (0, 1, 2)
    pm = evaluate_word(NormalMonomial(mu, False, mu).word(), params)
    pn = evaluate_word(NormalMonomial(nu, False, nu).word(), params)
    assert pm @ pn == pm
    params2 = TruncationParams(2, 6)
    pm = evaluate_word(NormalMonomial((0, 2), False, (0, 2)).word(), params2)
    pn = evaluate_word(NormalMonomial((1, 1), False, (1, 1)).word(), params2)
    assert (pm @ pn).is_zero()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_identity_and_vacuum():
    params = TruncationParams(2, 4)
    assert evaluate(NormalForm({NormalMonomial((0, 0), False, (0, 0)): 1}), params) == \
        SparseOp.identity(params.basis_size)
    vac = evaluate(NormalForm({NormalMonomial((0, 0), True, (0, 0)): 1}), params)
    assert vac.entries == {(0, 0): Fraction(1)}


def test_evaluate_rewritten_word_matches_direct_product():
    params = TruncationParams(2, 6)
    word = parse_word("a1 a1*", 2)
    cutoff = params.degree_prefix(5)
    assert evaluate(rewrite(word, 2), params, cutoff) == \
        to_op(evaluate_word(word, params)).restrict_columns(cutoff)


def test_point_projection_monomial_is_matrix_unit():
    params = TruncationParams(2, 5)
    idx = basis_index(params)[(2, 1)]
    op = evaluate(NormalForm({NormalMonomial((2, 1), True, (2, 1)): 1}), params)
    assert op.entries == {(idx, idx): Fraction(1)}


def test_evaluate_dimension_mismatch():
    params = TruncationParams(2, 3)
    with pytest.raises(ValueError):
        evaluate(NormalForm({NormalMonomial((0, 0, 0), False, (0, 0, 0)): 1}), params)


# ---------------------------------------------------------------------------
# word composition against independent products
# ---------------------------------------------------------------------------


def compose_codes_oracle(codes, params):
    """Reference: walk each column through the generator maps, right to left."""
    maps = [column_map(params, code >> 1, bool(code & 1) and (code >> 1) > 0).image
            for code in codes]
    out = []
    for col in range(params.basis_size):
        row = col
        for cmap in reversed(maps):
            row = cmap[row]
            if row < 0:
                break
        out.append(row)
    return tuple(out)


def _generator_matrix(params, sym):
    return to_op(column_map(params, sym.index, sym.starred))


def test_evaluate_word_matches_generator_products_exhaustive():
    params = TruncationParams(2, 5)
    letters = [GeneratorSymbol(0)] + [GeneratorSymbol(i, s) for i in (1, 2)
                                      for s in (False, True)]
    for length in range(1, 5):
        for word in cartesian(letters, repeat=length):
            product = _generator_matrix(params, word[0])
            for sym in word[1:]:
                product = product @ _generator_matrix(params, sym)
            assert to_op(evaluate_word(word, params)) == product, word_text(word)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_symbols_strategy(n), min_size=0, max_size=12))))
def test_compose_codes_matches_column_walk(case):
    n, symbols = case
    params = TruncationParams(n, 5)
    codes = tuple(_code(sym) for sym in symbols)
    composed = _compose_codes(codes, params)
    assert composed.order == 1
    assert composed.image == compose_codes_oracle(codes, params)
    assert not any(composed.phase)

"""Suite-level behavior: dispatch, degenerate configurations, reports."""

import concurrent.futures
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest

from wmfock import spectrum, suites
from wmfock.fock import TruncationParams, column_map, indices_up_to
from wmfock.sparse import PhaseMatrix
from wmfock.suites import (SUITE_NAMES, ck_suite, gauge_suite, masa_suite,
                           monomial_diagonals, projections_suite,
                           relations_suite, run_all, run_suite,
                           sample_words, soundness_check, spectrum_suite,
                           total_failures)
from wmfock.words import NormalForm, NormalMonomial, _compose_codes, evaluate_word, rewrite

HALF = Fraction(1, 2)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_clean_at_desk_scale(name):
    report = run_suite(name, 2, 6, HALF, roots=(4,))
    assert total_failures(report) == 0
    assert report["suite"] == name
    for check in report["checks"]:
        assert check["firstFailure"] is None


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", 2, 6, HALF)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs calls inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_run_all_clamps_jobs_to_suite_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    pooled = run_all(2, 3, HALF, roots=(2,), jobs=5000)
    assert _InlinePool.sizes == [len(SUITE_NAMES)]
    run_all(2, 3, HALF, roots=(2,), jobs=3)
    assert _InlinePool.sizes == [len(SUITE_NAMES), 3]
    assert pooled == run_all(2, 3, HALF, roots=(2,), jobs=1)
    assert _InlinePool.sizes == [len(SUITE_NAMES), 3]


def test_run_all_prefixes_check_names():
    report = run_all(2, 4, HALF, roots=(2,))
    assert total_failures(report) == 0
    assert all("/" in check["name"] for check in report["checks"])


@pytest.mark.parametrize("n", [2, 3])
def test_minimal_degree_configurations_are_honest(n):
    # at max degree 1 some bands are empty and the incidence matrix is not
    # separable; those checks must report zero cases, not fake passes
    relations = relations_suite(n, 1)
    empty = [c for c in relations["checks"] if c["cases"] == 0]
    assert empty and all("band empty" in c.get("note", "") for c in empty)
    assert total_failures(relations) == 0
    ck = ck_suite(n, 1)
    incidence = next(c for c in ck["checks"]
                     if c["name"] == "incidence-matrix-lower-triangular")
    assert incidence["cases"] == 0 and "needs max degree" in incidence["note"]
    assert total_failures(ck) == 0


def test_incidence_matrix_realized_from_degree_two():
    ck = ck_suite(2, 2)
    incidence = next(c for c in ck["checks"]
                     if c["name"] == "incidence-matrix-lower-triangular")
    assert incidence["realizedMatrix"] == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]


def test_masa_suite_counts():
    report = masa_suite(2, 6, degree_cap=3, rank_cap=4, samples=40)
    rank_check = next(c for c in report["checks"] if c["name"] == "rank-one-projections")
    assert rank_check["cases"] == 15  # indices of degree <= 4 over two letters
    words_check = next(c for c in report["checks"]
                       if c["name"] == "expectation-of-random-words")
    assert words_check["cases"] == 40
    assert total_failures(report) == 0


def monomial_products(params, indices):
    """Oracle: every normal monomial ``a*(nu) [P0] a(mu)`` over ``indices``
    with the full direct product of its generator maps, ``nu``-major, then
    ``mu``, then without and with ``P0``; each block is composed once and a
    monomial costs one gather, or two with ``P0`` between the blocks."""
    zero = (0,) * params.n
    creation = [_compose_codes(NormalMonomial(nu, False, zero).codes(), params)
                for nu in indices]
    annihilation = [_compose_codes(NormalMonomial(zero, False, mu).codes(), params)
                    for mu in indices]
    vacuum = column_map(params, 0, False)
    for nu, create in zip(indices, creation):
        for mu, annihilate in zip(indices, annihilation):
            yield NormalMonomial(nu, False, mu), create @ annihilate
            yield NormalMonomial(nu, True, mu), create @ (vacuum @ annihilate)


@pytest.mark.parametrize("n,max_degree", [(2, 5), (3, 4)])
def test_block_products_match_word_products(n, max_degree):
    params = TruncationParams(n, max_degree)
    indices = indices_up_to(n, max_degree)
    pairs = list(monomial_products(params, indices))
    assert [m for m, _ in pairs] == [NormalMonomial(nu, flag, mu) for nu in indices
                                     for mu in indices for flag in (False, True)]
    for monomial, product in pairs:
        assert product == _compose_codes(monomial.codes(), params), monomial
        assert product == evaluate_word(monomial.word(), params), monomial


@pytest.mark.parametrize("n,max_degree,degree_cap", [(2, 5, 5), (3, 4, 4), (4, 6, 4)])
def test_monomial_diagonals_match_products(n, max_degree, degree_cap):
    params = TruncationParams(n, max_degree)
    indices = indices_up_to(n, degree_cap)
    fixed = monomial_diagonals(params, indices)
    position = {mu: k for k, mu in enumerate(indices)}
    for monomial, product in monomial_products(params, indices):
        nu, flag, mu = monomial.creation, monomial.vacuum, monomial.annihilation
        # the suite's cutoff: the guard band of a monomial that raises degree
        cutoff = params.degree_prefix(max_degree - max(0, sum(nu) - sum(mu)))
        columns = fixed.get((position[nu], position[mu], flag), ())
        assert list(columns) == sorted(columns), monomial
        assert {c: 1 for c in columns if c < cutoff} == product.diagonal(cutoff), monomial
    # a monomial that fixes nothing has no key
    assert all(fixed.values())


def _drop_vacuum_to_e1(block, params):
    # a*_1 without its entry e_0 -> e_1
    return PhaseMatrix((-1,) + block.image[1:])


def _share_an_a2_entry(block, params):
    # a*_1 also sends e_2 to e_2 e_2, an entry of a*_2.  a*_1 is the earlier
    # block, so a lookup that kept only the last block per entry would drop
    # the fault silently
    a2 = column_map(params, 2, True).image
    image = list(block.image)
    image[a2[0]] = a2[a2[0]]
    return PhaseMatrix(image)


@pytest.mark.parametrize("fault", ["leaky-vacuum", "dropped-creator", "shared-entry"])
def test_expectation_of_monomials_catches_matrix_side_faults(monkeypatch, fault):
    # each fault touches only the matrix side; the symbolic side is unchanged
    if fault == "leaky-vacuum":
        def vacuum_map(params, index, starred):
            if index == 0:  # P0 that also fixes e_1
                return PhaseMatrix((0, 1) + (-1,) * (params.basis_size - 2))
            return column_map(params, index, starred)
        monkeypatch.setattr(suites, "column_map", vacuum_map)
    else:
        edit = _drop_vacuum_to_e1 if fault == "dropped-creator" else _share_an_a2_entry

        def faulty_blocks(codes, params):
            block = _compose_codes(codes, params)
            return edit(block, params) if tuple(codes) == (3,) else block  # a*_1
        monkeypatch.setattr(suites, "_compose_codes", faulty_blocks)
    report = masa_suite(2, 4, degree_cap=2, rank_cap=3, samples=0)
    mono = next(c for c in report["checks"] if c["name"] == "expectation-of-monomials")
    assert mono["failures"] > 0
    assert set(mono["firstFailure"]) == {"nu", "mu", "vacuum"}


def test_expectation_of_monomials_keeps_one_failure_payload(monkeypatch):
    # every monomial's expectation read as the identity: all cases but the
    # identity monomial fail, and only the count and the first payload are
    # kept (1.2 MB here when the suite kept a payload per failure)
    monkeypatch.setattr(suites.masa, "expectation_of_monomial",
                        lambda monomial: NormalForm({NormalMonomial.identity(monomial.n): 1}))
    tracemalloc.start()
    try:
        report = masa_suite(3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mono = next(c for c in report["checks"] if c["name"] == "expectation-of-monomials")
    assert (mono["cases"], mono["failures"]) == (2450, 2449)
    assert mono["firstFailure"] == {"nu": [0, 0, 0], "mu": [0, 0, 0], "vacuum": True}
    assert peak < 600_000


def test_positivity_reports_a_non_injective_generator(monkeypatch):
    # P0 that sends both e_0 and e_1 to e_0: a word map with two columns in
    # one row has no column-stored adjoint, which must fail a case, not crash
    def merging_word(word, params):
        merge = PhaseMatrix((0, 0) + (-1,) * (params.basis_size - 2))
        return reduce(matmul, [merge if sym.index == 0 else
                               column_map(params, sym.index, sym.starred) for sym in word])

    monkeypatch.setattr(suites, "evaluate_word", merging_word)
    report = masa_suite(2, 4, degree_cap=2, rank_cap=3, samples=20)
    positive = next(c for c in report["checks"]
                    if c["name"] == "expectation-positive-on-squares")
    assert positive["failures"] > 0
    assert set(positive["firstFailure"]) == {"word"}


def test_projections_suite_records_declared_range():
    report = projections_suite(3, 6, degree_cap=3)
    pivot = next(c for c in report["checks"] if c["name"] == "pivot-range")
    assert pivot["declaredRange"] == [1, 3]
    assert pivot["pivotsUsed"] == [1, 2, 3]


def test_spectrum_suite_carries_vertex_note():
    report = spectrum_suite(2, 4, HALF)
    vertices = next(c for c in report["checks"] if c["name"] == "vertices-classified")
    assert vertices["failures"] == 0
    assert "all-zero vertex" in vertices["note"]


def test_boundary_limits_catch_a_shifted_pivot(monkeypatch):
    # every family member one step further out than p: the pivot exponent is
    # no longer p + sum(tail)
    monkeypatch.setattr(spectrum.BoundaryPattern, "index_at",
                        lambda self, p: self.bits + (p + 1,) + self.tail)
    report = spectrum_suite(2, 3, HALF)
    limits = next(c for c in report["checks"] if c["name"] == "boundary-limits-monotone")
    assert limits["failures"] > 0
    assert set(limits["firstFailure"]) == {"pattern", "p"}


def test_boundary_limits_read_the_ranks_of_the_pattern_walk(monkeypatch):
    # one tail rank of one pattern one higher moves the dataset's point; the
    # report compares the families with that point, so every member misses it
    walk, moved = spectrum._ranked_patterns, spectrum.BoundaryPattern(1, (), (0, 2))

    def shifted(cfg):
        for pattern, ranks in walk(cfg):
            yield pattern, (ranks[:-1] + (ranks[-1] + 1,) if pattern == moved else ranks)

    monkeypatch.setattr(spectrum, "_ranked_patterns", shifted)
    report = spectrum_suite(3, 4, Fraction(3, 7))
    limits = next(c for c in report["checks"] if c["name"] == "boundary-limits-monotone")
    assert limits["failures"] == spectrum.P_LIMIT
    assert limits["firstFailure"] == {"pattern": "lim(k=1;eps=();tail=(0;2))", "p": 1}


def test_gauge_suite_counts_deviations():
    report = gauge_suite(2, 3, roots=(4,))
    confined = next(c for c in report["checks"]
                    if c["name"] == "phase-only-unitary-deviations-confined-K4")
    assert confined["deviations"] > 0
    assert confined["failures"] == 0
    assert total_failures(report) == 0


def test_soundness_check_catches_a_sign_error(monkeypatch):
    # the same support with every coefficient negated: only a comparison of
    # values, not of positions or counts, sees the difference
    monkeypatch.setattr(suites, "rewrite", lambda word, n: NormalForm(
        {m: -c for m, c in rewrite(word, n).items()}))
    report = soundness_check(sample_words(2, 20, 6, seed=5), TruncationParams(2, 6))
    assert report["failures"] > 0


def test_rank_one_check_catches_an_off_diagonal_entry(monkeypatch):
    # a vacuum projection that also sends e_1 to e_2 (still injective, like
    # every word map): P0 itself, and a*(mu) P0 a(mu) with mu_1 = 0, keep
    # their diagonal but gain an off-diagonal entry, so the matrix side is
    # no longer a matrix unit
    def leaky_word(word, params):
        leaky = PhaseMatrix((0, 2) + (-1,) * (params.basis_size - 2))
        return reduce(matmul, [leaky if sym.index == 0 else
                               column_map(params, sym.index, sym.starred) for sym in word])

    monkeypatch.setattr(suites, "evaluate_word", leaky_word)
    report = masa_suite(2, 5, degree_cap=2, rank_cap=4, samples=0)
    rank = next(c for c in report["checks"] if c["name"] == "rank-one-projections")
    assert rank["failures"] > 0
    assert rank["firstFailure"] == {"mu": [0, 0]}


def test_guard_at_max_degree_compares_the_vacuum_column_alone():
    # a1* a2* vanishes and climbs two degrees above the state it acts on
    pair = suites._symbols((1, True), (2, True))
    vacuum = suites._symbols((0, False))
    check = suites._guarded_word_check(TruncationParams(2, 2), "pair", [(1, pair)], [])
    assert (check["cases"], check["failures"], check["guard"]) == (1, 0, 2)
    assert "note" not in check
    # the band is the vacuum column, so P0 added to one side is seen there
    check = suites._guarded_word_check(TruncationParams(2, 2), "pair",
                                       [(1, pair), (1, vacuum)], [(1, pair)])
    assert (check["cases"], check["failures"]) == (1, 1)
    beyond = suites._guarded_word_check(TruncationParams(2, 1), "pair", [(1, pair)], [])
    assert (beyond["cases"], beyond["failures"], beyond["guard"]) == (0, 0, 2)
    assert beyond["note"] == "guard exceeds max degree; band empty"


def test_soundness_check_stops_at_five_failures(monkeypatch):
    # every rewrite negated: each a0 fails on the vacuum column
    monkeypatch.setattr(suites, "rewrite", lambda word, n: NormalForm(
        {m: -c for m, c in rewrite(word, n).items()}))
    words = iter([suites._symbols((0, False))] * 8)
    report = soundness_check(words, TruncationParams(2, 3))
    assert (report["cases"], report["failures"]) == (5, 5)
    assert report["first_failure"] == {"word": "a0", "guard": 0}
    assert len(list(words)) == 3  # the rest is never read


@pytest.mark.parametrize("max_degree,interior,boundary", [(1, 2, 4), (2, 5, 5), (3, 8, 5)])
def test_worked_display_counts_at_small_degrees(max_degree, interior, boundary):
    # a named point is counted only when max_degree reaches its exponents
    checks = {c["name"]: c for c in spectrum_suite(2, max_degree, HALF)["checks"]}
    named = checks["worked-display-interior-points"]
    assert (named["cases"], named["failures"]) == (interior, 0)
    named = checks["worked-display-boundary-points"]
    assert (named["cases"], named["failures"]) == (boundary, 0)

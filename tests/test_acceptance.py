"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every comparison is exact; there are no tolerances anywhere.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from wmfock.fock import TruncationParams, basis_degrees
from wmfock.gauge import (BLOCK_SHIFT_UNITARY, PAPER_UNITARY, BundleRep,
                          check_covariance, check_quotient_relation,
                          vacuum_operator_spectrum)
from wmfock.masa import expectation, expectation_of_monomial, matrix_rank_one, rank_one_projection
from wmfock.spectrum import SpectrumConfig, emit_csv, enumerate_spectrum, verify_multiplicativity
from wmfock.suites import (ck_suite, exhaustive_words, indices_up_to,
                           projections_suite, relations_suite, sample_words,
                           soundness_check)
from wmfock.words import (NormalMonomial, creation_guard, evaluate,
                          evaluate_word, rewrite)

HALF = Fraction(1, 2)


def _verdict(number: int, label: str, ok: bool) -> None:
    print("ACCEPTANCE %d %-24s %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (number, label)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_1_relations(n):
    report = relations_suite(n, 6)
    failures = sum(c["failures"] for c in report["checks"])
    _verdict(1, "relations n=%d" % n, failures == 0)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_2_cuntz_krieger(n):
    report = ck_suite(n, 6)
    failures = sum(c["failures"] for c in report["checks"])
    realized = next(c for c in report["checks"]
                    if c["name"] == "incidence-matrix-lower-triangular")
    lower_triangular = realized["realizedMatrix"] == [
        [1 if j <= i else 0 for j in range(n + 1)] for i in range(n + 1)]
    _verdict(2, "cuntz-krieger n=%d" % n, failures == 0 and lower_triangular)


def test_criterion_3_rewriter_soundness_exhaustive_n2():
    params = TruncationParams(2, 6)
    report = soundness_check(exhaustive_words(2, 6), params)
    # 6 spellings (a0 under both of its spellings, a1, a1*, a2, a2*),
    # every length 1..6: sum of 6^k = 55986 >= the 6^6 length-6 patterns
    _verdict(3, "soundness exhaustive n=2",
             report["failures"] == 0 and report["cases"] == sum(6 ** k for k in range(1, 7)))


def test_criterion_3_rewriter_soundness_random_n3():
    params = TruncationParams(3, 8)
    words = sample_words(3, 500, 8)
    report = soundness_check(words, params)
    _verdict(3, "soundness random n=3",
             report["failures"] == 0 and report["cases"] == 500)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_4_projection_order(n):
    report = projections_suite(n, 6, degree_cap=4)
    failures = sum(c["failures"] for c in report["checks"])
    pivot_check = next(c for c in report["checks"] if c["name"] == "pivot-range")
    recorded = pivot_check["pivotsUsed"] == list(range(1, n + 1))
    _verdict(4, "projection order n=%d" % n, failures == 0 and recorded)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_5_masa_rank_ones(n):
    params = TruncationParams(n, 6)
    ok = True
    for mu in indices_up_to(n, 5):
        value = evaluate(rank_one_projection(mu, n), params)
        if value != matrix_rank_one(mu, params):
            ok = False
            break
    _verdict(5, "rank-one projections n=%d" % n, ok)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_5_masa_expectation(n):
    params = TruncationParams(n, 6)
    ok = True
    for nu in indices_up_to(n, 4):
        for mu in indices_up_to(n, 4):
            for flag in (False, True):
                monomial = NormalMonomial(nu, flag, mu)
                guard = creation_guard(monomial.word())
                cutoff = params.degree_prefix(params.max_degree - guard)
                matrix_side = {p: v for p, v in
                               expectation(evaluate_word(monomial.word(), params)).diagonal().items()
                               if p < cutoff}
                symbolic = evaluate(expectation_of_monomial(monomial), params)
                if matrix_side != {p: v for p, v in symbolic.diagonal().items() if p < cutoff}:
                    ok = False
    deep = TruncationParams(n, 8)
    for word in sample_words(n, 500, 8):
        guard = creation_guard(word)
        cutoff = deep.degree_prefix(deep.max_degree - guard)
        direct = {p: v for p, v in
                  expectation(evaluate_word(word, deep)).diagonal().items() if p < cutoff}
        symbolic = evaluate(rewrite(word, n).diagonal_part(), deep)
        if direct != {p: v for p, v in symbolic.diagonal().items() if p < cutoff}:
            ok = False
    _verdict(5, "symbolic expectation n=%d" % n, ok)


def test_criterion_6_spectrum_dataset():
    cfg = SpectrumConfig(2, 8, HALF)
    text = emit_csv(enumerate_spectrum(cfg), cfg)
    interior = set()
    boundary = set()
    for line in text.splitlines()[1:]:
        kind, _, x1, x2, _, _ = line.split(",")
        target = interior if kind == "interior" else boundary
        target.add((Fraction(x1), Fraction(x2)))
    # independent oracle: the worked-display array has rows indexed by the
    # second exponent and columns either 0 or a strictly larger first exponent
    expected = set()
    for r2 in range(9):
        expected.add((Fraction(0), 1 - HALF ** r2))
        for r1 in range(r2 + 1, 9):
            expected.add((1 - HALF ** r1, 1 - HALF ** r2))
    named_interior = [(HALF, Fraction(0)), (Fraction(3, 4), Fraction(0)),
                      (Fraction(7, 8), Fraction(0)), (Fraction(0), HALF),
                      (Fraction(3, 4), HALF), (Fraction(7, 8), HALF),
                      (Fraction(0), Fraction(3, 4)), (Fraction(7, 8), Fraction(3, 4))]
    named_boundary = [(Fraction(1), Fraction(0)), (Fraction(1), HALF),
                      (Fraction(1), Fraction(3, 4)), (Fraction(0), Fraction(1)),
                      (Fraction(1), Fraction(1))]
    ok = (interior == expected
          and all(p in interior for p in named_interior)
          and all(p in boundary for p in named_boundary))
    _verdict(6, "spectrum dataset", ok)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_7_multiplicativity(n):
    _, failures, caveats = verify_multiplicativity(SpectrumConfig(n, 4, HALF), 4)
    ok = failures.failures == 0 and caveats.failures > 0
    _verdict(7, "multiplicativity n=%d" % n, ok)


def test_criterion_8_gauge():
    params = TruncationParams(2, 3)
    degrees = basis_degrees(params)
    ok = True
    for roots in (1, 2, 4, 8):
        rep = BundleRep(params, roots)
        for i in range(3):
            for w in range(roots):
                if check_covariance(rep, i, w, BLOCK_SHIFT_UNITARY):
                    ok = False
        for i in (1, 2):
            for w in range(roots):
                for entry in check_covariance(rep, i, w, PAPER_UNITARY):
                    if not (entry["basisRow"] == 0 and degrees[entry["basisCol"]] == 1):
                        ok = False
        spec = vacuum_operator_spectrum(rep)
        if spec["root_exponents"] != list(range(roots)):
            ok = False
        if spec["zero_multiplicity"] != roots * (params.basis_size - 1):
            ok = False
        if not check_quotient_relation(rep)["ok"]:
            ok = False
    _verdict(8, "gauge covariance", ok)


def _run_cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "wmfock.cli"] + list(args),
                          capture_output=True, text=True)


def test_criterion_9_determinism():
    first = _run_cli("verify", "--n", "2", "--max-degree", "6", "--suite", "all")
    second = _run_cli("verify", "--n", "2", "--max-degree", "6", "--suite", "all")
    csv_first = _run_cli("spectrum", "--n", "2", "--max-degree", "8", "--format", "csv")
    csv_second = _run_cli("spectrum", "--n", "2", "--max-degree", "8", "--format", "csv")
    ok = (first.returncode == second.returncode == 0
          and first.stdout == second.stdout
          and csv_first.returncode == csv_second.returncode == 0
          and csv_first.stdout == csv_second.stdout
          and json.loads(first.stdout)["suite"] == "all")
    _verdict(9, "determinism", ok)

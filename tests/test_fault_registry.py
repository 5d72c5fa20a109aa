"""Every check family can fail: a registry from each family to a fault.

A family is a check name of ``run_all(2, 4, 1/2, roots=(2,))`` with its
trailing ``-i``, ``-i-j`` or ``-K<k>`` stripped; that run names all 35 in
a few hundredths of a second.  Each family is registered with a fault that
must make it report failures.  A fault replaces one function of the
package wherever a module has bound it, and the package's ``lru_cache``s
are cleared around it, so no map built under a fault outlives its test and
none built before reaches it.  The test fails on a family with no fault
and on a registered fault that its families do not report.  No family is
a gap: each one fails under its fault at this size.

One weakness of the checks stays visible here, and ROADMAP item 1 keeps
it: ``masa/expectation-positive-on-squares`` is caught only by a generator
that is not injective, where ``adjoint()`` raises: a word is an order-1
map, so no wrong value makes a diagonal entry of ``op* op`` negative.
"""

import re
from fractions import Fraction

import pytest

from wmfock import fock, gauge, masa, spectrum, suites, words
from wmfock.fock import basis_index, enumerate_basis
from wmfock.sparse import PhaseMatrix, SparseOp
from wmfock.suites import run_all
from wmfock.words import NormalForm, NormalMonomial, ProductResult

MODULES = (fock, gauge, masa, spectrum, suites, words)
CACHES = [obj for module in MODULES for obj in vars(module).values()
          if callable(getattr(obj, "cache_clear", None))]
RUN = (2, 4, Fraction(1, 2))
ROOTS = (2,)


def _family(name):
    return re.sub(r"-(K\d+|\d+-\d+|\d+)$", "", name)


def _failures_by_family(report):
    out = {}
    for check in report["checks"]:
        family = _family(check["name"])
        out[family] = out.get(family, 0) + check["failures"]
    return out


def _replace(mp, name, make_fault):
    """Bind ``make_fault(original)`` in place of the package function
    ``name`` in every module that holds it."""
    original = next(vars(module)[name] for module in MODULES if name in vars(module))
    fault = make_fault(original)
    for module in MODULES:
        if vars(module).get(name) is original:
            mp.setattr(module, name, fault)


def _generator(mp, index, starred, edit):
    """Replace the column images of one generator by ``edit(params, image)``."""
    def make(column_map):
        def faulty(params, i, s):
            generator = column_map(params, i, s)
            if (i, s) != (index, starred):
                return generator
            return PhaseMatrix(edit(params, list(generator.image)))
        return faulty
    _replace(mp, "column_map", make)


def _letter_one(step):
    """Edit for a1* (step 1) or a1 (step -1) that ignores the top letter:
    every state gains or loses a letter 1 whatever lies above it."""
    def edit(params, image):
        lookup = basis_index(params)
        for pos, mu in enumerate(enumerate_basis(params)):
            target = (mu[0] + step,) + mu[1:]
            if target in lookup and target[0] >= 0:
                image[pos] = lookup[target]
        return image
    return edit


def _set(column, row):
    def edit(params, image):
        image[column] = row
        return image
    return edit


def _vacuum_operator(edit):
    """Edit the bundle's vacuum generator b_0, built with phases."""
    def make(bundle_operator):
        def faulty(rep, index):
            beta = bundle_operator(rep, index)
            if index:
                return beta
            image, phase = edit(rep, list(beta.image), list(beta.phase))
            return PhaseMatrix(image, rep.roots, phase)
        return faulty
    return make


def _drop_block_vacuum(rep, image, phase):
    image[rep.vacuum_positions()[-1]] = -1  # the last block's vacuum is lost
    return image, phase


def _unphased_vacuum(rep, image, phase):
    return image, [0] * len(phase)  # the sample phase is forgotten


def _table_one_power_off(values):
    """Rank r reads 1 - c**(r + 1) for 1 <= r <= max_degree."""
    def faulty(cfg):
        table = values(cfg)
        return table[:1] + tuple(1 - (1 - v) * cfg.c for v in table[1:-1]) + table[-1:]
    return faulty


def _pivot_one_rank_short(walk):
    """Each boundary pattern's pivot reads rank max_degree, not the 1 above it."""
    def faulty(cfg):
        for pattern, ranks in walk(cfg):
            k = pattern.pivot - 1
            yield pattern, ranks[:k] + (cfg.max_degree,) + ranks[k + 1:]
    return faulty


FAULTS = {
    # generators: a1* adds its letter above a larger one and a1 strips it
    # from under one; P0 sent off the vacuum, fixing e_1 as well, sending
    # e_1 to e_0 (not injective: tests/test_suites.py's positivity fault) or
    # e_1 to e_2 (injective: its rank-one fault)
    "creator-ignores-top-letter": lambda mp: _generator(mp, 1, True, _letter_one(1)),
    "annihilator-ignores-top-letter": lambda mp: _generator(mp, 1, False, _letter_one(-1)),
    "vacuum-sent-to-e1": lambda mp: _generator(mp, 0, False, _set(0, 1)),
    "leaky-vacuum": lambda mp: _generator(mp, 0, False, _set(1, 1)),
    "merging-vacuum": lambda mp: _generator(mp, 0, False, _set(1, 0)),
    "vacuum-leaks-e1-to-e2": lambda mp: _generator(mp, 0, False, _set(1, 2)),
    # masa's symbolic side: the expectation, a monomial's expectation read
    # as the identity, the rank-one combination left unsubtracted, and the
    # rewriter's signs (the soundness fault of tests/test_suites.py)
    "expectation-drops-the-vacuum": lambda mp: _replace(mp, "expectation", lambda e: (
        lambda op: SparseOp(op.dim, {k: v for k, v in e(op).entries.items() if k != (0, 0)}))),
    "symbolic-expectation-is-identity": lambda mp: _replace(
        mp, "expectation_of_monomial",
        lambda e: lambda monomial: NormalForm(
            {NormalMonomial((0,) * monomial.n, False, (0,) * monomial.n): 1})),
    "rank-one-is-the-projection": lambda mp: _replace(
        mp, "rank_one_projection",
        lambda r: lambda mu, n: NormalForm({NormalMonomial(mu, False, mu): 1})),
    "rewrite-negated": lambda mp: _replace(mp, "rewrite", lambda rewrite: (
        lambda word, n: NormalForm({m: -c for m, c in rewrite(word, n).items()}))),
    # the product rule and the order (tests/test_projections.py, tests/test_spectrum.py)
    "product-always-left": lambda mp: _replace(
        mp, "projection_product", lambda p: lambda mu, nu: ProductResult.LEFT_SURVIVES),
    "every-pivot-is-one": lambda mp: _replace(mp, "precedes_pivot", lambda p: lambda nu, mu: 1),
    # spectrum: the coordinate table one power off, a pivot one rank short of
    # the coordinate 1, and each approximating family one step further out
    # (the pivot-shifted fault of tests/test_spectrum.py)
    "coordinates-one-power-off": lambda mp: _replace(mp, "coordinate_values", _table_one_power_off),
    "pivot-one-rank-short": lambda mp: _replace(mp, "_ranked_patterns", _pivot_one_rank_short),
    "family-one-step-out": lambda mp: mp.setattr(
        spectrum.BoundaryPattern, "index_at", lambda self, p: self.bits + (p + 1,) + self.tail),
    # gauge: degrees doubled in the unitaries' phases, each root read one
    # further round, and the vacuum generator without its phases or a block
    "unitary-degrees-doubled": lambda mp: mp.setattr(
        gauge, "basis_degrees", lambda params: tuple(2 * d for d in fock.basis_degrees(params))),
    "unitary-root-off-by-one": lambda mp: _replace(mp, "_build_unitary", lambda build: (
        lambda rep, w, variant: build(rep, (w + 1) % rep.roots, variant))),
    "vacuum-generator-unphased": lambda mp: _replace(
        mp, "bundle_operator", _vacuum_operator(_unphased_vacuum)),
    "vacuum-generator-drops-a-block": lambda mp: _replace(
        mp, "bundle_operator", _vacuum_operator(_drop_block_vacuum)),
}

REGISTRY = {
    "relations/creator-pair-vanishes": "creator-ignores-top-letter",
    "relations/annihilator-pair-vanishes": "annihilator-ignores-top-letter",
    "relations/mixed-pair-vanishes": "annihilator-ignores-top-letter",
    "relations/vacuum-projection-definition": "leaky-vacuum",
    "relations/vacuum-projection-idempotent": "vacuum-sent-to-e1",
    "relations/vacuum-projection-selfadjoint": "vacuum-sent-to-e1",
    "relations/vacuum-projection-rank-one": "leaky-vacuum",
    "relations/adjoint-is-transpose": "creator-ignores-top-letter",
    "ck/range-projections-sum-to-identity": "leaky-vacuum",
    "ck/support-projection-decomposition": "leaky-vacuum",
    "ck/range-projections-orthogonal": "leaky-vacuum",
    "ck/incidence-matrix-lower-triangular": "leaky-vacuum",
    "projections/product-rule-matches-matrix-oracle": "product-always-left",
    "projections/order-antisymmetric": "every-pivot-is-one",
    "projections/pivot-range": "every-pivot-is-one",
    "masa/rank-one-projections": "vacuum-leaks-e1-to-e2",
    "masa/expectation-of-monomials": "symbolic-expectation-is-identity",
    "masa/expectation-of-random-words": "rewrite-negated",
    "masa/expectation-positive-on-squares": "merging-vacuum",
    "masa/expectation-unital-idempotent": "expectation-drops-the-vacuum",
    "masa/diagonal-completeness": "rank-one-is-the-projection",
    "spectrum/interior-coordinates-exact": "coordinates-one-power-off",
    "spectrum/interior-matches-pattern-oracle": "coordinates-one-power-off",
    "spectrum/worked-display-interior-points": "coordinates-one-power-off",
    "spectrum/worked-display-boundary-points": "pivot-one-rank-short",
    "spectrum/boundary-point-shape": "pivot-one-rank-short",
    "spectrum/vertices-classified": "pivot-one-rank-short",
    "spectrum/functionals-multiplicative": "product-always-left",
    "spectrum/boundary-limits-monotone": "family-one-step-out",
    "gauge/shift-unitary-covariance": "unitary-degrees-doubled",
    "gauge/phase-only-unitary-covariance-vacuum": "vacuum-generator-unphased",
    "gauge/phase-only-unitary-deviations-confined": "unitary-degrees-doubled",
    "gauge/shift-unitary-group-law": "unitary-root-off-by-one",
    "gauge/vacuum-generator-spectrum": "vacuum-generator-unphased",
    "gauge/quotient-relation": "vacuum-generator-drops-a-block",
}


@pytest.fixture
def fresh_caches():
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def test_every_family_is_registered_and_passes_without_a_fault():
    failures = _failures_by_family(run_all(*RUN, roots=ROOTS))
    assert sorted(failures) == sorted(REGISTRY)
    assert {family: count for family, count in failures.items() if count} == {}
    assert set(REGISTRY.values()) == set(FAULTS)  # no fault without a family


# ``fresh_caches`` is set up before ``monkeypatch``, so it clears the caches
# again after the fault is undone
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_registered_fault_is_caught(fault, fresh_caches, monkeypatch):
    FAULTS[fault](monkeypatch)
    failures = _failures_by_family(run_all(*RUN, roots=ROOTS))
    families = [family for family, name in REGISTRY.items() if name == fault]
    assert [family for family in families if not failures[family]] == []

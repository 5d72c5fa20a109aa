"""Gauge bundle: covariance, unitary variants, spectrum, quotient relation."""

import pytest

from wmfock import gauge
from wmfock.fock import TruncationParams, basis_degrees
from wmfock.gauge import (BLOCK_SHIFT_UNITARY, PAPER_UNITARY, BundleRep,
                          PhaseMatrix, bundle_operator, check_covariance, check_group_law,
                          check_quotient_relation, gauge_unitary,
                          vacuum_operator_spectrum)


def test_phase_matrix_product_and_adjoint():
    # entries (0, 1) -> w^1 and (1, 0) -> w^2, stored by column
    a = PhaseMatrix([-1, 0], 4, [0, 1])
    b = PhaseMatrix([1, -1], 4, [2, 0])
    assert (a @ b).image == (0, -1) and (a @ b).phase == (3, 0)
    assert a.adjoint().image == (1, -1) and a.adjoint().phase == (3, 0)
    assert a.adjoint() @ a == PhaseMatrix([-1, 1], 4)


def test_bundle_dimensions():
    rep = BundleRep(TruncationParams(2, 3), 4)
    assert rep.block_size == 10
    assert rep.dim == 40
    assert rep.vacuum_positions() == [0, 10, 20, 30]
    single = BundleRep(TruncationParams(2, 3), 1)
    assert single.dim == 10


def test_vacuum_generator_entries():
    rep = BundleRep(TruncationParams(2, 3), 4)
    beta0 = bundle_operator(rep, 0)
    live = [(col, row, e) for col, (row, e) in enumerate(zip(beta0.image, beta0.phase))
            if row >= 0]
    assert live == [(0, 0, 0), (10, 10, 1), (20, 20, 2), (30, 30, 3)]


def test_gauge_unitary_is_unitary_and_variants_differ():
    rep = BundleRep(TruncationParams(2, 3), 8)
    for w in range(8):
        u = gauge_unitary(rep, w, PAPER_UNITARY)
        v = gauge_unitary(rep, w, BLOCK_SHIFT_UNITARY)
        assert u.matrix @ u.matrix.adjoint() == PhaseMatrix.identity(rep.dim, 8)
        assert v.matrix @ v.matrix.adjoint() == PhaseMatrix.identity(rep.dim, 8)
    assert gauge_unitary(rep, 1, PAPER_UNITARY).matrix != \
        gauge_unitary(rep, 1, BLOCK_SHIFT_UNITARY).matrix


def test_covariance_reuses_the_adjoint_of_the_cached_unitary(monkeypatch):
    rep = BundleRep(TruncationParams(2, 3), 4)
    for variant in (PAPER_UNITARY, BLOCK_SHIFT_UNITARY):
        for w in range(4):
            u = gauge_unitary(rep, w, variant)
            assert u.adjoint == u.matrix.adjoint()
            assert u.matrix @ u.adjoint == PhaseMatrix.identity(rep.dim, 4)
    built = []
    adjoint = PhaseMatrix.adjoint
    monkeypatch.setattr(PhaseMatrix, "adjoint",
                        lambda self: built.append(self) or adjoint(self))
    for variant in (PAPER_UNITARY, BLOCK_SHIFT_UNITARY):
        for i in range(3):
            for w in range(4):
                check_covariance(rep, i, w, variant)
    assert built == []


def test_paper_unitary_scales_by_degree_and_shifts_vacua():
    params = TruncationParams(2, 3)
    rep = BundleRep(params, 4)
    u = gauge_unitary(rep, 1, PAPER_UNITARY).matrix
    degrees = basis_degrees(params)
    two = degrees.index(2)
    # degree-2 vector stays in its block, scaled by conj(w)^2
    assert u.image[rep.position(1, two)] == rep.position(1, two)
    assert u.phase[rep.position(1, two)] == (-2) % 4
    # vacuum moves to the conj(w) block with no phase
    assert u.image[rep.position(1, 0)] == rep.position(0, 0)
    assert u.phase[rep.position(1, 0)] == 0


def gauge_unitary_oracle(rep, w, variant):
    """Reference: the element-by-element construction that the per-block one
    replaced; returns the unitary's matrix."""
    K = rep.roots
    w = w % K
    degrees = basis_degrees(rep.params)
    image = []
    phase = []
    for s in range(K):
        shifted = (s - w) % K
        for b, d in enumerate(degrees):
            # the vacuum (d = 0) moves block in both variants
            moved = variant == BLOCK_SHIFT_UNITARY or d == 0
            image.append(rep.position(shifted if moved else s, b))
            phase.append(-w * d)
    return PhaseMatrix(image, K, phase)


@pytest.mark.parametrize("n,max_degree,roots", [(2, 3, 1), (3, 4, 4), (4, 6, 8)])
def test_gauge_unitary_matches_element_oracle(n, max_degree, roots):
    rep = BundleRep(TruncationParams(n, max_degree), roots)
    for variant in (PAPER_UNITARY, BLOCK_SHIFT_UNITARY):
        for w in range(-roots, 2 * roots):
            unitary = gauge_unitary(rep, w, variant)
            assert unitary.matrix == gauge_unitary_oracle(rep, w, variant), (variant, w)
            assert unitary.w == w % roots


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("max_degree", [1, 2, 3, 4])
@pytest.mark.parametrize("roots", [1, 2, 4, 8])
def test_block_shift_covariance_exhaustive(n, max_degree, roots):
    rep = BundleRep(TruncationParams(n, max_degree), roots)
    for i in range(n + 1):
        for w in range(roots):
            assert check_covariance(rep, i, w, BLOCK_SHIFT_UNITARY) == [], \
                (n, max_degree, roots, i, w)


@pytest.mark.parametrize("roots", [1, 2, 4, 8])
def test_paper_unitary_deviations_confined(roots):
    params = TruncationParams(2, 3)
    rep = BundleRep(params, roots)
    degrees = basis_degrees(params)
    for w in range(roots):
        assert check_covariance(rep, 0, w, PAPER_UNITARY) == []
    for i in (1, 2):
        for w in range(roots):
            failures = check_covariance(rep, i, w, PAPER_UNITARY)
            if w == 0:
                assert failures == []
            for entry in failures:
                assert entry["basisRow"] == 0
                assert degrees[entry["basisCol"]] == 1
                # the image vacuum lands in the shifted block
                assert entry["gotExponent"] is None or \
                    entry["blockRow"] == (entry["blockCol"] - w) % roots


def test_paper_unitary_actually_deviates():
    rep = BundleRep(TruncationParams(2, 3), 4)
    assert check_covariance(rep, 1, 1, PAPER_UNITARY)


def test_group_law():
    rep = BundleRep(TruncationParams(2, 2), 8)
    for variant in (BLOCK_SHIFT_UNITARY, PAPER_UNITARY):
        _, law = check_group_law(rep, variant)
        assert law.failures == 0


@pytest.mark.parametrize("roots,expected_zeros", [(1, 9), (4, 36)])
def test_vacuum_spectrum(roots, expected_zeros):
    rep = BundleRep(TruncationParams(2, 3), roots)
    spec = vacuum_operator_spectrum(rep)
    assert spec["root_exponents"] == list(range(roots))
    assert spec["zero_multiplicity"] == expected_zeros
    assert spec["distinct_eigenvalues"] == roots + 1
    # closed under conjugation: negation permutes the exponent set mod K
    exponents = set(spec["root_exponents"])
    assert {(-e) % roots for e in exponents} == exponents


@pytest.mark.parametrize("roots", [1, 4])
def test_quotient_relation(roots):
    rep = BundleRep(TruncationParams(2, 3), roots)
    verdict = check_quotient_relation(rep)
    assert verdict["ok"]
    assert verdict["difference_entries"] == []


def test_invalid_inputs():
    params = TruncationParams(2, 3)
    with pytest.raises(ValueError):
        BundleRep(params, 0)
    rep = BundleRep(params, 4)
    with pytest.raises(ValueError):
        bundle_operator(rep, 5)
    with pytest.raises(ValueError):
        gauge_unitary(rep, 1, "twisted")


def test_gauge_unitary_built_once_per_root_class():
    rep = BundleRep(TruncationParams(2, 3), 4)
    for variant in (PAPER_UNITARY, BLOCK_SHIFT_UNITARY):
        for w in range(4):
            assert gauge_unitary(rep, w + 4, variant) is gauge_unitary(rep, w, variant)
            assert gauge_unitary(rep, w - 4, variant) is gauge_unitary(rep, w, variant)
    # an equal bundle built separately shares the cache entries
    assert gauge_unitary(BundleRep(TruncationParams(2, 3), 4), 1, PAPER_UNITARY) \
        is gauge_unitary(rep, 1, PAPER_UNITARY)


def test_gauge_unitary_cache_is_bounded_and_skips_bad_variants():
    assert gauge._build_unitary.cache_info().maxsize is not None
    rep = BundleRep(TruncationParams(2, 3), 4)
    before = gauge._build_unitary.cache_info()
    with pytest.raises(ValueError):
        gauge_unitary(rep, 1, "twisted")
    assert gauge._build_unitary.cache_info() == before


def test_unitarity_check_runs_on_first_build(monkeypatch):
    # an image that misses position 0 is injective but not onto: U U* loses
    # the (0, 0) entry
    monkeypatch.setattr(BundleRep, "positions",
                        property(lambda rep: (-1,) + tuple(range(1, rep.dim))))
    gauge._build_unitary.cache_clear()
    rep = BundleRep(TruncationParams(2, 2), 3)
    with pytest.raises(AssertionError, match="unitarity"):
        gauge_unitary(rep, 0, BLOCK_SHIFT_UNITARY)
    assert gauge._build_unitary.cache_info().currsize == 0


def test_gauge_maps_share_the_bundle_positions():
    # positions above 256 are distinct int objects, so ``is`` tells a shared
    # position from a fresh int of the same value; the vacuum generator's K
    # entries are left out
    gauge.bundle_operator.cache_clear()
    gauge._build_unitary.cache_clear()
    rep = BundleRep(TruncationParams(3, 6), 4)
    positions = rep.positions
    assert rep.dim == 336
    maps = [bundle_operator(rep, i) for i in range(1, 4)]
    for variant in (PAPER_UNITARY, BLOCK_SHIFT_UNITARY):
        unitary = gauge_unitary(rep, 1, variant)
        assert unitary.adjoint == unitary.matrix.adjoint()
        maps += [unitary.matrix, unitary.adjoint]
    for op in maps:
        assert all(row is positions[row] for row in op.image if row >= 0)

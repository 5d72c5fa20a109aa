"""Finite gauge-bundle representations over sampled circle points.

The circle is sampled at the K-th roots of unity, kept exact as exponents
modulo K; the bundle Hilbert space is the direct sum of K copies of the
truncated Fock space.  Annihilators act identically in every block, while
the vacuum-projection generator carries the sample phase in block z.

Two implementations of the gauge unitary for a root w are provided:

* ``paper``: positive-degree vectors are scaled by conj(w)**degree inside
  their own block and the vacua are permuted across blocks (z -> conj(w) z);
* ``shift``: every vector is scaled by conj(w)**degree *and* moved to the
  conj(w) z block.

Covariance U b_i U* = w b_i holds exactly for the ``shift`` variant on all
generators.  The ``paper`` variant intertwines the vacuum generator but
mismatches the annihilators exactly on their degree-one-to-vacuum matrix
elements (the image vacuum lands in the shifted block); those deviations
are the entries :func:`check_covariance` lists, not repaired silently.

Every operator here is a :class:`~wmfock.sparse.PhaseMatrix`, the one
column-stored kernel for monomial operators: each column holds at most one
entry, a K-th root of unity kept as its exponent.  Products, adjoints and
comparisons are exact integer arithmetic on those exponents.  This module
forms no linear combinations; those exist only for order-1 maps, built by
:meth:`~wmfock.sparse.SparseOp.from_terms`.

A bundle is an immutable value of ``(params, roots)``, so equal bundles
share cache entries.  Each gauge unitary is built, and checked unitary,
once per ``(rep, w mod K, variant)`` in a bounded cache, and keeps the
adjoint that check built; covariance and group-law checks that ask for it
again get the same object, a tuple compared by identity.  The annihilator
maps and the unitaries with their adjoints read every image entry from one
position tuple per bundle size, so they hold no position ints of their own;
maps built while a size stays among the 8 last asked for share its tuple.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import itemgetter
from typing import List, NamedTuple, Tuple

from .fock import Tally, TruncationParams, basis_degrees, column_map
from .sparse import PhaseMatrix

PAPER_UNITARY = "paper"
BLOCK_SHIFT_UNITARY = "shift"
_VARIANTS = (PAPER_UNITARY, BLOCK_SHIFT_UNITARY)


class BundleRep(namedtuple("BundleRep", "params roots")):
    """Direct sum of K Fock blocks; block s carries the sample exp(2 pi i s/K)."""

    __slots__ = ()

    def __new__(cls, params: TruncationParams, roots: int) -> "BundleRep":
        if roots < 1:
            raise ValueError("need at least one circle sample")
        return tuple.__new__(cls, (params, roots))

    @property
    def block_size(self) -> int:
        return self.params.basis_size

    @property
    def dim(self) -> int:
        return self.roots * self.block_size

    @property
    def positions(self) -> Tuple[int, ...]:
        """``0 .. dim - 1``: one tuple per ``dim`` while it is among the 8
        sizes last asked for, so gauge maps built meanwhile share it."""
        return _positions(self.dim)

    def position(self, sample: int, basis_pos: int) -> int:
        return sample * self.block_size + basis_pos

    def split(self, position: int) -> Tuple[int, int]:
        return divmod(position, self.block_size)

    def vacuum_positions(self) -> List[int]:
        return [self.position(s, 0) for s in range(self.roots)]


@lru_cache(maxsize=8)  # the default gauge suite asks for 4 sizes, one per K
def _positions(dim: int) -> Tuple[int, ...]:
    return tuple(range(dim))


@lru_cache(maxsize=None)
def bundle_operator(rep: BundleRep, index: int) -> PhaseMatrix:
    """The generator b_i on the bundle: identical annihilator blocks for
    i >= 1, and the phase-weighted vacuum projection for i = 0."""
    if not 0 <= index <= rep.params.n:
        raise ValueError("index must be in 0..%d" % rep.params.n)
    if index == 0:
        image = [-1] * rep.dim
        phase = [0] * rep.dim
        for s, pos in enumerate(rep.vacuum_positions()):
            image[pos] = pos
            phase[pos] = s
        return PhaseMatrix(image, rep.roots, phase)
    block = column_map(rep.params, index, False).image
    positions = rep.positions
    image = []
    for s in range(rep.roots):
        base = s * rep.block_size
        image.extend(positions[base + row] if row >= 0 else -1 for row in block)
    return PhaseMatrix(image, rep.roots)


class GaugeUnitary(NamedTuple):
    """A gauge unitary for the root with exponent ``0 <= w < K``, with the
    adjoint its unitarity check built.  Compared by identity: each is the
    one cached object for its root."""

    variant: str
    w: int
    matrix: PhaseMatrix
    adjoint: PhaseMatrix

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def gauge_unitary(rep: BundleRep, w: int, variant: str) -> GaugeUnitary:
    """The gauge unitary for the root with exponent ``w``.

    Each distinct ``(rep, w mod K, variant)`` is built once, by
    :func:`_build_unitary`; an unknown variant raises before the cache.
    """
    if variant not in _VARIANTS:
        raise ValueError("variant must be one of %s" % (_VARIANTS,))
    return _build_unitary(rep, w % rep.roots, variant)


@lru_cache(maxsize=64)
def _build_unitary(rep: BundleRep, w: int, variant: str) -> GaugeUnitary:
    """Build the gauge unitary for ``0 <= w < K``.

    Unitarity (U U* = I in exponent arithmetic) is verified at construction.
    The image is sliced, and the adjoint's image gathered, from the bundle's
    position tuple.
    """
    K = rep.roots
    size = rep.block_size
    positions = rep.positions
    image: List[int] = []
    for s in range(K):
        shifted = (s - w) % K * size
        if variant == BLOCK_SHIFT_UNITARY:
            image.extend(positions[shifted:shifted + size])
        else:
            # only the vacuum (position 0, the one state of degree 0) moves block
            image.append(positions[shifted])
            image.extend(positions[s * size + 1:(s + 1) * size])
    # every block scales by conj(w)**degree alike
    phase = [-w * d for d in basis_degrees(rep.params)] * K
    matrix = PhaseMatrix(image, K, phase)
    adjoint = matrix.adjoint()
    # ``adjoint()`` numbers its image with enumerate, a new int per entry;
    # read the entries from the positions instead (a zero column reads -1)
    adjoint = PhaseMatrix._from_arrays(
        itemgetter(*adjoint.image)(positions + (-1,)), adjoint.phase, K)
    if matrix @ adjoint != PhaseMatrix.identity(rep.dim, K):
        raise AssertionError("gauge unitary failed the exact unitarity check")
    return GaugeUnitary(variant, w, matrix, adjoint)


def check_covariance(rep: BundleRep, index: int, w: int, variant: str) -> List[dict]:
    """Compare U b_i U* against w b_i entry by entry, exactly: the entries
    that differ, none where covariance holds."""
    unitary = gauge_unitary(rep, w, variant)
    beta = bundle_operator(rep, index)
    lhs = unitary.matrix @ beta @ unitary.adjoint
    rhs = beta.scaled(w % rep.roots)
    failures = []
    for row, col, got, want in lhs.mismatches(rhs):
        brow, row_pos = rep.split(row)
        bcol, col_pos = rep.split(col)
        failures.append({
            "blockRow": brow, "blockCol": bcol,
            "basisRow": row_pos, "basisCol": col_pos,
            "gotExponent": got, "wantExponent": want,
        })
    return failures


def check_group_law(rep: BundleRep, variant: str) -> Tuple[int, Tally]:
    """U_w U_w' = U_(w w') for all sampled roots, exactly: the number of
    cases and their tally."""
    tally = Tally()
    for w1 in range(rep.roots):
        u1 = gauge_unitary(rep, w1, variant)
        for w2 in range(rep.roots):
            u2 = gauge_unitary(rep, w2, variant)
            composed = gauge_unitary(rep, w1 + w2, variant)
            if u1.matrix @ u2.matrix != composed.matrix:
                tally.fail(lambda: {"w1": w1, "w2": w2})
    return rep.roots ** 2, tally


def vacuum_operator_spectrum(rep: BundleRep) -> dict:
    """Eigenvalues of the vacuum generator, read off its diagonal form.

    The matrix is diagonal in the canonical bundle basis: each sampled root
    appears once (on its block vacuum) and 0 fills the rest.
    """
    beta0 = bundle_operator(rep, 0)
    live = [col for col, row in enumerate(beta0.image) if row >= 0]
    if any(beta0.image[col] != col for col in live):
        raise AssertionError("vacuum generator is not diagonal")
    exponents = sorted(beta0.phase[col] for col in live)
    return {
        "roots": rep.roots,
        "root_exponents": exponents,
        "zero_multiplicity": rep.dim - len(exponents),
        "distinct_eigenvalues": len(set(exponents)) + (1 if rep.dim > len(exponents) else 0),
    }


def check_quotient_relation(rep: BundleRep) -> dict:
    """The range projection G = b_0 b_0* is a self-adjoint idempotent fixing
    every vacuum, and G - G* G is the zero matrix, exactly."""
    beta0 = bundle_operator(rep, 0)
    proj = beta0 @ beta0.adjoint()
    self_adjoint = proj == proj.adjoint()
    idempotent = (proj @ proj) == proj
    difference = proj.mismatches(proj.adjoint() @ proj)
    # a column holds one entry, so a fixed vacuum has nothing else in its column
    fixes_vacua = all(proj.image[pos] == pos and proj.phase[pos] == 0
                      for pos in rep.vacuum_positions())
    ok = self_adjoint and idempotent and not difference and fixes_vacua
    return {
        "ok": ok,
        "self_adjoint": self_adjoint,
        "idempotent": idempotent,
        "difference_entries": [list(m) for m in difference],
        "fixes_vacua": fixes_vacua,
    }

"""Truncated weakly monotone Fock space and its generator matrices.

The weakly monotone Fock space over an ``n``-dimensional one-particle space
has an orthonormal basis of weakly decreasing simple tensors; those are in
bijection with count vectors mu = (mu_1, ..., mu_n), where mu_j is the
multiplicity of the letter ``e_j``.  The all-zero vector labels the vacuum.

Truncation keeps every state of total degree ``<= max_degree``.  Creators
are cut at the boundary (the would-be degree ``max_degree + 1`` component is
dropped), so a creator matrix is exact on states of degree ``< max_degree``
and annihilators are exact everywhere.  Operator identities are therefore
asserted only on a guard band: basis vectors whose degree leaves room for
the deepest intermediate creation excursion of the words being compared.

Basis order is graded (by total degree), then lexicographic on the reversed
count vector (mu_n, ..., mu_1), as :func:`iter_ranked_indices` walks it.
Position 0 is the vacuum and the states of degree ``<= d`` form a prefix.

Lemma: combinations of words, each with at most A annihilators ``a_j``
(j >= 1), agree on the untruncated space iff they agree on every state of
degree ``<= A + 1``.  Proof: a state is a stack of letters, largest on top;
a generator reads only the top, and ``a0`` only whether the stack is empty.
A word strips at most A letters, so on ``t (x) b`` with ``t`` of degree
A + 1 it never reaches ``b`` and gives ``w(t) (x) b``; as ``v -> v (x) b``
is linear and injective, a difference of combinations vanishes on
``t (x) b`` iff it vanishes on ``t``.  The bound is tight: ``a0 a3`` and
``a3`` (A = 1) agree up to degree 1 and differ on ``e3 (x) e3``.  So a
guarded band that reaches degree A + 1 decides the untruncated identity.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .sparse import PhaseMatrix, SparseOp, frac_str

MultiIndex = Tuple[int, ...]
Ranked = Tuple[MultiIndex, Tuple[int, ...]]  # a count vector and its exponents
Block = Tuple[int, int, MultiIndex, Tuple[int, ...]]  # total, tail, upper, upper_ranks


class TruncationParams(namedtuple("TruncationParams", "n max_degree")):
    """Number of generators and the maximal retained tensor degree."""

    __slots__ = ()

    def __new__(cls, n: int, max_degree: int) -> "TruncationParams":
        if n < 2:
            raise ValueError("need at least two generators, got n=%d" % n)
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1, got %d" % max_degree)
        return tuple.__new__(cls, (n, max_degree))

    @property
    def basis_size(self) -> int:
        return comb(self.max_degree + self.n, self.n)

    def degree_prefix(self, degree: int) -> int:
        """Number of basis states of total degree ``<= degree`` (a prefix)."""
        d = min(degree, self.max_degree)
        if d < 0:
            return 0
        return comb(d + self.n, self.n)


def top_letter(mu: MultiIndex) -> int:
    """Largest letter present (1-based); 0 for the vacuum."""
    for j in range(len(mu), 0, -1):
        if mu[j - 1]:
            return j
    return 0


def bottom_letter(mu: MultiIndex) -> int:
    """Smallest letter present (1-based); 0 for the vacuum."""
    for j in range(1, len(mu) + 1):
        if mu[j - 1]:
            return j
    return 0


def _ranked_blocks(total: int, parts: int, tail: int, upper: MultiIndex,
                   upper_ranks: Tuple[int, ...]) -> Iterator[Block]:
    # Runs of letters 1..parts >= 3 of degree ``total`` below ``upper`` (degree ``tail``),
    # letters 3..parts ascending in the lexicographic order of the reversed tuple.
    for top in range(total + 1):
        below, ranks = tail + top, (tail + top if top else 0,) + upper_ranks
        if parts == 3:
            yield total - top, below, (top,) + upper, ranks
        else:
            yield from _ranked_blocks(total - top, parts - 1, below, (top,) + upper, ranks)


def iter_ranked_blocks(n: int, cap: int) -> Iterator[Block]:
    """The walk in runs ``(total, tail, upper, upper_ranks)``: letters 3..n
    fixed at ``upper`` (degree ``tail``), letters 1 and 2 sharing ``total``."""
    for d in range(cap + 1):
        yield from _ranked_blocks(d, n, 0, (), ()) if n > 2 else ((d, 0, (), ()),)


def iter_ranked_indices(n: int, cap: int) -> Iterator[Ranked]:
    """All count vectors ``mu`` over ``n >= 1`` letters of degree ``<= cap``,
    graded, each with its exponents: the one definition of the basis order.

    The exponent ``r_k(mu)`` of letter k is the tail degree ``mu_k + ... +
    mu_n``, or 0 where ``mu_k = 0``.  The walk carries the upper letters'
    tail degree down from letter n and expands each run of
    :func:`iter_ranked_blocks` in one flat loop, cheaper on short runs than
    :func:`run_columns`, which gives the same rows as columns.
    """
    for total, tail, upper, upper_ranks in iter_ranked_blocks(n, cap):
        if n == 1:  # a run is one vector, as for a boundary tail above pivot n - 1
            yield (total,), (total,)
            continue
        whole = tail + total
        for top in range(total + 1):
            yield ((total - top, top) + upper,
                   (whole if top < total else 0, tail + top if top else 0) + upper_ranks)


def run_columns(run: Block) -> Tuple[Tuple[Sequence[int], ...], Tuple[Sequence[int], ...]]:
    """A run (``n >= 2``) as re-readable columns of its letters, letter 2
    climbing from 0, and of their exponents: r_1 is ``tail + total`` but 0 at
    the last vector, r_2 is 0 and then climbs from ``tail + 1``."""
    total, tail, upper, upper_ranks = run
    size = total + 1
    return ((range(total, -1, -1), range(size), *[(u,) * size for u in upper]),
            ((tail + total,) * total + (0,), (0, *range(tail + 1, tail + size)),
             *[(r,) * size for r in upper_ranks]))


def indices_up_to(n: int, cap: int) -> List[MultiIndex]:
    """All count vectors over ``n`` letters of degree ``<= cap``, graded."""
    return [mu for mu, _ in iter_ranked_indices(n, cap)]


@lru_cache(maxsize=None)
def enumerate_basis(params: TruncationParams) -> Tuple[MultiIndex, ...]:
    """All count vectors of degree ``<= max_degree`` in graded order."""
    return tuple(mu for mu, _ in iter_ranked_indices(params.n, params.max_degree))


@lru_cache(maxsize=None)
def basis_index(params: TruncationParams) -> Dict[MultiIndex, int]:
    return {mu: i for i, mu in enumerate(enumerate_basis(params))}


@lru_cache(maxsize=None)
def basis_degrees(params: TruncationParams) -> Tuple[int, ...]:
    return tuple(map(sum, enumerate_basis(params)))


@lru_cache(maxsize=None)
def column_map(params: TruncationParams, index: int, starred: bool) -> PhaseMatrix:
    """Generator action as an order-1 :class:`PhaseMatrix`.

    Every generator sends each basis vector to a single basis vector or to
    zero, so its column images are a faithful matrix representation.
    """
    if starred:
        if not 1 <= index <= params.n:
            raise ValueError("creator index must be in 1..%d, got %d" % (params.n, index))
    else:
        if not 0 <= index <= params.n:
            raise ValueError("annihilator index must be in 0..%d, got %d" % (params.n, index))
    basis = enumerate_basis(params)
    lookup = basis_index(params)
    out = [-1] * len(basis)
    if index == 0:
        out[0] = 0  # vacuum projection
        return PhaseMatrix(out)
    for pos, mu in enumerate(basis):
        if starred:
            # add e_index on top: legal iff no larger letter is present
            if top_letter(mu) <= index and sum(mu) + 1 <= params.max_degree:
                img = mu[: index - 1] + (mu[index - 1] + 1,) + mu[index:]
                out[pos] = lookup[img]
        else:
            # strip e_index from the top: legal iff it is the top letter
            if mu[index - 1] >= 1 and top_letter(mu) == index:
                img = mu[: index - 1] + (mu[index - 1] - 1,) + mu[index:]
                out[pos] = lookup[img]
    return PhaseMatrix(out)


class Tally:
    """The failure books of one check: every failure is counted, and only
    the first one's payload is built, by calling the ``payload`` given to
    :meth:`fail`.  A check that passes never calls it."""

    __slots__ = ("failures", "first")

    def __init__(self) -> None:
        self.failures = 0
        self.first: Optional[dict] = None

    def fail(self, payload: Callable[[], Optional[dict]]) -> None:
        if not self.failures:
            self.first = payload()
        self.failures += 1


def check_guarded_identity(params: TruncationParams, lhs: SparseOp, rhs: SparseOp,
                           guard: int) -> Tuple[int, Tally, bool]:
    """Compare both sides on the guarded subspace, as ``(cases, tally, artifact)``.

    ``guard`` is the maximal intermediate creation excursion of the words
    realized by either side; the identity is asserted only on the ``cases``
    basis vectors of degree ``<= max_degree - guard``, where truncated
    creators act exactly like their untruncated counterparts.  Differing
    bands are one failure, whose payload shows the lowest differing column.
    ``artifact`` is set when the bands agree but the cut top layers differ:
    a consequence of truncation, not of the identity being false.
    """
    if lhs.dim != rhs.dim:
        raise ValueError("dimension mismatch between sides: %d vs %d" % (lhs.dim, rhs.dim))
    if lhs.dim != params.basis_size:
        raise ValueError("operators not built over the given parameters")
    if not 0 <= guard <= params.max_degree:
        raise ValueError("guard must lie in 0..max_degree")
    cutoff = params.degree_prefix(params.max_degree - guard)
    left, right = lhs.restrict_columns(cutoff), rhs.restrict_columns(cutoff)
    tally = Tally()
    if left != right:
        col = min(c for (_, c), _ in left.entries.items() ^ right.entries.items())
        tally.fail(lambda: {
            "basis_position": col,
            "multi_index": list(enumerate_basis(params)[col]),
            "lhs_column": _column(left, col),
            "rhs_column": _column(right, col),
        })
    return cutoff, tally, not tally.failures and lhs != rhs


def _column(op: SparseOp, col: int) -> List[list]:
    return [[r, frac_str(v)] for (r, c), v in sorted(op.entries.items()) if c == col]

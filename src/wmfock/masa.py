"""The diagonal subalgebra: conditional expectation and rank-one projections.

The diagonal operators with respect to the canonical truncated basis form a
maximal abelian picture at finite scale; this module provides the two
computable ingredients of that statement:

* the conditional expectation ``E`` extracting the diagonal of an operator,
  together with its symbolic counterpart on normal monomials (a monomial is
  diagonal exactly when its creation and annihilation parts coincide), and
* the combination of diagonal projections ``P_mu`` whose value is the
  rank-one projection onto a single basis state.

On a guarded band these checks give maximality, ``D' ∩ W = D`` for the
diagonal D in the word algebra W: by ``rank-one-projections`` each ``e_cc``
lies in the span of the ``P_nu``, so T in ``D' ∩ W`` equals its expectation
E(T) there, and by ``expectation-of-monomials`` E maps every normal
monomial, hence all of W, into D (the derivation is in the README)."""

from __future__ import annotations

from typing import Dict, Union

from .fock import MultiIndex, TruncationParams, basis_index, bottom_letter
from .sparse import PhaseMatrix, SparseOp
from .words import NormalForm, NormalMonomial


def expectation(op: Union[SparseOp, PhaseMatrix]) -> SparseOp:
    """Conditional expectation onto the diagonal subalgebra.

    Keeps exactly the diagonal matrix entries of a combination or of a
    word's order-1 map, as a diagonal :class:`SparseOp`; idempotent,
    unital, linear, and positive (diagonal entries of T*T are sums of
    squares).
    """
    return SparseOp(op.dim, {(c, c): v for c, v in op.diagonal().items()})


def expectation_of_monomial(monomial: NormalMonomial) -> NormalForm:
    """Symbolic expectation: a monomial survives iff it is diagonal.

    Off-diagonal monomials have no diagonal matrix entries at all, so their
    expectation vanishes; diagonal ones are fixed points.
    """
    if monomial.is_diagonal:
        return NormalForm({monomial: 1})
    return NormalForm()


def rank_one_projection(mu: MultiIndex, n: int) -> NormalForm:
    """The rank-one projection onto the basis state ``mu`` as a P-combination.

    For ``mu = 0`` this is the vacuum projection ``a0`` itself.  Otherwise,
    with ``k`` the smallest letter present in ``mu``,

        rank_one(mu) = P_mu - sum_{h=1}^{k} P_(mu + e_h).

    The subtracted projections are precisely the subprojections of ``P_mu``
    obtained by deepening the pivot letter or by inserting a letter below
    it; they are mutually orthogonal and exhaust the range of ``P_mu``
    except for the state ``mu``.  Slots above ``k`` must not be subtracted:
    ``P_(mu + e_h)`` with ``h > k`` is not dominated by ``P_mu`` and would
    push the combination below zero.
    """
    mu = tuple(mu)
    if len(mu) != n:
        raise ValueError("multi-index of length %d, expected %d" % (len(mu), n))
    if not any(mu):
        return NormalForm({NormalMonomial(mu, True, mu): 1})
    pivot = bottom_letter(mu)
    terms: Dict[NormalMonomial, int] = {NormalMonomial(mu, False, mu): 1}
    for h in range(1, pivot + 1):
        bumped = mu[: h - 1] + (mu[h - 1] + 1,) + mu[h:]
        terms[NormalMonomial(bumped, False, bumped)] = -1
    return NormalForm(terms)


def matrix_rank_one(mu: MultiIndex, params: TruncationParams) -> SparseOp:
    """The expected matrix: a single 1 at the basis position of ``mu``."""
    pos = basis_index(params)[tuple(mu)]
    return SparseOp(params.basis_size, {(pos, pos): 1})

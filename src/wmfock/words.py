"""Words in the generators and their normal forms.

A word is a finite sequence of generator symbols ``a0, ..., an`` and starred
symbols ``a1*, ..., an*`` (the leftmost symbol acts last, matching operator
composition; ``a0`` is the vacuum projection and is its own adjoint).  Every
word reduces to an integer combination of *normal monomials*

    a*(nu) [P0] a(mu)

with creation indices non-increasing and annihilation indices non-decreasing
in reading order, and at most one vacuum projection between the blocks.
Letters and normal monomials are immutable tuple values that validate in
``__new__``; they compare, hash and sort as the tuple of their fields.

The reduction applies, to a fixpoint, the rule families

    R1  a_i a_j*  -> 0                      (i != j, both >= 1)
    R2  a_i a_i*  -> a0 + sum_{k<=i} a_k* a_k   (i < n);   a_n a_n* -> I
    R3  a_i* a_j* -> 0                      (i < j)
    R4  a_j a_i   -> 0                      (i < j, both >= 1)
    R5  a0 a0 -> a0;   a_j a0 -> 0;   a0 a_j* -> 0   (j >= 1)

always at the leftmost reducible position, merging duplicate terms after
each step.  Every rule has coefficient +1, so coefficients stay integers.
Soundness of the whole system is pinned by the matrix oracle: evaluating
the normal form must reproduce the direct product of generator matrices on
the truncation guard band (see :mod:`wmfock.fock`).

This module also hosts the combinatorial order ``nu < mu`` on projection
indices and the induced product rule for the diagonal projections
``P_mu = a*(mu) a(mu)``.  The order has a closed form: ``nu < mu`` exactly
when, at the highest letter k where the two indices differ, ``nu_k < mu_k``
and ``nu`` is zero below k.  Both :func:`precedes_pivot` and
:func:`projection_product` are one top-down pass over the letters.  The
``projections`` suite still checks the product rule against exact matrix
products of the truncated model.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from functools import lru_cache, reduce
from operator import itemgetter, matmul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .fock import MultiIndex, TruncationParams, column_map
from .sparse import PhaseMatrix, Scalar, SparseOp, frac_str


class WordSyntaxError(ValueError):
    """Malformed word text; carries the character position of the defect."""

    def __init__(self, position: int, message: str):
        super().__init__("position %d: %s" % (position, message))
        self.position = position


class GeneratorIndexError(ValueError):
    """A generator index outside the configured range 0..n."""


class GeneratorSymbol(namedtuple("GeneratorSymbol", "index starred")):
    """One letter of a word: index 0..n, starred for the adjoint.

    The field ``index`` shadows ``tuple.index``.
    """

    __slots__ = ()

    def __new__(cls, index: int, starred: bool = False) -> "GeneratorSymbol":
        if index < 0:
            raise ValueError("generator index must be nonnegative")
        if starred and index == 0:
            raise ValueError("a0 is self-adjoint; a0* is not a distinct symbol")
        return tuple.__new__(cls, (index, starred))

    def __str__(self) -> str:
        return "a%d%s" % (self.index, "*" if self.starred else "")


Word = Tuple[GeneratorSymbol, ...]

_TOKEN = re.compile(r"a(\d+)(\*)?")


def parse_word(text: str, n: int) -> Word:
    """Parse whitespace-separated tokens ``a<digits>[*]`` into a word.

    ``a0*`` is normalized to ``a0`` on the spot (the vacuum projection is
    self-adjoint).  Raises :class:`WordSyntaxError` with the offending
    position, or :class:`GeneratorIndexError` for indices above ``n``.
    """
    symbols: List[GeneratorSymbol] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise WordSyntaxError(pos, "expected a token 'a<digits>' optionally followed by '*'")
        index = int(match.group(1))
        if index > n:
            raise GeneratorIndexError("position %d: index %d out of range 0..%d" % (pos, index, n))
        starred = match.group(2) is not None and index != 0
        symbols.append(GeneratorSymbol(index, starred))
        pos = match.end()
        if pos < len(text) and not text[pos].isspace():
            raise WordSyntaxError(pos, "tokens must be separated by whitespace")
    if not symbols:
        raise WordSyntaxError(0, "empty word")
    return tuple(symbols)


def word_text(word: Iterable[GeneratorSymbol]) -> str:
    return " ".join(str(sym) for sym in word)


def creation_guard(word: Iterable[GeneratorSymbol]) -> int:
    """Deepest intermediate creation excursion when the word acts on a state.

    Scanning right to left (the order of application), creators raise the
    degree by one, annihilators lower it by one, and the vacuum projection
    leaves it unchanged on every state it does not kill.  The guard is the
    maximum of the running offset, floored at zero.
    """
    offset = 0
    best = 0
    for sym in reversed(tuple(word)):
        if sym.starred:
            offset += 1
            if offset > best:
                best = offset
        elif sym.index >= 1:
            offset -= 1
    return best


# ---------------------------------------------------------------------------
# normal monomials and normal forms
# ---------------------------------------------------------------------------


class NormalMonomial(namedtuple("NormalMonomial", "creation vacuum annihilation")):
    """A monomial a*(creation) [P0] a(annihilation) in count-vector form."""

    __slots__ = ()

    def __new__(cls, creation: MultiIndex, vacuum: bool,
                annihilation: MultiIndex) -> "NormalMonomial":
        if len(creation) != len(annihilation):
            raise ValueError("creation and annihilation parts must have equal length")
        if min(creation, default=0) < 0 or min(annihilation, default=0) < 0:
            raise ValueError("count vectors must be nonnegative")
        return tuple.__new__(cls, (creation, vacuum, annihilation))

    @property
    def n(self) -> int:
        return len(self.creation)

    @classmethod
    def identity(cls, n: int) -> "NormalMonomial":
        zero = (0,) * n
        return cls(zero, False, zero)

    @classmethod
    def vacuum_projection(cls, n: int) -> "NormalMonomial":
        zero = (0,) * n
        return cls(zero, True, zero)

    @classmethod
    def projection(cls, mu: MultiIndex) -> "NormalMonomial":
        """P_mu = a*(mu) a(mu)."""
        mu = tuple(mu)
        return cls(mu, False, mu)

    @classmethod
    def point_projection(cls, mu: MultiIndex) -> "NormalMonomial":
        """P0_mu = a*(mu) P0 a(mu), the rank-one projection onto the state mu."""
        mu = tuple(mu)
        return cls(mu, True, mu)

    @property
    def is_diagonal(self) -> bool:
        return self.creation == self.annihilation

    def word(self) -> Word:
        return tuple(GeneratorSymbol(code >> 1, bool(code & 1)) for code in self.codes())

    def codes(self) -> Tuple[int, ...]:
        out: List[int] = []
        for j in range(self.n, 0, -1):
            out.extend((2 * j + 1,) * self.creation[j - 1])
        if self.vacuum:
            out.append(0)
        for j in range(1, self.n + 1):
            out.extend((2 * j,) * self.annihilation[j - 1])
        return tuple(out)

    def render(self) -> str:
        pieces: List[str] = []
        if any(self.creation):
            pieces.append("a*(%s)" % ",".join(str(x) for x in self.creation))
        if self.vacuum:
            pieces.append("P0")
        if any(self.annihilation):
            pieces.append("a(%s)" % ",".join(str(x) for x in self.annihilation))
        return " ".join(pieces) if pieces else "I"


class NormalForm(dict):
    """A finite linear combination of normal monomials, as a dict from each
    monomial to its nonzero coefficient.  Rewriting only produces integer
    coefficients; a rational one passed in by a caller is kept as given."""

    __slots__ = ()

    def __init__(self, terms: Optional[Mapping[NormalMonomial, Scalar]] = None):
        super().__init__({mono: coeff for mono, coeff in terms.items() if coeff} if terms else ())

    def __add__(self, other: Mapping[NormalMonomial, Scalar]) -> "NormalForm":
        out = NormalForm(self)
        for mono, coeff in other.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return out

    def diagonal_part(self) -> "NormalForm":
        return NormalForm({m: c for m, c in self.items() if m.is_diagonal})

    def render(self) -> str:
        if not self:
            return "0"
        # monomials are unique keys, so sorting the items never compares coefficients
        return " + ".join("%s · %s" % (frac_str(c), m.render()) for m, c in sorted(self.items()))

    def __repr__(self) -> str:
        return "NormalForm(%s)" % self.render()


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------
#
# Internally a symbol is the integer 2*index + starred; rewriting works on
# tuples of these codes.


def _code(sym: GeneratorSymbol) -> int:
    return (sym.index << 1) | (1 if sym.starred else 0)


def _find_redex(codes: Tuple[int, ...], n: int):
    """Leftmost reducible adjacent pair, as (position, replacement words)."""
    for pos in range(len(codes) - 1):
        a, b = codes[pos], codes[pos + 1]
        ai, astar = a >> 1, a & 1
        bi, bstar = b >> 1, b & 1
        if astar:
            if bstar and ai < bi:
                return pos, ()                                  # R3
            continue
        if ai == 0:
            if b == 0:
                return pos, ((0,),)                             # R5: a0 a0 -> a0
            if bstar:
                return pos, ()                                  # R5: a0 a_j* -> 0
            continue
        if bstar:
            if ai != bi:
                return pos, ()                                  # R1
            if ai == n:
                return pos, ((),)                               # R2, top index
            reps = [(0,)]
            reps.extend((2 * k + 1, 2 * k) for k in range(1, ai + 1))
            return pos, tuple(reps)                             # R2
        if bi == 0:
            return pos, ()                                      # R5: a_j a0 -> 0
        if bi < ai:
            return pos, ()                                      # R4
    return None


def _queue_rewrite(codes: Tuple[int, ...], n: int) -> Dict[Tuple[int, ...], int]:
    """Reduce a code word to normal words, leftmost redex first.

    Terms with identical words are merged after every step; the map returned
    carries only nonzero coefficients.  Termination: each R2 step strictly
    lowers the number of (annihilator, creator) inversions of every produced
    term, and every other rule shortens or kills its term.
    """
    queue: Dict[Tuple[int, ...], int] = {tuple(codes): 1}
    normal: Dict[Tuple[int, ...], int] = {}
    while queue:
        word = next(iter(queue))
        coeff = queue.pop(word)
        hit = _find_redex(word, n)
        if hit is None:
            acc = normal.get(word, 0) + coeff
            if acc:
                normal[word] = acc
            else:
                normal.pop(word, None)
            continue
        pos, replacements = hit
        head, tail = word[:pos], word[pos + 2:]
        for rep in replacements:
            new_word = head + rep + tail
            acc = queue.get(new_word, 0) + coeff
            if acc:
                queue[new_word] = acc
            else:
                queue.pop(new_word, None)
    return normal


def _monomial_from_codes(codes: Tuple[int, ...], n: int) -> NormalMonomial:
    creation = [0] * n
    annihilation = [0] * n
    vacuum = False
    i = 0
    last = n + 1
    while i < len(codes) and codes[i] & 1:
        idx = codes[i] >> 1
        if idx > last:
            raise ValueError("creation block not ordered; rewriting left a redex")
        creation[idx - 1] += 1
        last = idx
        i += 1
    if i < len(codes) and codes[i] == 0:
        vacuum = True
        i += 1
    last = 0
    while i < len(codes):
        code = codes[i]
        idx = code >> 1
        if code & 1 or idx == 0 or idx < last:
            raise ValueError("annihilation block not ordered; rewriting left a redex")
        annihilation[idx - 1] += 1
        last = idx
        i += 1
    return NormalMonomial(tuple(creation), vacuum, tuple(annihilation))


@lru_cache(maxsize=None)
def _left_extend(code: int, monomial: NormalMonomial, n: int) -> Tuple[Tuple[NormalMonomial, int], ...]:
    """Normal form of (one symbol) · (one normal monomial)."""
    reduced = _queue_rewrite((code,) + monomial.codes(), n)
    items = [(_monomial_from_codes(w, n), c) for w, c in reduced.items()]
    items.sort(key=itemgetter(0))
    return tuple(items)


def _validate_indices(word: Word, n: int) -> None:
    for sym in word:
        if sym.index > n:
            raise GeneratorIndexError("index %d out of range 0..%d" % (sym.index, n))


def rewrite(word: Iterable[GeneratorSymbol], n: int) -> NormalForm:
    """Reduce a word to its normal form.

    The word is absorbed symbol by symbol from the right into an already
    normal combination; each absorption runs the leftmost-redex engine on a
    short word and is memoized, so repeated subwords cost nothing.  The
    result is identical to reducing the whole word in one sweep.
    """
    word = tuple(word)
    _validate_indices(word, n)
    terms: Dict[NormalMonomial, int] = {NormalMonomial.identity(n): 1}
    for sym in reversed(word):
        code = _code(sym)
        acc: Dict[NormalMonomial, int] = {}
        for mono, coeff in terms.items():
            for new_mono, factor in _left_extend(code, mono, n):
                val = acc.get(new_mono, 0) + coeff * factor
                if val:
                    acc[new_mono] = val
                else:
                    del acc[new_mono]
        terms = acc
        if not terms:
            break
    return NormalForm(terms)


# ---------------------------------------------------------------------------
# projection order and products
# ---------------------------------------------------------------------------


class ProductResult(Enum):
    """Outcome of multiplying two diagonal projections P_mu · P_nu."""

    ZERO = "zero"
    LEFT_SURVIVES = "left"
    RIGHT_SURVIVES = "right"


# Enum members bound once: the product rule runs millions of times per suite.
_ZERO_PRODUCT = ProductResult.ZERO
_LEFT_PRODUCT = ProductResult.LEFT_SURVIVES
_RIGHT_PRODUCT = ProductResult.RIGHT_SURVIVES


def precedes_pivot(nu: MultiIndex, mu: MultiIndex) -> Optional[int]:
    """The pivot letter witnessing ``nu < mu``, or None.

    ``nu < mu`` holds when some letter k has equal tails above it
    (nu_j = mu_j for j > k), a strict gap at k (nu_k < mu_k), and nothing of
    nu below it (nu_j = 0 for j < k).  Equal tails above k make k the
    highest letter where the indices differ, so one top-down pass finds the
    only candidate and checks the other two conditions there.  Pivots run
    over the full range 1..n.
    """
    k = len(mu)
    if len(nu) != k:
        raise ValueError("length mismatch: %d vs %d" % (len(nu), k))
    while k:
        k -= 1
        nu_k, mu_k = nu[k], mu[k]
        if nu_k != mu_k:
            return k + 1 if nu_k < mu_k and not any(nu[:k]) else None
    return None


def precedes(nu: MultiIndex, mu: MultiIndex) -> bool:
    """Strict order on projection indices; false on equal arguments."""
    return precedes_pivot(nu, mu) is not None


def projection_product(mu: MultiIndex, nu: MultiIndex) -> ProductResult:
    """Resolve P_mu · P_nu as P_mu, P_nu, or 0.

    Equal indices and ``nu < mu`` leave the left factor; ``mu < nu`` leaves
    the right factor; incomparable indices annihilate.  This matches the
    exact matrix product on the truncated model whenever both indices fit.
    The highest differing letter decides: the index that is smaller there
    precedes the other exactly when it has nothing below that letter.
    """
    k = len(mu)
    if len(nu) != k:
        raise ValueError("length mismatch: %d vs %d" % (k, len(nu)))
    while k:
        k -= 1
        mu_k, nu_k = mu[k], nu[k]
        if mu_k != nu_k:
            if nu_k < mu_k:
                return _ZERO_PRODUCT if any(nu[:k]) else _LEFT_PRODUCT
            return _ZERO_PRODUCT if any(mu[:k]) else _RIGHT_PRODUCT
    return _LEFT_PRODUCT


# ---------------------------------------------------------------------------
# evaluation on the truncated model (the oracle bridge)
# ---------------------------------------------------------------------------


def _compose_codes(codes: Sequence[int], params: TruncationParams) -> PhaseMatrix:
    """Product of the generator maps spelled by ``codes``, leftmost last."""
    if not codes:
        return PhaseMatrix.identity(params.basis_size)
    return reduce(matmul, [column_map(params, code >> 1, bool(code & 1)) for code in codes])


@lru_cache(maxsize=None)
def _monomial_map(monomial: NormalMonomial, params: TruncationParams) -> PhaseMatrix:
    return _compose_codes(monomial.codes(), params)


def evaluate(nf: NormalForm, params: TruncationParams,
             limit: Optional[int] = None) -> SparseOp:
    """Exact matrix of a normal form on the truncated basis, only its columns
    ``c < limit`` when a limit is given."""
    terms = []
    for monomial, coeff in nf.items():
        if monomial.n != params.n:
            raise ValueError("monomial over %d letters, parameters over %d"
                             % (monomial.n, params.n))
        terms.append((coeff, _monomial_map(monomial, params)))
    return SparseOp.from_terms(params.basis_size, terms, limit)


def evaluate_word(word: Iterable[GeneratorSymbol], params: TruncationParams) -> PhaseMatrix:
    """Direct product of the generator matrices of a word, as an order-1 map.

    This path never touches the rewriting engine; it is the independent
    oracle against which normal forms are checked.
    """
    word = tuple(word)
    _validate_indices(word, params.n)
    return _compose_codes(tuple(_code(s) for s in word), params)

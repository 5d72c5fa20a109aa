"""Exact operators on the truncated basis, one representation per kind.

* :class:`PhaseMatrix`, the kernel for monomial operators: generators,
  words, normal monomials and gauge unitaries send each basis vector to at
  most one basis vector, with weight 1 or a root of unity.  They are stored
  by column: ``image[c]`` is the row of column ``c``'s one entry (-1 for a
  zero column) and ``phase[c]`` its exponent modulo ``order``.  A 0/1 Fock
  map is the case ``order = 1``; a word is one, and products, comparisons
  and diagonals of words are read from its arrays.
* :class:`SparseOp`, for integer or rational linear combinations (sums of
  words, evaluated normal forms, diagonals): a map from ``(row, col)`` to a
  nonzero scalar, kept as given (int or Fraction).  Combinations of 0/1
  maps are built by :meth:`SparseOp.from_terms`.  Its scalars are real, so
  its adjoint is the transpose.  Its product is the dictionary reference
  the kernel's products are tested against.

Everything is exact: equal operators have equal arrays or entry maps, so
verdicts need no tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Coord = Tuple[int, int]
Scalar = Union[int, Fraction]


def frac_str(value: Scalar) -> str:
    """Render an int or a Fraction as ``p/q`` (denominator always shown)."""
    return "%d/%d" % (value.numerator, value.denominator)


class SparseOp:
    """Square sparse matrix with exact entries, each kept as given."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Optional[Mapping[Coord, Scalar]] = None):
        self.dim = dim
        self.entries: Dict[Coord, Scalar] = {}
        if entries:
            for (r, c), val in entries.items():
                if not (0 <= r < dim and 0 <= c < dim):
                    raise ValueError("entry (%d, %d) outside %dx%d matrix" % (r, c, dim, dim))
                if val:
                    self.entries[r, c] = val

    @classmethod
    def from_terms(cls, dim: int, terms: Iterable[Tuple[Scalar, "PhaseMatrix"]],
                   limit: Optional[int] = None) -> "SparseOp":
        """The combination ``sum(coeff * map)`` of order-1 maps, keeping only
        the columns ``c < limit`` when a limit is given.

        Coefficients are kept as given, integer or rational; entries that
        cancel are dropped.
        """
        out: Dict[Coord, Scalar] = {}
        for coeff, matrix in terms:
            if matrix.order != 1:
                raise ValueError("only an order-1 map has rational entries")
            if len(matrix.image) != dim:
                raise ValueError("dimension mismatch: %d vs %d" % (len(matrix.image), dim))
            image = matrix.image if limit is None else matrix.image[:max(limit, 0)]
            for col, row in enumerate(image):
                if row < 0:
                    continue
                acc = out.get((row, col), 0) + coeff
                if acc:
                    out[row, col] = acc
                else:
                    del out[row, col]
        op = cls(dim)
        op.entries = out
        return op

    @classmethod
    def identity(cls, dim: int) -> "SparseOp":
        return cls(dim, {(i, i): 1 for i in range(dim)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOp):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self) -> str:
        return "SparseOp(dim=%d, entries=%d)" % (self.dim, len(self.entries))

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))
        by_col: Dict[int, list] = {}
        for (r, c), val in self.entries.items():
            by_col.setdefault(c, []).append((r, val))
        out: Dict[Coord, Scalar] = {}
        for (k, c), bval in other.entries.items():
            for r, aval in by_col.get(k, ()):
                coord = (r, c)
                acc = out.get(coord, 0) + aval * bval
                if acc:
                    out[coord] = acc
                else:
                    del out[coord]
        result = SparseOp(self.dim)
        result.entries = out
        return result

    def transpose(self) -> "SparseOp":
        result = SparseOp(self.dim)
        result.entries = {(c, r): val for (r, c), val in self.entries.items()}
        return result

    def diagonal(self, limit: Optional[int] = None) -> Dict[int, Scalar]:
        """Diagonal entries by position, only ``c < limit`` when a limit is given."""
        return {r: val for (r, c), val in self.entries.items()
                if r == c and (limit is None or c < limit)}

    def restrict_columns(self, ncols: int) -> "SparseOp":
        """Drop every entry whose column is ``>= ncols`` (guard-band filter)."""
        result = SparseOp(self.dim)
        result.entries = {coord: val for coord, val in self.entries.items() if coord[1] < ncols}
        return result


class PhaseMatrix:
    """Monomial operator stored by column, with root-of-unity entries.

    A product is array indexing and always has one entry per column; only
    the adjoint can fail to be representable.  A zero column has phase 0,
    so equal operators have equal tuples.
    """

    __slots__ = ("image", "phase", "order")

    def __init__(self, image: Sequence[int], order: int = 1,
                 phase: Optional[Sequence[int]] = None):
        if order < 1:
            raise ValueError("order must be >= 1, got %d" % order)
        image = tuple(image)
        dim = len(image)
        for col, row in enumerate(image):
            if not -1 <= row < dim:
                raise ValueError("column %d maps to row %d outside -1..%d" % (col, row, dim - 1))
        if phase is None:
            phase = (0,) * dim
        elif len(phase) != dim:
            raise ValueError("%d phases for %d columns" % (len(phase), dim))
        else:
            phase = tuple(e % order if row >= 0 else 0 for row, e in zip(image, phase))
        self.image = image
        self.phase = phase
        self.order = order

    @classmethod
    def _from_arrays(cls, image: Tuple[int, ...], phase: Tuple[int, ...],
                     order: int) -> "PhaseMatrix":
        # arrays computed from valid operators are valid; skip the checks
        out = cls.__new__(cls)
        out.image = image
        out.phase = phase
        out.order = order
        return out

    @classmethod
    def identity(cls, dim: int, order: int = 1) -> "PhaseMatrix":
        return cls(range(dim), order)

    @property
    def dim(self) -> int:
        return len(self.image)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseMatrix):
            return NotImplemented
        return (self.order == other.order and self.image == other.image
                and self.phase == other.phase)

    def _require_same_shape(self, other: "PhaseMatrix") -> None:
        if len(self.image) != len(other.image) or self.order != other.order:
            raise ValueError("phase matrix shape/order mismatch")

    def __matmul__(self, other: "PhaseMatrix") -> "PhaseMatrix":
        self._require_same_shape(other)
        # a zero column of ``other`` (row -1) reads the appended -1
        outer = self.image + (-1,)
        if len(outer) > 2:
            image = itemgetter(*other.image)(outer)  # one gather in C
        else:  # itemgetter returns a bare item for one index, fails for none
            image = tuple([outer[k] for k in other.image])
        order = self.order
        if order == 1:
            # the trivial group: every exponent is 0, as in ``other.phase``
            return PhaseMatrix._from_arrays(image, other.phase, 1)
        left = self.phase
        phase = tuple([(left[k] + e) % order if row >= 0 else 0
                       for k, e, row in zip(other.image, other.phase, image)])
        return PhaseMatrix._from_arrays(image, phase, order)

    def adjoint(self) -> "PhaseMatrix":
        """Conjugate transpose; raises ArithmeticError when two columns share
        a row, since the adjoint would then have two entries in one column."""
        dim, order = len(self.image), self.order
        image = [-1] * dim
        phase = [0] * dim
        for col, row in enumerate(self.image):
            if row < 0:
                continue
            if image[row] >= 0:
                raise ArithmeticError("columns %d and %d share row %d" % (image[row], col, row))
            image[row] = col
            phase[row] = -self.phase[col] % order
        return PhaseMatrix._from_arrays(tuple(image), tuple(phase), order)

    def scaled(self, exponent: int) -> "PhaseMatrix":
        """Multiply every entry by the root with the given exponent."""
        order = self.order
        phase = tuple([(e + exponent) % order if row >= 0 else 0
                       for row, e in zip(self.image, self.phase)])
        return PhaseMatrix._from_arrays(self.image, phase, order)

    def mismatches(self, other: "PhaseMatrix") -> List[Tuple[int, int, Optional[int], Optional[int]]]:
        """Sorted (row, col, got, want) for every differing entry."""
        self._require_same_shape(other)
        if self.image == other.image and self.phase == other.phase:
            return []  # equal operators: two tuple compares, run in C
        out = []
        for col, (row, got, other_row, want) in enumerate(
                zip(self.image, self.phase, other.image, other.phase)):
            if row == other_row:
                if row >= 0 and got != want:
                    out.append((row, col, got, want))
                continue
            if row >= 0:
                out.append((row, col, got, None))
            if other_row >= 0:
                out.append((other_row, col, None, want))
        out.sort(key=lambda m: (m[0], m[1]))
        return out

    def is_zero(self) -> bool:
        return max(self.image, default=-1) < 0

    def diagonal(self, limit: Optional[int] = None) -> Dict[int, int]:
        """``{c: 1}`` for the columns ``c < limit`` (all columns when no limit
        is given) whose one entry is diagonal, ascending; order 1 only.

        These are the positions of the 1s on the diagonal of a 0/1 map,
        found without building the matrix.
        """
        if self.order != 1:
            raise ValueError("only an order-1 map has a rational diagonal")
        image = self.image
        stop = len(image) if limit is None else min(limit, len(image))
        return {c: 1 for c in range(stop) if image[c] == c}

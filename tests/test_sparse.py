"""Exact sparse matrix arithmetic and the monomial-operator kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wmfock.sparse import PhaseMatrix, SparseOp, frac_str


def to_op(matrix):
    """The 0/1 matrix of an order-1 map."""
    return SparseOp.from_terms(matrix.dim, [(1, matrix)])


def test_zero_entries_are_dropped():
    op = SparseOp(3, {(0, 0): Fraction(0), (1, 2): Fraction(1, 3)})
    assert op.entries == {(1, 2): Fraction(1, 3)}


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        SparseOp(2, {(2, 0): 1})


@pytest.mark.parametrize("coord", [(0, 2), (-1, 0), (0, -1)])
def test_entry_outside_the_columns_or_rows_rejected(coord):
    with pytest.raises(ValueError, match="outside 2x2 matrix"):
        SparseOp(2, {coord: 1})
    assert SparseOp(2, {(1, 1): 1}).entries == {(1, 1): 1}  # the last row and column


def test_addition_cancels_exactly():
    a = PhaseMatrix([-1, 0])  # the one entry (0, 1)
    b = PhaseMatrix([1, 0])   # the entries (1, 0) and (0, 1)
    op = SparseOp.from_terms(2, [(Fraction(1, 3), a), (Fraction(-1, 3), b), (2, b)])
    assert op.entries == {(0, 1): Fraction(2), (1, 0): Fraction(5, 3)}
    assert SparseOp.from_terms(2, [(1, a), (1, b), (-1, a), (-1, b)]).entries == {}
    assert SparseOp.from_terms(2, []) == SparseOp(2)


def test_from_terms_limit_is_the_guard_band_filter():
    terms = [(1, PhaseMatrix([1, 2, 0])), (-2, PhaseMatrix([0, -1, 2]))]
    full = SparseOp.from_terms(3, terms)
    for limit in range(-1, 5):
        assert SparseOp.from_terms(3, terms, limit) == full.restrict_columns(limit)


def test_from_terms_rejects_non_rational_or_mismatched_maps():
    with pytest.raises(ValueError):
        SparseOp.from_terms(2, [(1, PhaseMatrix([0, 1], 2))])
    with pytest.raises(ValueError):
        SparseOp.from_terms(3, [(1, PhaseMatrix([0, 1]))])


def test_matmul_matches_dense_arithmetic():
    a = SparseOp(3, {(0, 1): Fraction(1, 2), (2, 2): 3})
    b = SparseOp(3, {(1, 0): 4, (2, 2): Fraction(1, 3)})
    prod = a @ b
    assert prod.entries == {(0, 0): Fraction(2), (2, 2): Fraction(1)}


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        SparseOp(2) @ SparseOp(3)


def test_transpose_is_involutive():
    a = SparseOp(3, {(0, 1): Fraction(1, 2), (2, 0): -1})
    assert a.transpose().transpose() == a
    assert a.transpose().entries == {(1, 0): Fraction(1, 2), (0, 2): Fraction(-1)}


def test_restrict_columns():
    a = SparseOp(3, {(0, 1): Fraction(1, 2), (2, 2): 3})
    assert a.restrict_columns(2).entries == {(0, 1): Fraction(1, 2)}


def test_serialization_round_trip():
    assert frac_str(Fraction(-2, 7)) == "-2/7"
    assert frac_str(Fraction(3)) == "3/1"


# ---------------------------------------------------------------------------
# the monomial-operator kernel against a (row, col) -> exponent reference
# ---------------------------------------------------------------------------


class DictPhaseMatrix:
    """Reference: the dictionary-keyed phase matrix the kernel replaced.

    Entries map ``(row, col)`` to an exponent modulo ``order``; the product
    pairs entries through the shared index and fails loudly on anything a
    partial permutation cannot produce.
    """

    def __init__(self, dim, order, entries):
        self.dim = dim
        self.order = order
        self.entries = {coord: e % order for coord, e in entries.items()}

    def __matmul__(self, other):
        by_col = {}
        for (r, c), e in self.entries.items():
            assert c not in by_col, "left factor has two entries in one column"
            by_col[c] = (r, e)
        out = {}
        for (k, c), e2 in other.entries.items():
            hit = by_col.get(k)
            if hit is None:
                continue
            r, e1 = hit
            assert (r, c) not in out, "phase collision"
            out[r, c] = e1 + e2
        return DictPhaseMatrix(self.dim, self.order, out)

    def adjoint(self):
        return DictPhaseMatrix(self.dim, self.order,
                               {(c, r): -e for (r, c), e in self.entries.items()})

    def scaled(self, exponent):
        return DictPhaseMatrix(self.dim, self.order,
                               {coord: e + exponent for coord, e in self.entries.items()})

    def mismatches(self, other):
        out = []
        for coord in sorted(set(self.entries) | set(other.entries)):
            got = self.entries.get(coord)
            want = other.entries.get(coord)
            if got != want:
                out.append((coord[0], coord[1], got, want))
        return out


def as_dict(matrix):
    """The kernel's entries in the reference encoding."""
    return {(row, col): e for col, (row, e) in enumerate(zip(matrix.image, matrix.phase))
            if row >= 0}


def as_reference(matrix):
    return DictPhaseMatrix(matrix.dim, matrix.order, as_dict(matrix))


@st.composite
def partial_injection_pairs(draw):
    """Two random partial injections of one size and order, raw phases."""
    dim = draw(st.integers(0, 9))
    order = draw(st.integers(1, 8))

    def one():
        rows = draw(st.permutations(list(range(dim))))
        live = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
        image = [row if keep else -1 for row, keep in zip(rows, live)]
        phase = draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim))
        return PhaseMatrix(image, order, phase)

    return one(), one(), draw(st.integers(-20, 20))


@settings(max_examples=400, deadline=None)
@given(partial_injection_pairs())
def test_kernel_matches_dict_reference(triple):
    a, b, k = triple
    ra, rb = as_reference(a), as_reference(b)
    assert as_dict(a @ b) == (ra @ rb).entries
    assert as_dict(b @ a) == (rb @ ra).entries
    assert as_dict(a.adjoint()) == ra.adjoint().entries
    assert as_dict(a.scaled(k)) == ra.scaled(k).entries
    assert a.mismatches(b) == ra.mismatches(rb)
    assert a.mismatches(a.scaled(k)) == ra.mismatches(ra.scaled(k))
    assert a.mismatches(a) == []
    # zero columns keep exponent 0, so equality is array equality
    for result in (a @ b, a.adjoint(), a.scaled(k)):
        assert all(e == 0 for row, e in zip(result.image, result.phase) if row < 0)
    assert a.adjoint().adjoint() == a
    assert a @ PhaseMatrix.identity(a.dim, a.order) == a
    assert (a @ b).is_zero() == (not (ra @ rb).entries)
    if a.order == 1:
        assert to_op(a @ b) == to_op(a) @ to_op(b)
        assert to_op(a.adjoint()) == to_op(a).transpose()


@st.composite
def partial_maps_with_limit(draw):
    """A random order-1 partial map (rows may repeat) and a column limit."""
    dim = draw(st.integers(0, 12))
    image = draw(st.lists(st.integers(-1, dim - 1), min_size=dim, max_size=dim))
    return PhaseMatrix(image), draw(st.integers(-1, dim + 2))


@settings(max_examples=400, deadline=None)
@given(partial_maps_with_limit())
def test_diagonal_is_the_restricted_diagonal(pair):
    matrix, limit = pair
    diag = matrix.diagonal(limit)
    assert list(diag) == sorted(diag)
    op = to_op(matrix)
    want = {p: v for p, v in op.diagonal().items() if p < limit}
    assert diag == want
    assert op.diagonal(limit) == want
    assert matrix.diagonal() == op.diagonal()


def test_phase_matrix_order_one_ignores_phases():
    a = PhaseMatrix([1, 2, -1], 1, [5, 6, 7])
    assert a.phase == (0, 0, 0)
    assert (a @ a).image == (2, -1, -1)


def test_phase_matrix_adjoint_rejects_shared_row():
    # columns 0 and 1 both map to row 0: the adjoint would need two entries
    # in column 0, which the column-stored kernel cannot hold
    shared = PhaseMatrix([0, 0, 2], 4)
    with pytest.raises(ArithmeticError):
        shared.adjoint()
    # the product itself is always representable
    assert (shared @ shared).image == (0, 0, 2)


def test_phase_matrix_rejects_bad_arguments():
    with pytest.raises(ValueError):
        PhaseMatrix([0, 2], 4)  # row 2 outside a 2x2 matrix
    with pytest.raises(ValueError):
        PhaseMatrix([0, -2], 4)
    with pytest.raises(ValueError):
        PhaseMatrix([0, 1], 0)
    with pytest.raises(ValueError):
        PhaseMatrix([0, 1], 4, [1])
    with pytest.raises(ValueError):
        PhaseMatrix([0, 1], 4) @ PhaseMatrix([0, 1], 2)
    with pytest.raises(ValueError):
        PhaseMatrix([0, 1], 4).mismatches(PhaseMatrix([0, 1, 2], 4))
    with pytest.raises(ValueError):
        to_op(PhaseMatrix([0, 1], 2))
    with pytest.raises(ValueError):
        PhaseMatrix([0, 1], 2).diagonal()

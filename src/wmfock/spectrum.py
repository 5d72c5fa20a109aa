"""The Gelfand spectrum of the diagonal subalgebra, embedded in the unit cube.

Each projection index ``mu`` defines a multiplicative functional on the
diagonal projections via the order of :func:`wmfock.words.precedes`, and is
identified with the point ``x(mu)`` of ``[0, 1]^n`` whose k-th coordinate is
``1 - c**r_k(mu)`` for a fixed rational ``c`` in (0, 1).  Interior points are
the images of the finitely many indices of degree ``<= max_degree``;
boundary points realize the coordinatewise limits obtained by sending one
slot of the index to infinity, and are enumerated by a pivot letter, a block
of 0/1 bits below it, and a finite tail above it.

Since ``r_k <= max_degree``, every coordinate is one of the
``max_degree + 2`` values of :func:`coordinate_values`: 0, ``1 - c**r`` for
r = 1..max_degree, and 1, in increasing order.  A :class:`SpectrumPoint`
stores the integer rank of each coordinate in its configuration's table;
``point.coords(values)`` reads its exact Fraction coordinates from that
table.  Ranks order, group and key points exactly as their coordinates
would.  :func:`embed` computes the coordinates of an index from ``c``
alone, as an oracle that does not read the table.  Configurations,
boundary patterns, points and functional keys are immutable tuple values;
a configuration validates in ``__new__`` and keeps ``c`` as a Fraction.

The dataset is a stream.  :func:`enumerate_spectrum` yields the interior
points as :func:`wmfock.fock.iter_ranked_indices` walks the indices with
their exponents, which are the ranks, then the boundary points, whose
tails' exponents come from the same walk; one pattern walk gives their
ranks to the dataset and to :func:`boundary_convergence_report` alike.
The emitters read each point once and keep only the strings they join,
so no list of points is held.
An unstarted stream for the emitter's configuration, where a run of
:func:`wmfock.fock.iter_ranked_blocks` holds six points or more on average
(``max_degree >= 5 * n``), gives up its interior as runs; no point is built.

Emission works on ranks, and each emitter takes the configuration and
prepares the texts of its table once per call.  The CSV emitter renders
each table value once, as an exact fraction and as 15 significant decimal
digits (one :mod:`decimal` division, correctly rounded half to even).  The
SVG emitter writes the table over one common denominator
(``q**max_degree`` for ``c = p/q``) and computes each pixel as an integer
ratio, rounded to two decimals half to even and memoised on the rank tuple
its axis reads; the frame's corners are ranks into the table ``(0, 1)``.
Each emitter grows its text in place by one join of a bounded batch of
shared fragments at a time, so no row string, list of every fragment or
second copy of the text is built.  An interior point of one index adds no string of its
own: its row or dot is a few pieces memoised by value for the length of one
emitter call, keyed by its first letter, its upper letters and slices of
its own ranks.  Both outputs are byte-deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, product
from math import lcm
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .fock import (Block, MultiIndex, Tally, indices_up_to, iter_ranked_blocks, iter_ranked_indices,
                   run_columns)
from .sparse import frac_str
from .words import ProductResult, precedes, projection_product

INTERIOR = "interior"
BOUNDARY = "boundary"


class SpectrumConfig(namedtuple("SpectrumConfig", "n max_degree c")):
    """Number of letters, maximal degree and the exact ratio ``0 < c < 1``."""

    __slots__ = ()

    def __new__(cls, n: int, max_degree: int, c: Fraction) -> "SpectrumConfig":
        if n < 2:
            raise ValueError("need n >= 2")
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if isinstance(c, float):
            raise TypeError("c must be exact (a Fraction, an int or a 'p/q' string), "
                            "not the float %r" % c)
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if not Fraction(0) < c < Fraction(1):
            raise ValueError("c must lie strictly between 0 and 1")
        return tuple.__new__(cls, (n, max_degree, c))


class BoundaryPattern(NamedTuple):
    """Limit pattern: pivot letter, 0/1 bits below it, finite tail above it."""

    pivot: int
    bits: Tuple[int, ...]
    tail: Tuple[int, ...]

    def index_at(self, p: int) -> MultiIndex:
        """The index with the pivot slot set to ``p`` (the approximating family)."""
        return self.bits + (p,) + self.tail


Provenance = Tuple[object, ...]  # multi-indices (interior) or BoundaryPattern


class SpectrumPoint(NamedTuple):
    """A point of the embedded spectrum: coordinate k is ``values[ranks[k]]``
    in the :func:`coordinate_values` table of its configuration."""

    ranks: Tuple[int, ...]
    kind: str
    provenance: Provenance

    def coords(self, values: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        return tuple(values[r] for r in self.ranks)


def r_value(mu: MultiIndex, k: int) -> int:
    """The exponent r_k: the tail sum mu_k + ... + mu_n, or 0 when mu_k = 0."""
    if not 1 <= k <= len(mu):
        raise ValueError("k must lie in 1..%d, got %d" % (len(mu), k))
    if mu[k - 1] == 0:
        return 0
    return sum(mu[k - 1:])


def embed(mu: MultiIndex, c: Fraction) -> Tuple[Fraction, ...]:
    """The exact coordinates ``1 - c**r_k(mu)`` of the interior point of ``mu``."""
    return tuple(1 - c ** r_value(mu, k) for k in range(1, len(mu) + 1))


def _ranked_patterns(cfg: SpectrumConfig) -> Iterator[Tuple[BoundaryPattern, Tuple[int, ...]]]:
    """Each boundary pattern, by pivot, bits and tail, with its point's ranks:
    the bits (0 or 1) below the pivot, 1 at it, the tail's exponents above."""
    n, top = cfg.n, cfg.max_degree + 1
    for pivot in range(1, n + 1):
        tails = list(iter_ranked_indices(n - pivot, cfg.max_degree)) if pivot < n else [((), ())]
        for bits_value in range(1 << (pivot - 1)):
            bits = tuple((bits_value >> j) & 1 for j in range(pivot - 1))
            head = tuple(b * top for b in bits) + (top,)
            for tail, tail_ranks in tails:
                yield BoundaryPattern(pivot, bits, tail), head + tail_ranks


@lru_cache(maxsize=8)
def coordinate_values(cfg: SpectrumConfig) -> Tuple[Fraction, ...]:
    """Every coordinate value, indexed by its rank: ``1 - c**r`` at rank
    r = 0..max_degree (0 at rank 0), and 1 at rank ``max_degree + 1``.

    The table is strictly increasing because 0 < c < 1, so tuples of ranks
    compare, group and sort exactly as the coordinate tuples they stand for.
    It is immutable and cached per configuration.
    """
    values = [Fraction(0)]
    power = Fraction(1)
    for _ in range(cfg.max_degree):
        power *= cfg.c
        values.append(1 - power)
    values.append(Fraction(1))
    return tuple(values)


def interior_points(cfg: SpectrumConfig) -> Iterator[SpectrumPoint]:
    """The images of the indices of degree ``<= max_degree``, made one at a
    time in graded order by :func:`wmfock.fock.iter_ranked_indices`, whose
    exponents are their ranks.

    Each point's coordinates equal ``embed`` on its index.
    """
    new = tuple.__new__  # not the NamedTuple's generated __new__, a Python call per point
    for mu, ranks in iter_ranked_indices(cfg.n, cfg.max_degree):
        yield new(SpectrumPoint, (ranks, INTERIOR, (mu,)))


def boundary_points(cfg: SpectrumConfig) -> List[SpectrumPoint]:
    """One point per distinct limit, sorted by coordinates, with the patterns
    that reach it in enumeration order."""
    by_ranks: Dict[Tuple[int, ...], List[BoundaryPattern]] = {}
    for pattern, ranks in _ranked_patterns(cfg):
        by_ranks.setdefault(ranks, []).append(pattern)
    return [SpectrumPoint(ranks, BOUNDARY, tuple(patterns))
            for ranks, patterns in sorted(by_ranks.items())]


class SpectrumStream:
    """The one-shot iterator of :func:`enumerate_spectrum`."""

    __slots__ = ("cfg", "started", "_rest")

    def __init__(self, cfg: SpectrumConfig) -> None:
        self.cfg, self.started = cfg, False  # the boundary is built when it is reached
        self._rest = chain.from_iterable(part(cfg) for part in (interior_points, boundary_points))

    def __iter__(self) -> "SpectrumStream":
        return self

    def __next__(self) -> SpectrumPoint:
        self.started = True
        return next(self._rest)

    def split(self, cfg: SpectrumConfig) -> Tuple[Iterable[Block], Iterator[SpectrumPoint]]:
        """The rest as ``(runs, points)``, leaving the stream exhausted; no run
        if a point was read, ``cfg`` differs, or a run holds under six points
        on average (``(max_degree + n) / n``), where its setup outweighs them."""
        runs, rest = (), self._rest
        if not self.started and self.cfg == cfg and cfg.max_degree >= 5 * cfg.n:
            runs, rest = iter_ranked_blocks(cfg.n, cfg.max_degree), iter(boundary_points(cfg))
        self.started, self._rest = True, iter(())
        return runs, rest


def enumerate_spectrum(cfg: SpectrumConfig) -> SpectrumStream:
    """Interior points in graded index order, then boundary points by coords.

    A one-shot stream: each interior point is made when it is asked for, so
    no list of them is held; the boundary points, a small set that must be
    grouped and sorted, are built when the interior is exhausted.
    """
    return SpectrumStream(cfg)


# ---------------------------------------------------------------------------
# multiplicative functionals
# ---------------------------------------------------------------------------


class FunctionalKey(NamedTuple):
    """A multiplicative functional by kind: "vacuum", "identity", or "point" at index ``mu``."""

    kind: str
    mu: Optional[MultiIndex] = None

    def render(self) -> str:
        if self.kind == "point":
            return "phi(%s)" % ";".join(str(x) for x in self.mu)
        return "phi_%s" % ("0" if self.kind == "vacuum" else "1")


def functional_apply(key: FunctionalKey, nu: MultiIndex, vacuum_flag: bool = False) -> int:
    """Value of the functional on P_nu (or P0_nu when ``vacuum_flag``).

    Point functionals give P_nu and P0_nu the same value, 1 exactly when
    ``nu`` equals or precedes the key index.  The vacuum functional is 1
    only on the vacuum projection itself; the identity functional is
    constant 1.
    """
    nu = tuple(nu)
    if key.kind == "identity":
        return 1
    if key.kind == "vacuum":
        return 1 if (vacuum_flag and not any(nu)) else 0
    if len(key.mu) != len(nu):
        raise ValueError("length mismatch: %d vs %d" % (len(key.mu), len(nu)))
    return 1 if (nu == key.mu or precedes(nu, key.mu)) else 0


def verify_multiplicativity(cfg: SpectrumConfig, degree_cap: int
                            ) -> Tuple[int, Tally, Tally]:
    """Exhaustively check phi(P_nu P_rho) = phi(P_nu) phi(P_rho).

    Products are resolved by :func:`wmfock.words.projection_product`; when a
    product vanishes the functional value of 0 is taken as 0.  The constant
    identity functional then sees 0 != 1 on annihilating pairs; those cases
    are reported separately as caveats, not as failures, because a constant
    functional cannot be multiplicative on a zero product.  Each functional
    is evaluated once per index, as a row read by every case of its key.
    Returns the number of cases, the tally of failures and the tally of
    caveats.
    """
    if degree_cap > cfg.max_degree:
        raise ValueError("degree cap exceeds max_degree")
    indices = indices_up_to(cfg.n, degree_cap)
    keys = [FunctionalKey("vacuum"), FunctionalKey("identity")]
    keys.extend(FunctionalKey("point", mu) for mu in indices)
    failures, caveats = Tally(), Tally()
    zero, left = ProductResult.ZERO, ProductResult.LEFT_SURVIVES
    for key in keys:
        row = [functional_apply(key, nu) for nu in indices]
        for nu, nu_value in zip(indices, row):
            for rho, rho_value in zip(indices, row):
                outcome = projection_product(nu, rho)
                if outcome is zero:
                    product_value = 0
                elif outcome is left:
                    product_value = nu_value
                else:
                    product_value = rho_value
                expected = nu_value * rho_value
                if product_value != expected:
                    if key.kind == "identity" and outcome is zero:
                        caveats.fail(lambda: {"nu": list(nu), "rho": list(rho)})
                    else:
                        failures.fail(lambda: {
                            "functional": key.render(), "nu": list(nu), "rho": list(rho),
                            "product": outcome.value, "got": product_value, "want": expected})
    return len(keys) * len(indices) ** 2, failures, caveats


P_LIMIT = 20  # family members p = 1..P_LIMIT checked per boundary pattern


def boundary_convergence_report(cfg: SpectrumConfig) -> Tuple[int, Tally]:
    """Exact check that the approximating families reach their boundary points.

    For every boundary pattern and p = 1..P_LIMIT, on the exponents
    ``r_value(index_at(p), j)``: the slots above the pivot equal the ranks
    the pattern walk gives the dataset's point, each bit-0 slot below it is
    0, each bit-1 slot climbs strictly with p, and the pivot is exactly
    ``p + sum(tail)`` (a gap of ``c**(p + sum(tail))`` below its limit 1)
    and climbs strictly.  As ``1 - c**r`` is strictly increasing in r for
    0 < c < 1, these compare the coordinates; the limit rank
    ``max_degree + 1`` stands for the coordinate 1 and matches no finite
    exponent.  Returns the number of cases and their tally.
    """
    n, top = cfg.n, cfg.max_degree + 1
    patterns = list(_ranked_patterns(cfg))
    tally = Tally()
    for pattern, ranks in patterns:
        k = pattern.pivot
        limit = ranks[k:]
        zeros = [j for j, b in enumerate(pattern.bits) if not b]
        climbing = [j for j, b in enumerate(pattern.bits) if b] + [k - 1]
        base = sum(pattern.tail)
        previous = None
        for p in range(1, P_LIMIT + 1):
            mu = pattern.index_at(p)
            r = [r_value(mu, j) for j in range(1, n + 1)]
            ok = (r[k - 1] == p + base
                  and all(a == b != top for a, b in zip(r[k:], limit))
                  and not any(r[j] for j in zeros)
                  and (previous is None or all(r[j] > previous[j] for j in climbing)))
            if not ok:
                tally.fail(lambda: {"pattern": render_provenance(pattern), "p": p})
            previous = r
    return P_LIMIT * len(patterns), tally


# ---------------------------------------------------------------------------
# dataset emission
# ---------------------------------------------------------------------------


_DECIMAL15 = Context(prec=15, rounding=ROUND_HALF_EVEN)


def decimal15(x: Fraction) -> str:
    """15 significant decimal digits, round half to even, no exponent form."""
    x = Fraction(x)
    q = _DECIMAL15.divide(Decimal(x.numerator), Decimal(x.denominator))
    return format(q.normalize(_DECIMAL15), "f")


def render_provenance(item) -> str:
    if isinstance(item, BoundaryPattern):
        return "lim(k=%d;eps=(%s);tail=(%s))" % (
            item.pivot, ";".join(map(str, item.bits)), ";".join(map(str, item.tail)))
    return "(%s)" % ";".join(["%d"] * len(item)) % tuple(item)


def point_provenance(point: SpectrumPoint) -> str:
    return "|".join(map(render_provenance, point.provenance))


def emit_csv(points: Iterable[SpectrumPoint], cfg: SpectrumConfig) -> str:
    """The dataset as CSV: a header, then one row per point.

    ``points`` is read once, so a stream such as :func:`enumerate_spectrum`
    is never held whole.  The text, closing newline included, grows in place
    in :func:`_joined`, so no row string or second copy of it is built.  An
    interior point of one index ``(a;b;...)`` is six pieces:
    ``"\\ninterior,(a"`` keyed by ``a``, ``";b;...)"`` by the upper letters,
    the exact field of ``ranks[0]``, those of ``ranks[1:]`` keyed by that
    slice, and the same two for the decimals; keyed pieces are memoised by
    value for this call.  Other rows add their provenance string.
    A stream's interior may be rendered run by run: :meth:`SpectrumStream.split`.
    """
    header = ["kind", "provenance"]
    header.extend("x%d" % k for k in range(1, cfg.n + 1))
    header.extend("x%d_dec" % k for k in range(1, cfg.n + 1))
    values = coordinate_values(cfg)
    exact = ["," + frac_str(x) for x in values]
    dec = ["," + decimal15(x) for x in values]
    exact_tails = _Memo(lambda upper: "".join(map(exact.__getitem__, upper)))
    dec_tails = _Memo(lambda upper: "".join(map(dec.__getitem__, upper)))
    heads = _Memo("\ninterior,(%d".__mod__)
    uppers = _Memo(lambda upper: (";%d" * len(upper) + ")") % upper)

    def run_rows(run: Block) -> Iterator[str]:
        (a, *rest), (r_1, *tails) = run_columns(run)
        return chain.from_iterable(zip(
            map(heads.__getitem__, a), map(uppers.__getitem__, zip(*rest)),
            map(exact.__getitem__, r_1), map(exact_tails.__getitem__, zip(*tails)),
            map(dec.__getitem__, r_1), map(dec_tails.__getitem__, zip(*tails))))

    def point_rows(points: List[SpectrumPoint]) -> List[str]:
        fragments: List[str] = []
        extend = fragments.extend
        for point in points:
            ranks, kind, provenance = point
            if kind == INTERIOR and len(provenance) == 1:
                mu, upper = provenance[0], ranks[1:]
                extend((heads[mu[0]], uppers[mu[1:]], exact[ranks[0]], exact_tails[upper],
                        dec[ranks[0]], dec_tails[upper]))
            else:
                extend(("\n", kind, ",", point_provenance(point),
                        *map(exact.__getitem__, ranks), *map(dec.__getitem__, ranks)))
        return fragments

    return _joined(",".join(header), run_rows, point_rows, points, cfg, "\n")


_BATCH = 2048  # fragments per append: the 8.8 MB CSV text at (3, 60) grows in 122 steps
_CHUNK = _BATCH // 16  # points per call of a point renderer, which loops over them inline


def _joined(head: str, run_rows: Callable, point_rows: Callable,
            points: Iterable[SpectrumPoint], cfg: SpectrumConfig, tail: str) -> str:
    """``head``, the fragments of each run and of every ``_CHUNK`` points, and
    ``tail`` as one text, grown at its one site by a join of ``_BATCH`` or
    more fragments.  Nothing else holds the text, so CPython resizes it in
    place there (on 3.11+ once the site is specialised; a large block grows
    by ``mremap``): no fragment list or second copy is held."""
    runs, points = points.split(cfg) if isinstance(points, SpectrumStream) else ((), iter(points))
    chunks = iter(lambda: list(islice(points, _CHUNK)), [])
    text, batch, last = "", [head], (tail,)
    for group in chain(map(run_rows, runs), map(point_rows, chunks), (last,)):
        batch += group
        if len(batch) >= _BATCH or group is last:
            text += "".join(batch)
            batch = []
    return text


_SVG_SIZE = 760
_SVG_MARGIN = 40
_SVG_DEPTH = Fraction(2, 5)  # n = 3: cavalier projection, x2 receding at slope 2/5


def _ratio2(num: int, den: int) -> str:
    """``num / den`` for ``den > 0`` to two decimals, round half to even."""
    sign = "-" if num < 0 else ""
    q, r = divmod(abs(num) * 100, den)
    double = 2 * r
    if double > den or (double == den and q % 2 == 1):
        q += 1
    return "%s%d.%02d" % (sign, q // 100, q % 100)


class _Memo(dict):
    """Texts keyed by value, each made by ``render(key)`` on first use."""

    __slots__ = ("render",)

    def __init__(self, render: Callable):
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _pixel_texts(table: Sequence[Fraction], n: int, scale: Fraction) -> Tuple[_Memo, _Memo]:
    """The x and y memos of a table: x reads ranks ``[:n - 1]`` (x1, and
    x2 for n = 3), y reads ranks ``[1:]`` (x2 for n = 3, and x_n).

    With the table written over a common denominator as ``nums[r] / den``,
    the pixel of ranks ``(r, ...)`` is the integer ratio
    ``(offset + sum(w * nums[r])) / den``.  A value is the rendered pair
    (pixel, pixel - 4).
    """
    table_den = lcm(*(x.denominator for x in table))
    nums = [x.numerator * (table_den // x.denominator) for x in table]
    weights = (scale, _SVG_DEPTH * scale)  # of x1 (or x_n) and of x2
    unit = lcm(*(w.denominator for w in weights))
    den = table_den * unit
    a, b = (w.numerator * (unit // w.denominator) for w in weights)

    def axis(offset: int, weights: Tuple[int, ...]) -> _Memo:
        def render(ranks: Tuple[int, ...]) -> Tuple[str, str]:
            num = offset + sum(w * nums[r] for w, r in zip(weights, ranks))
            return _ratio2(num, den), _ratio2(num - 4 * den, den)
        return _Memo(render)

    return (axis(_SVG_MARGIN * den, (a, b) if n == 3 else (a,)),
            axis((_SVG_SIZE - _SVG_MARGIN) * den, (-b, -a) if n == 3 else (-a,)))


def emit_svg(points: Iterable[SpectrumPoint], cfg: SpectrumConfig) -> str:
    """Unit square (n=2) or projected unit cube (n=3) with the point set;
    any other ``n`` raises ``ValueError`` before a point is read.

    Interior points are filled dots, boundary points open squares.  Output
    is byte-deterministic for a fixed input order, and ``points`` is read
    once into a text grown as in :func:`emit_csv`.  A dot is four pieces, each
    memoised by value for this call: its markup through ``cx`` by the ranks
    the x axis reads, through the title's kind by those the y axis reads,
    and its index as in a CSV row (``"(a"``, ``";b;...)"`` and the closing
    tags), or its provenance string and the closing tags for several indices.
    A stream's interior may be rendered run by run: :meth:`SpectrumStream.split`.
    """
    n = cfg.n
    if n not in (2, 3):
        raise ValueError("svg emission supports n = 2 or 3 only; use csv")
    span = Fraction(1) if n == 2 else Fraction(7, 5)
    scale = (_SVG_SIZE - 2 * _SVG_MARGIN) / span
    lines: List[str] = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_SVG_SIZE, _SVG_SIZE, _SVG_SIZE, _SVG_SIZE),
        '<rect width="%d" height="%d" fill="white"/>' % (_SVG_SIZE, _SVG_SIZE),
    ]
    # the frame: each edge of the unit square or cube once, from a corner to
    # the corner that sets one of its zero slots, later slots first
    x_frame, y_frame = _pixel_texts((Fraction(0), Fraction(1)), n, scale)
    for start in product((0, 1), repeat=n):
        for k in reversed(range(n)):
            if not start[k]:
                end = start[:k] + (1,) + start[k + 1:]
                lines.append('<line x1="%s" y1="%s" x2="%s" y2="%s" '
                             'stroke="#888888" stroke-width="1"/>'
                             % (x_frame[start[:n - 1]][0], y_frame[start[1:]][0],
                                x_frame[end[:n - 1]][0], y_frame[end[1:]][0]))
    x_texts, y_texts = _pixel_texts(coordinate_values(cfg), n, scale)
    dots_x = _Memo(lambda xs: '\n<circle cx="%s" cy="' % x_texts[xs][0])
    dots_y = _Memo(lambda ys: '%s" r="4" fill="#c0392b"><title>interior ' % y_texts[ys][0])
    heads = _Memo("(%d".__mod__)
    uppers = _Memo(lambda upper: (";%d" * len(upper) + ")</title></circle>") % upper)

    def run_dots(run: Block) -> Iterator[str]:
        (a, *rest), ranks = run_columns(run)
        return chain.from_iterable(zip(
            map(dots_x.__getitem__, zip(*ranks[:n - 1])), map(dots_y.__getitem__, zip(*ranks[1:])),
            map(heads.__getitem__, a), map(uppers.__getitem__, zip(*rest))))

    def point_marks(points: List[SpectrumPoint]) -> List[str]:
        fragments: List[str] = []
        extend = fragments.extend
        for point in points:
            ranks, kind, provenance = point
            xs, ys = ranks[:n - 1], ranks[1:]
            if kind != INTERIOR:
                extend(('\n<rect x="', x_texts[xs][1], '" y="', y_texts[ys][1],
                        '" width="8" height="8" fill="none" stroke="#2c3e50" '
                        'stroke-width="1.5"><title>', kind, " ", point_provenance(point),
                        "</title></rect>"))
            elif len(provenance) == 1:
                mu = provenance[0]
                extend((dots_x[xs], dots_y[ys], heads[mu[0]], uppers[mu[1:]]))
            else:
                extend((dots_x[xs], dots_y[ys], point_provenance(point), "</title></circle>"))
        return fragments

    return _joined("\n".join(lines), run_dots, point_marks, points, cfg, "\n</svg>\n")

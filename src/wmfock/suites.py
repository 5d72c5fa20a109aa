"""Named verification suites with machine-readable verdicts.

Each suite returns ``{"suite", "n", "maxDegree", "checks": [...]}`` where a
check is ``{"name", "cases", "failures", "firstFailure"}`` plus occasional
informational keys.  Every check keeps its books in one
:class:`~wmfock.fock.Tally`: every failure is counted, and only the first
failure's payload is built.  Suites are deterministic: randomized checks
draw from a fixed seed, and all iteration orders are explicit.

The matrix side of a check is a direct product of generator matrices and
never goes through the rewriter.  A single word stays an order-1
:class:`~wmfock.sparse.PhaseMatrix`: its products, comparisons and diagonal
are read from the kernel's arrays.  Only sums of words and evaluated normal
forms become :class:`~wmfock.sparse.SparseOp` combinations.  ``projections``
keeps the columns each composed ``P_mu`` fixes as one ``int`` bitmask;
``P_mu P_nu`` fixes the intersection of two masks.  ``masa`` reads which
columns each normal monomial fixes from its creation and annihilation
blocks, each composed once, through one inverse lookup of the creation
blocks (:func:`monomial_diagonals`); no monomial's product is formed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as cartesian
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import masa
from .fock import (MultiIndex, Tally, TruncationParams, basis_degrees,
                   check_guarded_identity, column_map, indices_up_to)
from .sparse import PhaseMatrix, SparseOp, frac_str
from .spectrum import (SpectrumConfig, boundary_points, boundary_convergence_report,
                       coordinate_values, interior_points, r_value,
                       verify_multiplicativity)
from .words import (GeneratorSymbol, NormalForm, NormalMonomial, ProductResult, Word,
                    _compose_codes, creation_guard, evaluate, evaluate_word,
                    precedes_pivot, projection_product, rewrite, word_text)
from . import gauge as gauge_mod

RANDOM_SEED = 74207281  # fixed so every run reproduces the same word sample

SUITE_NAMES = ("relations", "ck", "projections", "masa", "spectrum", "gauge")


def _check(name: str, cases: int, tally: Tally, **extra) -> dict:
    out = {"name": name, "cases": cases, "failures": tally.failures,
           "firstFailure": tally.first}
    out.update(extra)
    return out


def _verdict(*oks: bool, payload: Callable[[], Optional[dict]] = lambda: None) -> Tally:
    """A tally with one failure per false verdict in ``oks``."""
    tally = Tally()
    for ok in oks:
        if not ok:
            tally.fail(payload)
    return tally


def _symbols(*specs: Tuple[int, bool]) -> Word:
    return tuple(GeneratorSymbol(i, s) for i, s in specs)


def _word_sum(params: TruncationParams, terms: Iterable[Tuple[int, Word]]) -> SparseOp:
    """The combination ``sum(coeff * word)`` of direct word products."""
    return SparseOp.from_terms(params.basis_size,
                               [(coeff, evaluate_word(word, params)) for coeff, word in terms])


def _guarded_word_check(params: TruncationParams, name: str,
                        lhs_terms: Sequence[Tuple[int, Word]],
                        rhs_terms: Sequence[Tuple[int, Word]]) -> dict:
    """Check sum(lhs) = sum(rhs) on the band guarded by the deepest word."""
    guard = 0
    for _, word in tuple(lhs_terms) + tuple(rhs_terms):
        guard = max(guard, creation_guard(word))
    if guard > params.max_degree:
        # no basis vector leaves room for the excursion; nothing checkable
        return _check(name, 0, Tally(), guard=guard, truncationArtifact=False,
                      note="guard exceeds max degree; band empty")
    cases, tally, artifact = check_guarded_identity(
        params, _word_sum(params, lhs_terms), _word_sum(params, rhs_terms), guard)
    return _check(name, cases, tally, guard=guard, truncationArtifact=artifact)


def _is_adjoint_of(a: PhaseMatrix, b: PhaseMatrix) -> bool:
    """``a == b*``; false when two columns of ``b`` share a row, since ``b*``
    then has a column with two entries, which no kernel map can equal."""
    try:
        return a == b.adjoint()
    except ArithmeticError:
        return False


# ---------------------------------------------------------------------------
# relations suite
# ---------------------------------------------------------------------------


def relations_suite(n: int, max_degree: int) -> dict:
    params = TruncationParams(n, max_degree)
    checks: List[dict] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            checks.append(_guarded_word_check(
                params, "creator-pair-vanishes-%d-%d" % (i, j),
                [(1, _symbols((i, True), (j, True)))], []))
            checks.append(_guarded_word_check(
                params, "annihilator-pair-vanishes-%d-%d" % (j, i),
                [(1, _symbols((j, False), (i, False)))], []))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                checks.append(_guarded_word_check(
                    params, "mixed-pair-vanishes-%d-%d" % (i, j),
                    [(1, _symbols((i, False), (j, True)))], []))
    checks.append(_guarded_word_check(
        params, "vacuum-projection-definition",
        [(1, _symbols((1, False), (1, True))), (-1, _symbols((1, True), (1, False)))],
        [(1, _symbols((0, False)))]))
    checks.append(_guarded_word_check(
        params, "vacuum-projection-idempotent",
        [(1, _symbols((0, False), (0, False)))],
        [(1, _symbols((0, False)))]))
    vacuum = evaluate_word(_symbols((0, False)), params)
    checks.append(_check("vacuum-projection-selfadjoint", 1,
                         _verdict(_is_adjoint_of(vacuum, vacuum))))
    # a partial injection's rank is its number of live columns
    live = len(vacuum.image) - vacuum.image.count(-1)
    checks.append(_check("vacuum-projection-rank-one", 1, _verdict(live == 1)))
    for i in range(1, n + 1):
        creator_op = evaluate_word(_symbols((i, True)), params)
        annihilator_op = evaluate_word(_symbols((i, False)), params)
        checks.append(_check("adjoint-is-transpose-%d" % i, 1,
                             _verdict(_is_adjoint_of(creator_op, annihilator_op))))
    return {"suite": "relations", "n": n, "maxDegree": max_degree, "checks": checks}


# ---------------------------------------------------------------------------
# Cuntz-Krieger suite
# ---------------------------------------------------------------------------


def ck_suite(n: int, max_degree: int) -> dict:
    params = TruncationParams(n, max_degree)
    checks: List[dict] = []
    identity_word_terms = [(1, _symbols((j, True), (j, False))) for j in range(1, n + 1)]
    identity_word_terms.insert(0, (1, _symbols((0, False), (0, False))))
    full = _word_sum(params, identity_word_terms)
    checks.append(_check("range-projections-sum-to-identity", params.basis_size,
                         _verdict(full == SparseOp.identity(params.basis_size))))
    for i in range(1, n + 1):
        checks.append(_guarded_word_check(
            params, "support-projection-decomposition-%d" % i,
            [(1, _symbols((i, False), (i, True)))],
            [(1, _symbols((0, False), (0, False)))]
            + [(1, _symbols((j, True), (j, False))) for j in range(1, i + 1)]))
    range_proj = {}
    for j in range(n + 1):
        if j == 0:
            range_proj[j] = evaluate_word(_symbols((0, False)), params)
        else:
            range_proj[j] = evaluate_word(_symbols((j, True), (j, False)), params)
    orthogonal = Tally()
    for i, j in cartesian(range(n + 1), repeat=2):
        if i != j and not (range_proj[i] @ range_proj[j]).is_zero():
            orthogonal.fail(lambda: {"i": i, "j": j})
    checks.append(_check("range-projections-orthogonal", (n + 1) * n, orthogonal))
    # realize the incidence matrix: a_ij = 1 iff Q_i P_j = P_j, 0 iff = 0;
    # the guarded window must hold a degree-1 state to separate the two
    if max_degree < 2:
        checks.append(_check("incidence-matrix-lower-triangular", 0, Tally(),
                             note="needs max degree >= 2 to separate "
                                  "zero from range projections"))
        return {"suite": "ck", "n": n, "maxDegree": max_degree, "checks": checks}
    cutoff = params.degree_prefix(max_degree - 1)
    dead = (-1,) * cutoff  # the band of a zero map
    support = {}
    support[0] = range_proj[0]
    for i in range(1, n + 1):
        support[i] = evaluate_word(_symbols((i, False), (i, True)), params)
    realized: List[List[int]] = []
    mismatch = Tally()
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            # order-1 maps: the band of images is the band of the matrix
            prod = (support[i] @ range_proj[j]).image[:cutoff]
            if prod == range_proj[j].image[:cutoff]:
                row.append(1)
            elif prod == dead:
                row.append(0)
            else:
                row.append(-1)
            expected = 1 if j <= i else 0
            if row[-1] != expected:
                mismatch.fail(lambda: {"i": i, "j": j, "got": row[-1], "want": expected})
        realized.append(row)
    checks.append(_check("incidence-matrix-lower-triangular", (n + 1) ** 2, mismatch,
                         realizedMatrix=realized))
    return {"suite": "ck", "n": n, "maxDegree": max_degree, "checks": checks}


# ---------------------------------------------------------------------------
# projection order suite
# ---------------------------------------------------------------------------


def _fixed_mask(matrix: PhaseMatrix) -> Optional[int]:
    """Bitmask of the columns a diagonal 0/1 map fixes; None for any other map."""
    fixed = matrix.diagonal()
    return (sum(1 << c for c in fixed)
            if len(fixed) + matrix.image.count(-1) == matrix.dim else None)


def projections_suite(n: int, max_degree: int = 6, degree_cap: int = 4) -> dict:
    params = TruncationParams(n, max_degree)
    indices = indices_up_to(n, degree_cap)
    # a product of diagonal projections fixes the columns both fix; each
    # composed map is kept only as its mask and its verdict on P_mu P_mu = P_mu
    masks, idempotent = {}, {}
    for mu in indices:
        matrix = evaluate_word(NormalMonomial.projection(mu).word(), params)
        masks[mu] = _fixed_mask(matrix)
        idempotent[mu] = masks[mu] is not None and matrix @ matrix == matrix
    product_rule, pivots_used = Tally(), set()
    below = [0] * len(indices)  # bit j of below[i] set when indices[j] < indices[i]
    for (i, mu), (j, nu) in cartesian(enumerate(indices), repeat=2):
        symbolic = projection_product(mu, nu)
        m_mu, m_nu = masks[mu], masks[nu]
        if m_mu is None or m_nu is None:
            oracle = None  # no class fits a map that is not a diagonal 0/1 map
        elif mu == nu:  # both classes hold; prefer the symbolic one, and keep the kernel product
            oracle = ProductResult.LEFT_SURVIVES if idempotent[mu] else None
        else:
            both = m_mu & m_nu
            oracle = (ProductResult.ZERO if not both else
                      ProductResult.LEFT_SURVIVES if both == m_mu else
                      ProductResult.RIGHT_SURVIVES if both == m_nu else None)
        if oracle is not symbolic:
            product_rule.fail(lambda: {
                "mu": list(mu), "nu": list(nu), "symbolic": symbolic.value,
                "matrix": oracle.value if oracle else "mixed"})
        pivot = precedes_pivot(nu, mu)
        if pivot is not None:
            pivots_used.add(pivot)
            below[i] |= 1 << j
    checks = [_check("product-rule-matches-matrix-oracle", len(indices) ** 2, product_rule)]
    antisymmetric = Tally()
    for i, j in cartesian(range(len(indices)), repeat=2):
        if i != j and below[i] >> j & below[j] >> i & 1:  # each precedes the other
            antisymmetric.fail(lambda: {"mu": list(indices[i]), "nu": list(indices[j])})
    checks.append(_check("order-antisymmetric", len(indices) * (len(indices) - 1),
                         antisymmetric))
    pivots = sorted(pivots_used)
    checks.append(_check("pivot-range", len(pivots),
                         _verdict(pivots == list(range(1, n + 1)),
                                  payload=lambda: {"pivotsUsed": pivots}),
                         pivotsUsed=pivots, declaredRange=[1, n]))
    return {"suite": "projections", "n": n, "maxDegree": max_degree,
            "degreeCap": degree_cap, "checks": checks}


# ---------------------------------------------------------------------------
# masa suite
# ---------------------------------------------------------------------------


def sample_words(n: int, count: int, max_len: int, seed: int = RANDOM_SEED) -> List[Word]:
    rng = random.Random(seed)
    alphabet: List[GeneratorSymbol] = [GeneratorSymbol(0)]
    for i in range(1, n + 1):
        alphabet.append(GeneratorSymbol(i, False))
        alphabet.append(GeneratorSymbol(i, True))
    words = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        words.append(tuple(rng.choice(alphabet) for _ in range(length)))
    return words


def monomial_diagonals(params: TruncationParams, indices: Sequence[MultiIndex]
                       ) -> Dict[Tuple[int, int, bool], List[int]]:
    """Ascending fixed columns of every normal monomial ``a*(nu) [P0] a(mu)``
    over ``indices``, keyed ``(k, j, flag)`` for ``nu = indices[k]``,
    ``mu = indices[j]`` and ``P0`` iff ``flag``; no key when none is fixed.

    Column ``c`` is fixed iff ``a(mu)`` sends it to a live ``c'`` and
    ``a*(nu)`` sends ``c'`` (or ``P0 c'``) back to ``c``.  Inverting the
    creation blocks once makes this O(#mu * dim), with no monomial
    composed and no rewriting.  Each ``(source, row)`` keeps a list of
    blocks, so two blocks sharing an entry fail a case instead of hiding.
    """
    zero = (0,) * params.n
    senders: Dict[Tuple[int, int], List[int]] = {}
    for k, nu in enumerate(indices):
        create = _compose_codes(NormalMonomial(nu, False, zero).codes(), params)
        for src, row in enumerate(create.image):
            if row >= 0:
                senders.setdefault((src, row), []).append(k)
    vacuum = column_map(params, 0, False).image
    fixed: Dict[Tuple[int, int, bool], List[int]] = {}
    for j, mu in enumerate(indices):
        annihilate = _compose_codes(NormalMonomial(zero, False, mu).codes(), params)
        for c, mid in enumerate(annihilate.image):
            if mid < 0:
                continue
            # a dead P0 column (-1) is no block's source
            for flag, src in ((False, mid), (True, vacuum[mid])):
                for k in senders.get((src, c), ()):
                    fixed.setdefault((k, j, flag), []).append(c)
    return fixed


def masa_suite(n: int, max_degree: int = 6, degree_cap: int = 4,
               rank_cap: int = 5, samples: int = 500) -> dict:
    params = TruncationParams(n, max_degree)
    checks: List[dict] = []

    rank_indices = [mu for mu in indices_up_to(n, min(rank_cap, max_degree - 1))]
    rank = Tally()
    for mu in rank_indices:
        value = evaluate(masa.rank_one_projection(mu, n), params)
        want = masa.matrix_rank_one(mu, params)
        point = evaluate_word(NormalMonomial.point_projection(mu).word(), params)
        # the order-1 map is the matrix unit: its one live column is the fixed one
        point_ok = (point.diagonal() == want.diagonal()
                    and point.image.count(-1) == params.basis_size - 1)
        if value != want or not point_ok:
            rank.fail(lambda: {"mu": list(mu)})
    checks.append(_check("rank-one-projections", len(rank_indices), rank))

    monomials = Tally()
    indices = indices_up_to(n, degree_cap)
    fixed = monomial_diagonals(params, indices)
    degrees = [sum(mu) for mu in indices]
    cutoffs = [params.degree_prefix(max_degree - gap) for gap in range(degree_cap + 1)]
    new = tuple.__new__  # the indices are valid, so skip NormalMonomial's checks
    for k, nu in enumerate(indices):
        for j, mu in enumerate(indices):
            cutoff = cutoffs[max(0, degrees[k] - degrees[j])]
            for flag in (False, True):
                expected = masa.expectation_of_monomial(new(NormalMonomial, (nu, flag, mu)))
                # an off-diagonal monomial's expectation is the zero form
                symbolic_side = evaluate(expected, params).diagonal(cutoff) if expected else {}
                matrix_side = {c: 1 for c in fixed.get((k, j, flag), ()) if c < cutoff}
                if matrix_side != symbolic_side:
                    monomials.fail(lambda: {"nu": list(nu), "mu": list(mu), "vacuum": flag})
    checks.append(_check("expectation-of-monomials", 2 * len(indices) ** 2, monomials))

    words = sample_words(n, samples, 8, RANDOM_SEED)
    random_words = Tally()
    for word in words:
        guard = creation_guard(word)
        cutoff = params.degree_prefix(max_degree - guard)
        direct = evaluate_word(word, params).diagonal(cutoff)
        symbolic = evaluate(rewrite(word, n).diagonal_part(), params).diagonal(cutoff)
        if direct != symbolic:
            random_words.fail(lambda: {"word": word_text(word)})
    checks.append(_check("expectation-of-random-words", len(words), random_words))

    positivity_words = sample_words(n, 200, 8, RANDOM_SEED + 1)
    positive = Tally()
    for word in positivity_words:
        op = evaluate_word(word, params)
        try:
            gram = op.adjoint() @ op
        except ArithmeticError:
            gram = None  # a faulty generator sent two columns to one row: no word map does
        if gram is None or any(v < 0 for v in gram.diagonal().values()):
            positive.fail(lambda: {"word": word_text(word)})
    checks.append(_check("expectation-positive-on-squares", len(positivity_words), positive))

    ident = SparseOp.identity(params.basis_size)
    unital = masa.expectation(ident) == ident
    sample_op = evaluate_word(words[0], params) if words else ident
    idem = masa.expectation(masa.expectation(sample_op)) == masa.expectation(sample_op)
    checks.append(_check("expectation-unital-idempotent", 2, _verdict(unital, idem)))

    complete = Tally()
    for d in range(max_degree):
        total = evaluate(sum((masa.rank_one_projection(mu, n)
                              for mu in indices_up_to(n, d)), NormalForm()), params)
        cutoff = params.degree_prefix(d)
        want = SparseOp(params.basis_size, {(p, p): 1 for p in range(cutoff)})
        if total != want:
            complete.fail(lambda: {"degree": d})
    checks.append(_check("diagonal-completeness", max_degree, complete))
    return {"suite": "masa", "n": n, "maxDegree": max_degree, "checks": checks}


# ---------------------------------------------------------------------------
# rewriter soundness (library-level; exercised by the acceptance tests)
# ---------------------------------------------------------------------------


def soundness_check(words: Iterable[Word], params: TruncationParams) -> dict:
    """evaluate(rewrite(w)) must equal the direct product on the guard band."""
    cases, tally = 0, Tally()
    for word in words:
        cases += 1
        guard = creation_guard(word)
        cutoff = params.degree_prefix(params.max_degree - guard)
        direct = evaluate_word(word, params).image[:cutoff]
        reduced = evaluate(rewrite(word, params.n), params, cutoff)
        if reduced.entries != {(row, col): 1 for col, row in enumerate(direct) if row >= 0}:
            tally.fail(lambda: {"word": word_text(word), "guard": guard})
            if tally.failures >= 5:
                break
    return {"cases": cases, "failures": tally.failures, "first_failure": tally.first}


def exhaustive_words(n: int, max_len: int) -> Iterable[Word]:
    """Every word of length 1..max_len over the 2n+1 letter alphabet.

    The starred vacuum symbol is not a distinct letter (a0* = a0), so the
    alphabet for n = 2 has the six letters a0 a1 a2 a1* a2* and a0 again
    under its adjoint spelling; enumeration uses the 2n+2 spellings to match
    the full sign/index pattern count, mapping a0* to a0 on the fly.
    """
    spellings: List[GeneratorSymbol] = [GeneratorSymbol(0), GeneratorSymbol(0)]
    for i in range(1, n + 1):
        spellings.append(GeneratorSymbol(i, False))
        spellings.append(GeneratorSymbol(i, True))
    for length in range(1, max_len + 1):
        for combo in cartesian(spellings, repeat=length):
            yield combo


# ---------------------------------------------------------------------------
# spectrum suite
# ---------------------------------------------------------------------------


def _missing(wanted: Sequence[Tuple[Fraction, ...]], present) -> Tally:
    """One failure per point of ``wanted`` that is not in ``present``."""
    tally = Tally()
    for coords in wanted:
        if coords not in present:
            tally.fail(lambda: {"coords": [frac_str(x) for x in coords]})
    return tally


_NAMED_INTERIOR = {  # (r1, r2) exponent patterns of the worked n=2, c=1/2 display
    (1, 0), (2, 0), (3, 0), (0, 1), (2, 1), (3, 1), (0, 2), (3, 2),
}


def spectrum_suite(n: int, max_degree: int, c: Fraction) -> dict:
    cfg = SpectrumConfig(n, max_degree, c)
    interior = list(interior_points(cfg))
    boundary = boundary_points(cfg)
    values = coordinate_values(cfg)  # coordinates are read once per point
    interior_coords = [point.coords(values) for point in interior]
    boundary_coords = [point.coords(values) for point in boundary]
    interior_coord_set = set(interior_coords)
    boundary_coord_set = set(boundary_coords)
    checks: List[dict] = []

    exact = Tally()
    for point, coords in zip(interior, interior_coords):
        mu = point.provenance[0]
        for k in range(1, n + 1):
            r = r_value(mu, k)
            if not (0 <= r <= n * max_degree) or coords[k - 1] != 1 - cfg.c ** r \
                    or coords[k - 1] == 1:
                exact.fail(lambda: {"mu": list(mu), "k": k})
    checks.append(_check("interior-coordinates-exact", len(interior) * n, exact))

    if n == 2:
        # independent pattern oracle: second exponent free, first exponent
        # either 0 or strictly larger than the second
        expected = set()
        for r2 in range(max_degree + 1):
            expected.add((Fraction(0), 1 - cfg.c ** r2))
            for r1 in range(r2 + 1, max_degree + 1):
                expected.add((1 - cfg.c ** r1, 1 - cfg.c ** r2))
        checks.append(_check("interior-matches-pattern-oracle", len(expected), _verdict(
            interior_coord_set == expected,
            payload=lambda: {"missing": len(expected - interior_coord_set),
                             "extra": len(interior_coord_set - expected)})))
        if cfg.c == Fraction(1, 2):
            named = [(1 - cfg.c ** r1, 1 - cfg.c ** r2)
                     for (r1, r2) in sorted(_NAMED_INTERIOR)
                     if max(r1, r2) <= max_degree]
            checks.append(_check("worked-display-interior-points", len(named),
                                 _missing(named, interior_coord_set)))
            named_boundary = [(Fraction(1), Fraction(0)),
                              (Fraction(1), Fraction(1, 2)),
                              (Fraction(1), Fraction(3, 4)),
                              (Fraction(0), Fraction(1)),
                              (Fraction(1), Fraction(1))]
            named_boundary = [bc for bc in named_boundary
                              if bc != (Fraction(1), Fraction(3, 4)) or max_degree >= 2]
            checks.append(_check("worked-display-boundary-points", len(named_boundary),
                                 _missing(named_boundary, boundary_coord_set)))

    shape = Tally()
    for point, coords in zip(boundary, boundary_coords):
        k = point.provenance[0].pivot
        ok = coords[k - 1] == 1
        ok = ok and all(coords[j] in (Fraction(0), Fraction(1)) for j in range(k - 1))
        ok = ok and all(coords[j] != 1 for j in range(k, n))
        if not ok:
            shape.fail(lambda: {"pattern": k})
    checks.append(_check("boundary-point-shape", len(boundary), shape))

    vertices = Tally()
    for bits in cartesian((0, 1), repeat=n):
        vertex = tuple(Fraction(b) for b in bits)
        if any(bits):
            if vertex not in boundary_coord_set:
                vertices.fail(lambda: {"vertex": list(bits), "expected": "boundary"})
        elif vertex not in interior_coord_set or vertex in boundary_coord_set:
            vertices.fail(lambda: {"vertex": list(bits), "expected": "interior"})
    checks.append(_check("vertices-classified", 2 ** n, vertices,
                         note="the all-zero vertex is enumerated as interior only; "
                              "it is isolated at every finite depth even though "
                              "vertices are described as accumulation points"))

    cases, multiplicative, caveats = verify_multiplicativity(cfg, min(4, max_degree))
    checks.append(_check("functionals-multiplicative", cases, multiplicative,
                         identityZeroProductCaveats=caveats.failures,
                         firstCaveat=caveats.first))
    checks.append(_check("boundary-limits-monotone", *boundary_convergence_report(cfg)))
    return {"suite": "spectrum", "n": n, "maxDegree": max_degree,
            "c": frac_str(cfg.c), "checks": checks}


# ---------------------------------------------------------------------------
# gauge suite
# ---------------------------------------------------------------------------


def gauge_suite(n: int, max_degree: int, roots: Optional[Sequence[int]] = None) -> dict:
    if roots is None:
        roots = (1, 2, 4, 8)
    params = TruncationParams(n, max_degree)
    checks: List[dict] = []
    for K in roots:
        rep = gauge_mod.BundleRep(params, K)
        degrees = basis_degrees(params)

        covariance = Tally()
        for i in range(n + 1):
            for w in range(K):
                failures = gauge_mod.check_covariance(rep, i, w, gauge_mod.BLOCK_SHIFT_UNITARY)
                if failures:
                    covariance.fail(lambda: {"i": i, "w": w, "entries": failures[:4]})
        checks.append(_check("shift-unitary-covariance-K%d" % K, (n + 1) * K, covariance))

        vacuum = Tally()
        for w in range(K):
            failures = gauge_mod.check_covariance(rep, 0, w, gauge_mod.PAPER_UNITARY)
            if failures:
                vacuum.fail(lambda: {"w": w, "entries": failures[:4]})
        checks.append(_check("phase-only-unitary-covariance-vacuum-K%d" % K, K, vacuum))

        deviations, stray = 0, Tally()
        for i in range(1, n + 1):
            for w in range(K):
                for entry in gauge_mod.check_covariance(rep, i, w, gauge_mod.PAPER_UNITARY):
                    deviations += 1
                    if not (entry["basisRow"] == 0 and degrees[entry["basisCol"]] == 1):
                        stray.fail(lambda: entry)
        checks.append(_check("phase-only-unitary-deviations-confined-K%d" % K,
                             max(deviations, 1), stray, deviations=deviations))

        checks.append(_check("shift-unitary-group-law-K%d" % K,
                             *gauge_mod.check_group_law(rep, gauge_mod.BLOCK_SHIFT_UNITARY)))

        spectrum = gauge_mod.vacuum_operator_spectrum(rep)
        spec_ok = (spectrum["root_exponents"] == list(range(K))
                   and spectrum["zero_multiplicity"] == K * (params.basis_size - 1))
        checks.append(_check("vacuum-generator-spectrum-K%d" % K, 1,
                             _verdict(spec_ok, payload=lambda: spectrum)))

        quotient = gauge_mod.check_quotient_relation(rep)
        checks.append(_check("quotient-relation-K%d" % K, 1,
                             _verdict(quotient["ok"], payload=lambda: quotient)))
    return {"suite": "gauge", "n": n, "maxDegree": max_degree,
            "roots": list(roots), "checks": checks}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run_suite(name: str, n: int, max_degree: int, c: Fraction,
              roots: Optional[Sequence[int]] = None) -> dict:
    if name == "relations":
        return relations_suite(n, max_degree)
    if name == "ck":
        return ck_suite(n, max_degree)
    if name == "projections":
        return projections_suite(n, max_degree, degree_cap=min(4, max_degree))
    if name == "masa":
        return masa_suite(n, max_degree, degree_cap=min(4, max_degree),
                          rank_cap=min(5, max_degree - 1))
    if name == "spectrum":
        return spectrum_suite(n, max_degree, c)
    if name == "gauge":
        return gauge_suite(n, max_degree, roots)
    raise ValueError("unknown suite %r" % name)


def run_all(n: int, max_degree: int, c: Fraction,
            roots: Optional[Sequence[int]] = None, jobs: int = 1) -> dict:
    # one worker per suite at most: a larger pool only forks idle processes
    jobs = min(jobs, len(SUITE_NAMES))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_suite, name, n, max_degree, c, roots)
                       for name in SUITE_NAMES]
            reports = [f.result() for f in futures]
    else:
        reports = [run_suite(name, n, max_degree, c, roots) for name in SUITE_NAMES]
    checks: List[dict] = []
    for report in reports:
        for check in report["checks"]:
            entry = dict(check)
            entry["name"] = "%s/%s" % (report["suite"], entry["name"])
            checks.append(entry)
    return {"suite": "all", "n": n, "maxDegree": max_degree, "checks": checks}


def total_failures(report: dict) -> int:
    return sum(check["failures"] for check in report["checks"])

"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own code paths wherever a value is
being cross-checked: the stabilizer search is a triple transport of its own,
with a different transport formula, base triple, enumeration order and
membership test, square roots are verified by squaring, and polynomial
identities are evaluated pointwise at many rational points.
"""
from __future__ import annotations

from fractions import Fraction

from equicurve.cyclotomic import CycNum
from equicurve.equivariant import EndoPair, act_on_pair, contract
from equicurve.errors import (
    NotFiniteWithinCapError,
    PNotInvariantError,
    TooFewPointsError,
)
from equicurve.poly import HPoly2, MPoly, UPoly, URatFun
from equicurve.projline import (
    FinSubgroupG,
    FinSubgroupH,
    Moebius,
    P1Point,
    classify_group,
    dedupe_points,
    minimal_generators,
    sort_moebius,
    sort_points,
)


def _frame(p1: P1Point, p2: P1Point, p3: P1Point) -> tuple:
    """Entries of a matrix sending [1:0], [0:1], [1:1] to p1, p2, p3: its
    columns are lam p1 and mu p2, where p3 = lam p1 + mu p2 by Cramer's rule
    (both scaled by the common determinant)."""
    lam = p3.a * p2.b - p3.b * p2.a
    mu = p1.a * p3.b - p1.b * p3.a
    return (lam * p1.a, mu * p2.a, lam * p1.b, mu * p2.b)


def moebius_through(src: tuple[P1Point, P1Point, P1Point],
                    dst: tuple[P1Point, P1Point, P1Point]) -> Moebius:
    """The unique Moebius map with src_i -> dst_i (triples of distinct
    points): the frame of dst times the adjugate of the frame of src, a
    different formula from the library's triple transport."""
    a, b, c, d = _frame(*dst)
    e, f, g, h = _frame(*src)
    return Moebius(a * h - b * g, b * e - a * f, c * h - d * g, d * e - c * f)


def stabilizer_oracle(points: list[P1Point], cap: int = 120) -> FinSubgroupH:
    """Exhaustive triple transport, independent of the library's search: the
    last three points are the base triple, the image triples are enumerated
    in reversed order, each map comes from the oracle's own
    ``moebius_through`` (pinned point by point by ``test_moebius_through``),
    and set preservation is tested by an equality scan, with no hashing."""
    pts = sort_points(dedupe_points(points))
    if len(pts) < 3:
        raise TooFewPointsError("automorphism search needs at least 3 points")
    base = (pts[-1], pts[-2], pts[-3])
    found: list[Moebius] = []
    idx = range(len(pts) - 1, -1, -1)
    for i in idx:
        for j in idx:
            for k in idx:
                if i == j or j == k or i == k:
                    continue
                g = moebius_through(base, (pts[i], pts[j], pts[k]))
                if all(any(q == image for q in pts)
                       for image in map(g.apply, pts)):
                    found.append(g)
                    if len(found) > cap:
                        raise NotFiniteWithinCapError(
                            f"stabilizer exceeded cap {cap}")
    elements = sort_moebius(found)
    return FinSubgroupH(elements, minimal_generators(elements),
                        classify_group(elements))


def same_group(h1: FinSubgroupH, h2: FinSubgroupH) -> bool:
    if h1.order != h2.order:
        return False
    return all(any(g == e for e in h2.elements) for g in h1.elements)


_SAMPLES = [(Fraction(i, 1), Fraction(1, 1)) for i in range(-3, 4)] + [
    (Fraction(1, 1), Fraction(0, 1)), (Fraction(2, 3), Fraction(5, 7)),
    (Fraction(-7, 2), Fraction(1, 3)), (Fraction(11, 5), Fraction(-2, 9)),
    (Fraction(1, 13), Fraction(17, 4))]


def _value(f: HPoly2, a, b) -> CycNum:
    return f.eval(a, b) if not f.is_zero() else CycNum(0)


def eval_equal(f: HPoly2, g: HPoly2, samples: int = 12, mat=None) -> bool:
    """Pointwise comparison at deterministic rational points; an oracle for
    polynomial equality that does not share code with HPoly2.__eq__.

    With ``mat = (m11, m12, m21, m22)``, ``g`` is evaluated at the moved
    point ``(m11 a + m12 b, m21 a + m22 b)``: f = g o mat, checked without
    the library's substitution code."""
    for a, b in _SAMPLES[:samples]:
        a, b = CycNum(a), CycNum(b)
        ga, gb = (a, b) if mat is None else (mat[0] * a + mat[1] * b,
                                             mat[2] * a + mat[3] * b)
        if _value(f, a, b) != _value(g, ga, gb):
            return False
    return True


def rep3_mul(m1: tuple, m2: tuple) -> tuple:
    """Product of two 3x3 matrices given as 9 entries, row-major."""
    return tuple(sum((m1[3 * i + k] * m2[3 * k + j] for k in range(3)),
                     CycNum(0)) for i in range(3) for j in range(3))


def rep3_eq(m1: tuple, m2: tuple) -> bool:
    return all(x == y for x, y in zip(m1, m2))


def brute_force_orbit(g_list: list[Moebius], p: P1Point) -> list[P1Point]:
    out = [p]
    changed = True
    while changed:
        changed = False
        for g in g_list:
            for q in list(out):
                r = g.apply(q)
                if not any(r == t for t in out):
                    out.append(r)
                    changed = True
    return out


def reynolds_average_full_group(pair: EndoPair, G: FinSubgroupG) -> EndoPair:
    """Reynolds average summed over every element of G, -I included; the
    library sums over one lift per element of H instead."""
    P = contract(pair)
    for g in G.generators:
        if P.compose_matrix(g.entries()) != P:
            raise PNotInvariantError(
                "contraction is not fixed by the group; cannot average")
    acc1, acc2 = HPoly2.zero(), HPoly2.zero()
    for g in G.elements:
        moved = act_on_pair(g, pair)
        acc1 = moved.f1 if acc1.is_zero() else (
            acc1 if moved.f1.is_zero() else acc1 + moved.f1)
        acc2 = moved.f2 if acc2.is_zero() else (
            acc2 if moved.f2.is_zero() else acc2 + moved.f2)
    s = CycNum(Fraction(1, len(G.elements)))
    return EndoPair(acc1.scale(s), acc2.scale(s))


def _rank(rows: list[list[CycNum]]) -> int:
    """Rank by plain Gaussian elimination over CycNum."""
    rows = [list(r) for r in rows if any(r)]
    rank, col, width = 0, 0, len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def solve_linear_field(rows: list[list], rhs: list):
    """Solve rows @ x = rhs by Gauss-Jordan elimination over CycNum, the
    solver ``linalg.solve_linear`` replaced: every free variable zero,
    columns in input order; None when inconsistent."""
    n = len(rows)
    if n == 0:
        return []
    ncol = len(rows[0])
    mat = [[CycNum(v) for v in r] + [CycNum(rhs[i])]
           for i, r in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(ncol):
        sel = next((i for i in range(r, n) if mat[i][col]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [v * inv for v in mat[r]]
        for i in range(n):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    if any(mat[i][ncol] for i in range(r, n)):
        return None
    out = [CycNum(0)] * ncol
    for i, col in enumerate(pivots):
        out[col] = mat[i][ncol]
    return out


def subalgebra_witness_field(target: URatFun, gens, degree_cap: int = 12,
                             variables=("Y", "Z")):
    """``planar.subalgebra_witness`` by its former path: the system of each
    degree read off the CycNum coefficients ``.c`` of its columns and
    solved over the field by ``solve_linear_field``."""
    q, r = gens
    for d in range(1, degree_cap + 1):
        monos = [(i, tot - i) for tot in range(d + 1) for i in range(tot + 1)]
        cols = [q.num ** i * q.den ** (d - i) * r.num ** j * r.den ** (d - j)
                * target.den for i, j in monos]
        rhs = target.num * q.den ** d * r.den ** d
        nrows = max(max(c.degree for c in cols), rhs.degree) + 1
        cs = [c.c + (CycNum(0),) * (nrows - 1 - c.degree) for c in cols + [rhs]]
        sol = solve_linear_field([list(row[:-1]) for row in zip(*cs)],
                                 [row[-1] for row in zip(*cs)])
        if sol is None:
            continue
        witness = MPoly(variables, dict(zip(monos, sol)))
        if witness.substitute((q, r)) == target:
            return witness
    return None


def invariant_dimensions_oracle(G: FinSubgroupG, degrees) -> dict[int, int]:
    """Dimension of the G-fixed forms of each degree k, brute force: the
    rank of the averages over every element of G (-I included) of the k + 1
    monomials of degree k.  A form of degree k is taken by its values at the
    k + 1 points (j, 1), j = 0..k, which determine it."""
    top = max(degrees)
    sums = {k: [[CycNum(0)] * (k + 1) for _ in range(k + 1)] for k in degrees}
    for g in G.elements:
        a, b, c, d = g.entries()
        for j in range(top + 1):
            u, v = a * j + b, c * j + d
            pu, pv = [CycNum(1)], [CycNum(1)]
            for _ in range(top):
                pu.append(pu[-1] * u)
                pv.append(pv[-1] * v)
            for k, rows in sums.items():
                if j <= k:
                    for i, row in enumerate(rows):
                        row[j] = row[j] + pu[i] * pv[k - i]
    return {k: _rank(rows) for k, rows in sums.items()}


def substitute_term_by_term(f, values):
    """``MPoly.substitute`` as it was before the common-denominator
    evaluation: one ring operation per term and per power, so at URatFun
    values every product and sum is a reduced URatFun."""
    values = list(values)
    if len(values) != len(f.vars):
        raise ValueError("wrong number of substitution values")
    one = values[0] ** 0 if values else 1
    pows = [{} for _ in values]
    total = one * 0
    for e in sorted(f.c):
        term = one * f.c[e]
        for i, ei in enumerate(e):
            if ei:
                if ei not in pows[i]:
                    pows[i][ei] = values[i] ** ei
                term = term * pows[i][ei]
        total = total + term
    return total


def compose_horner(p, inner):
    """``UPoly.compose`` as it was before the common-denominator evaluation:
    Horner's rule, reducing after every step at a URatFun."""
    if isinstance(inner, URatFun):
        out = URatFun(UPoly(), UPoly.const(1))
        for coeff in reversed(p.c):
            out = out * inner + URatFun(UPoly.const(coeff), UPoly.const(1))
        return out
    out = UPoly()
    for coeff in reversed(p.c):
        out = out * inner + UPoly.const(coeff)
    return out


def orbit_term_three_gcds(pair: EndoPair):
    """The orbit term as ``embed3`` built it before it divided the pair by
    gcd(f1, f2): the chart forms of the pair, divided by the gcd of all four
    (three chained gcds), scaled so the denominator's leading coefficient
    is 1.  ``embed3._orbit_den`` keeps the denominator alone."""
    f1, f2 = pair.f1, pair.f2
    x, y = HPoly2.term(1, 1, 0), HPoly2.term(1, 0, 1)
    raw = (x * f2 + y * f1, 2 * x * f1, 2 * y * f2, x * f2 - y * f1)
    g = raw[0].gcd(raw[1]).gcd(raw[2]).gcd(raw[3])
    if g.degree > 0:
        raw = tuple(t.divexact(g) for t in raw)
    lead = raw[3].lead().inverse()
    return tuple(t.scale(lead) for t in raw)


def compose_matrix_rows(polys, mat):
    """``poly.compose_matrix_many`` as it was before Horner's rule, for every
    matrix: the image of each monomial x^i y^(d-i) as the full product
    A^i B^(d-i) of the powers of A = m11 x + m12 y and B = m21 x + m22 y,
    each row shared by the forms of one degree, accumulated per form in
    CycNum arithmetic.  Its images equal ``compose_matrix_many``'s in value
    and printed form, not in stored conductor."""
    degs = {p.d for p in polys if p.u.c}
    if not degs:
        return list(polys)
    if len(degs) != 1:
        return [compose_matrix_rows((p,), mat)[0] for p in polys]
    d = degs.pop()
    m11, m12, m21, m22 = (CycNum(v) for v in mat)
    lin_a, lin_b = UPoly([m12, m11]), UPoly([m22, m21])
    pows_a, pows_b = [UPoly.const(1)], [UPoly.const(1)]
    for _ in range(d):
        pows_a.append(pows_a[-1] * lin_a)
        pows_b.append(pows_b[-1] * lin_b)
    rows = {}
    for i in {i for p in polys for i, v in enumerate(p.u.c) if v}:
        image = pows_a[i] * pows_b[d - i]
        rows[i] = [(k, r) for k, r in enumerate(image.c) if r]
    out = []
    for p in polys:
        if not p.u.c:
            out.append(p)
            continue
        acc = [CycNum(0)] * (d + 1)
        for i, v in enumerate(p.u.c):
            if v:
                for k, r in rows[i]:
                    acc[k] = acc[k] + v * r
        out.append(HPoly2(d, UPoly(acc)))
    return out


def upoly_mul_loop(a: UPoly, b: UPoly) -> UPoly:
    """``UPoly.__mul__`` as it was before the integer kernel: one CycNum
    product and one sum per pair of nonzero coefficients, each in the field
    of its pair.  The stored conductors may differ from the kernel's; the
    values, and so the printed forms, may not."""
    return UPoly(tuple_product(a.c, b.c))


# -- polynomials as plain tuples of CycNum coefficients, ascending -------------
# The reference for the integer numerators of UPoly and HPoly2: every
# operation one CycNum operation at a time, each in the field of its
# operands, the result without trailing zeros.

def _trimmed(cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def tuple_sum(a: tuple, b: tuple, sign: int = 1) -> tuple:
    zero = CycNum(0)
    return _trimmed((a[i] if i < len(a) else zero)
                    + sign * (b[i] if i < len(b) else zero)
                    for i in range(max(len(a), len(b))))


def tuple_product(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [CycNum(0)] * (len(a) + len(b) - 1)
    nz = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nz:
                out[i + j] = out[i + j] + ai * bj
    return _trimmed(out)


def tuple_scale(a: tuple, s) -> tuple:
    return _trimmed(v * s for v in a)


def tuple_derivative(a: tuple) -> tuple:
    return _trimmed(a[i] * i for i in range(1, len(a)))


def tuple_eval(a: tuple, v) -> CycNum:
    out = CycNum(0)
    for coeff in reversed(a):
        out = out * v + coeff
    return out


def tuple_substitute(cs: tuple, d: int, mat) -> tuple:
    """The dehomogenized image of the form sum_i cs[i] x^i y^(d-i) under
    (x, y) <- (m11 x + m12 y, m21 x + m22 y): sum_i cs[i] A^i B^(d-i) with
    A = m11 x + m12 and B = m21 x + m22, every power by repeated products."""
    m11, m12, m21, m22 = (CycNum(v) for v in mat)
    out = ()
    for i, c in enumerate(cs):
        term = (c,)
        for _ in range(i):
            term = tuple_product(term, (m12, m11))
        for _ in range(d - i):
            term = tuple_product(term, (m22, m21))
        out = tuple_sum(out, term)
    return out


def upoly_gcd_euclid(a: UPoly, b: UPoly) -> UPoly:
    """The monic gcd as ``UPoly.gcd`` computed it before the modular gcd:
    Euclid over CycNum with unnormalized remainders."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def upoly_xgcd_euclid(a: UPoly, b: UPoly):
    """(g, u, v) as ``UPoly.xgcd`` computed them before the one solver:
    the extended Euclid over CycNum, made monic at the end."""
    r0, r1 = a, b
    u0, u1 = UPoly.const(1), UPoly.const(0)
    v0, v1 = UPoly.const(0), UPoly.const(1)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    inv = r0.lead().inverse()
    return r0.monic(), u0 * inv, v0 * inv


# -- multivariate polynomials as dicts of CycNum coefficients ------------------
# The reference for the integer rows of MPoly: exponent tuple -> nonzero
# CycNum, every operation one CycNum operation at a time, each in the field
# of its operands.

def _nonzero(d: dict) -> dict:
    return {e: v for e, v in d.items() if v}


def dict_sum(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, CycNum(0)) + sign * v
    return _nonzero(out)


def dict_scale(a: dict, s) -> dict:
    return _nonzero({e: v * s for e, v in a.items()})


def dict_product(a: dict, b: dict) -> dict:
    out = {}
    for e1, x in a.items():
        for e2, y in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, CycNum(0)) + x * y
    return _nonzero(out)


def dict_at(f: dict, values: list, one: dict) -> dict:
    """f at the polynomial values (dicts), ``one`` the constant 1 of their
    ring: every term a product of repeated products, the terms summed."""
    out = {}
    for e, c in f.items():
        term = dict_scale(one, c)
        for value, k in zip(values, e):
            for _ in range(k):
                term = dict_product(term, value)
        out = dict_sum(out, term)
    return out


def dict_at_scalars(f: dict, values) -> CycNum:
    out = CycNum(0)
    for e, c in f.items():
        term = c
        for value, k in zip(values, e):
            for _ in range(k):
                term = term * value
        out = out + term
    return out

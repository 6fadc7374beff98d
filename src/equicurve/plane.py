"""Extendability of a curve automorphism under plane embeddings.

For a curve P^1 minus a finite invariant set and a nontrivial automorphism
g, the decision runs on the number of g-fixed points left on the curve:

* at most one: extendable, with the explicit embedding x -> (x, 1/P(x))
  and the linear extension (x, y) -> (a x + b, y / mu);
* exactly two and g an involution: extendable through the hyperbola
  parametrization (order-2 construction below);
* exactly two and finite odd order: no plane embedding extends g
  (obstructed); the blow-up argument behind this is cited, not computed;
* exactly two and even order above two (or infinite order): open, no
  construction or obstruction is known.
"""
from __future__ import annotations

from .certificates import Certificate
from .cyclotomic import CycNum, as_cyc, root_of_unity
from .errors import (
    ConstructionError,
    DegenerateParamsError,
    FixedPointInLambdaError,
    NotInvariantError,
    SqrtNotFoundError,
    TrivialAutomorphismError,
)
from .poly import HPoly2, MPoly, UPoly, URatFun
from .projline import (
    Moebius,
    P1Point,
    dedupe_points,
    fixed_point_form,
    sort_points,
    try_sqrt,
)

_INFINITE = "infinite"


class CurveAut:
    """An automorphism of P^1 minus a point set: g with g(points) = points.

    Construction sorts and dedupes the points, checks that g preserves them,
    and records the order of g and where its fixed points lie.
    """

    __slots__ = ("points", "g", "order", "fixed_form", "fixed_on_curve",
                 "fixed_in_lambda")

    def __init__(self, points: list[P1Point], g: Moebius):
        points = sort_points(dedupe_points(points))
        if not points:
            raise DegenerateParamsError("the removed set must be nonempty")
        removed = set(points)
        for p in points:
            q = g.apply(p)
            if q not in removed:
                raise NotInvariantError(f"g sends {p} outside the set: {q}")
        self.points = points
        self.g = g
        self.fixed_form = fixed_form = fixed_point_form(g)
        if g.is_identity():
            self.order = 1
            self.fixed_on_curve = 0
            self.fixed_in_lambda = 0
            return
        sf = fixed_form.squarefree_decomp()[0]
        in_lam = sum(1 for p in points if not fixed_form.eval(p.a, p.b))
        self.fixed_in_lambda = in_lam
        self.fixed_on_curve = sf.degree - in_lam
        o = g.order()
        self.order = o if o is not None else _INFINITE


class Extendable:
    """Verdict: an embedding of the curve in the plane to which g extends."""

    __slots__ = ("embedding", "extension_desc", "certificate", "data")

    def __init__(self, embedding: tuple[URatFun, URatFun], extension_desc: str,
                 certificate: Certificate, data: dict):
        self.embedding = embedding
        self.extension_desc = extension_desc
        self.certificate = certificate
        self.data = data


class Obstructed:
    """Verdict: no plane embedding extends g."""

    __slots__ = ("reason", "fixed_form", "order")

    def __init__(self, reason: str, fixed_form: HPoly2, order: int):
        self.reason = reason
        self.fixed_form = fixed_form
        self.order = order


class OpenCase:
    """Verdict: neither a construction nor an obstruction is known."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


def decide_extendability(c: CurveAut):
    """Route a nontrivial automorphism to Extendable / Obstructed / OpenCase."""
    if c.g.is_identity():
        raise TrivialAutomorphismError("the identity is trivially extendable")
    if c.fixed_on_curve <= 1:
        return build_affine_extension(c)
    if c.order == 2:
        return build_involution_extension(c)
    if c.order != _INFINITE and c.order % 2 == 1:
        return Obstructed(
            "two fixed points on the curve and odd order above one: "
            "no plane embedding extends this automorphism "
            "(genus count of the blown-up boundary orbits)",
            c.fixed_form, c.order)
    return OpenCase(
        "two fixed points on the curve with even order above two "
        "(or infinite order): neither construction nor obstruction is known")


def build_affine_extension(c: CurveAut) -> Extendable:
    """Extendable case with at most one fixed point on the curve.

    Moves a fixed point inside the removed set to infinity, where g reads
    x -> a x + b; then P(a x + b) = mu P(x) and the embedding
    x -> (x, 1/P(x)) extends g by (x, y) -> (a x + b, y / mu).
    """
    anchors = [p for p in c.points if not c.fixed_form.eval(p.a, p.b)]
    if not anchors:
        raise ConstructionError(
            "no fixed point inside the removed set; preconditions violated")
    inf = P1Point.infinity()
    p0 = inf if inf in anchors else anchors[0]
    if p0.is_infinity():
        kappa = Moebius.identity()
    else:
        kappa = Moebius(0, 1, 1, -p0.a)   # x -> 1/(x - alpha)
    g2 = kappa * c.g * kappa.inverse()
    if g2.c:
        raise ConstructionError("conjugated map does not fix infinity")
    a = g2.a / g2.d
    b = g2.b / g2.d
    finite = [kappa.apply(p) for p in c.points]
    finite = [p for p in finite if not p.is_infinity()]
    P = UPoly.from_roots([p.a for p in finite])
    shifted = P.compose(UPoly([b, a]))
    mu = shifted.lead() / P.lead() if P.degree > 0 else as_cyc(1)
    cert = Certificate("affine-form extension")
    cert.check("P(a x + b) = mu P(x) exactly", shifted == P * mu,
               witness=f"P = {P}, mu = {mu}")
    x = URatFun.x()
    emb = (x, URatFun(UPoly.const(1), P))
    lhs = (as_cyc(a) * x + as_cyc(b), emb[1] * mu.inverse())
    gx = as_cyc(a) * x + as_cyc(b)
    rhs = (gx, URatFun(UPoly.const(1), P).compose(gx))
    for i in range(2):
        cert.check(f"extension o embedding = embedding o g (component {i + 1})",
                   lhs[i] == rhs[i])
    first = f"{a}*x" if a != 1 else "x"
    if b:
        first += f" + {b}" if not str(b).startswith("-") else f" - {str(b)[1:]}"
    desc = f"(x, y) -> ({first}, y / ({mu}))"
    return Extendable(emb, desc, cert, {
        "kappa": kappa, "a": a, "b": b, "mu": mu, "P": P,
    })


def build_involution_extension(c: CurveAut) -> Extendable:
    """Order-2 case with both fixed points on the curve.

    Conjugates g to t -> 1/t (one square root needed), reads the removed
    points off as levels a_i of (t + 1/t)/2, and embeds by
    t -> (x(t)/prod(y(t) - a_i), y(t)) onto y^2 - 1 = x^2 prod(y - a_i)^2,
    equivariantly for (x, y) -> (-x, y).
    """
    if c.order != 2:
        raise DegenerateParamsError("the involution construction needs order 2")
    if c.fixed_in_lambda:
        raise FixedPointInLambdaError(
            "a removed point is fixed; use the affine-form construction")
    p = c.points[0]
    q = c.g.apply(p)
    if q == p:
        raise FixedPointInLambdaError("unexpected fixed removed point")
    m = Moebius(p.b, -p.a, q.b, -q.a)
    g1 = m * c.g * m.inverse()
    if g1.a or g1.d:
        raise ConstructionError("conjugated involution is not antidiagonal")
    lam = g1.b / g1.c
    s = try_sqrt(lam)
    if s is None:
        raise SqrtNotFoundError(f"no square root found for {lam}")
    full = Moebius(1, 0, 0, s) * m
    conj = full * c.g * full.inverse()
    cert = Certificate("order-2 extension")
    cert.check("coordinate change conjugates g to t -> 1/t",
               conj == Moebius(0, 1, 1, 0), witness=str(conj))

    x = URatFun.x()
    y_par = (x + 1 / x) * CycNum(1) / 2
    x_par = (x - 1 / x) * CycNum(1) / 2
    levels: dict[CycNum, None] = {}   # insertion-ordered set
    for pt in c.points[1:]:
        t = full.apply(pt)
        if t.is_infinity() or not t.a:
            continue  # the two anchor points map to 0 and infinity
        val = (t.a + t.a.inverse()) / 2
        if val == 1 or val == -1:
            raise FixedPointInLambdaError(
                f"removed point {pt} lands on a fixed point of t -> 1/t")
        levels.setdefault(val)
    a_vals = list(levels)
    prod = URatFun.const(1)
    for w in a_vals:
        prod = prod * (y_par - w)
    emb = (x_par / prod, y_par)

    vars2 = ("x", "y")
    xv, yv = MPoly.var(vars2, "x"), MPoly.var(vars2, "y")
    factor = MPoly.const(vars2, 1)
    for w in a_vals:
        factor = factor * (yv - w)
    curve_eq = yv * yv - 1 - xv * xv * factor * factor

    on_curve = emb[1] * emb[1] - 1 - emb[0] * emb[0] * (prod * prod)
    cert.check("image satisfies y^2 - 1 = x^2 prod(y - a_i)^2",
               on_curve.is_zero(), witness=str(on_curve))
    inv_t = 1 / x
    cert.check("t -> 1/t negates the first coordinate",
               emb[0].compose(inv_t) == -emb[0])
    cert.check("t -> 1/t fixes the second coordinate",
               emb[1].compose(inv_t) == emb[1])
    cert.check("no level a_i hits the fixed values 1, -1",
               all(w != 1 and w != -1 for w in a_vals))
    cert.check("levels a_i are pairwise distinct",
               all(a_vals[i] != a_vals[j]
                   for i in range(len(a_vals)) for j in range(i + 1, len(a_vals))))

    # (y(t) - y(u)) * 2 t u = (t - u)(t u - 1): parameters share a level
    # only when u = t or u = 1/t, and the inversion flips the sign of the
    # first coordinate, which vanishes only at t = 1, -1 (the fixed points)
    tvars = ("t", "u")
    tv, uv = MPoly.var(tvars, "t"), MPoly.var(tvars, "u")
    lhs = tv * tv * uv + uv - uv * uv * tv - tv
    rhs = (tv - uv) * (tv * uv - 1)
    cert.check("level map separates inversion orbits", lhs == rhs)
    half = as_cyc(1) / 2
    cert.check("first coordinate vanishes only at the fixed parameters",
               x_par.num == UPoly([-half, as_cyc(0), half]))
    desc = "(x, y) -> (-x, y)"
    return Extendable(emb, desc, cert, {
        "curve_equation": curve_eq, "moebius": full, "lambda": lam, "sqrt": s,
        "levels": a_vals,
    })


def cube_symmetric_family(k: int, a_list) -> list[P1Point]:
    """The 3k points [a_i w^j : 1] invariant under [x:y] -> [x : w y].

    a_1 must be 1; the a_i must be nonzero and distinct up to cube-root
    multiples.
    """
    if k < 1:
        raise DegenerateParamsError("k must be positive")
    a_vals = [as_cyc(v) for v in a_list]
    if len(a_vals) != k:
        raise DegenerateParamsError(f"expected {k} values, got {len(a_vals)}")
    if a_vals[0] != 1:
        raise DegenerateParamsError("the first parameter must be 1")
    w = root_of_unity(3)
    for i, v in enumerate(a_vals):
        if not v:
            raise DegenerateParamsError("parameters must be nonzero")
        for j in range(i):
            ratio = v / a_vals[j]
            if ratio == 1 or ratio == w or ratio == w * w:
                raise DegenerateParamsError(
                    f"parameters {j + 1} and {i + 1} coincide up to a cube root")
    pts = [P1Point(v * w ** j, 1) for v in a_vals for j in range(3)]
    return sort_points(pts)


def verify_cube_symmetry(points: list[P1Point]) -> Certificate:
    """The map [x:y] -> [x : w y] permutes the family."""
    h = Moebius(1, 0, 0, root_of_unity(3))
    cert = Certificate("threefold symmetry of the family")
    family = set(points)
    for p in points:
        q = h.apply(p)
        cert.check(f"{p} stays in the family", q in family, witness=str(q))
    return cert

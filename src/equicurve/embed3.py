"""Equivariant closed embeddings of punctured projective lines into A^3.

The chart iota maps a pair of distinct points of P^1 onto the affine
quadric yz = x^2 - 1; composed with q -> (q, delta(q)) for an equivariant
self-map delta with fixed locus the removed set, it embeds the curve into
A^3.  Each Moebius map acts on A^3 through an explicit 3x3 matrix, making
the embedding equivariant; all of this is certified by exact polynomial
identities.
"""
from __future__ import annotations

from fractions import Fraction

from .certificates import Certificate, merge
from .cyclotomic import CycNum, as_cyc, root_of_unity
from .equivariant import (
    EndoPair,
    OrbitData,
    P1SelfMap,
    act_on_pair,
    combine_orbits,
    contract,
    selfmap_from_orbit_polynomials,
    selfmap_with_fixed_locus,
    verify_fixed_locus,
    verify_selfmap_equivariance,
)
from .errors import (
    DegenerateParamsError,
    NotOnQuadricError,
    NotSquarefreeError,
    OnDiagonalError,
    ZeroPolynomialError,
)
from .poly import HPoly2, MPoly, URatFun, compose_matrix_many, poly3_var
from .projline import (FinSubgroupG, FinSubgroupH, GroupKind, Moebius,
                       P1Point, group_closure, sl2_pullback)

Rep3 = tuple  # 9 CycNum entries, row-major


def rep3(h: Moebius) -> Rep3:
    """The 3x3 matrix by which a Moebius map (a,b;c,d) acts on A^3."""
    a, b, c, d = h.entries()
    det = a * d - b * c
    s = det.inverse()
    return (
        s * (a * d + b * c), s * (a * c), s * (b * d),
        s * (2 * a * b), s * (a * a), s * (b * b),
        s * (2 * c * d), s * (c * c), s * (d * d),
    )


def _chart(x, y, u, v):
    """iota([x:y], [u:v]) as (x-, y-, z-numerator, denominator); the four
    forms are bilinear, so one formula serves numbers and polynomials."""
    xv, yu = x * v, y * u
    return xv + yu, 2 * x * u, 2 * y * v, xv - yu


def to_quadric(p: P1Point, q: P1Point) -> tuple[CycNum, CycNum, CycNum]:
    """iota: an off-diagonal pair of P^1 points onto yz = x^2 - 1."""
    *nums, w = _chart(p.a, p.b, q.a, q.b)
    if not w:
        raise OnDiagonalError(f"({p}, {q}) lies on the diagonal")
    wi = w.inverse()
    return tuple(n * wi for n in nums)


def from_quadric(pt) -> tuple[P1Point, P1Point]:
    """Inverse chart; the input must satisfy yz = x^2 - 1 exactly."""
    x, y, z = (as_cyc(v) for v in pt)
    if y * z != x * x - 1:
        raise NotOnQuadricError(f"({x}, {y}, {z}) is not on yz = x^2 - 1")
    if x != -1:
        return P1Point(x + 1, z), P1Point(y, x + 1)
    return P1Point(y, x - 1), P1Point(x - 1, z)


def _check_linear(cert: Certificate, claim: str, m: Rep3, forms, moved) -> None:
    """Check, denominators cleared, that coordinate i of the map into A^3
    given by ``forms`` (numerators, denominator) moves to ``moved`` by m."""
    *nums, den = forms
    *nums_h, den_h = moved
    for i in range(3):
        lin = nums[0] * m[3 * i] + nums[1] * m[3 * i + 1] + nums[2] * m[3 * i + 2]
        diff = nums_h[i] * den - lin * den_h
        cert.check(f"coordinate {i + 1} {claim}", diff.is_zero(),
                   witness=f"residual {diff}")


_QVARS = ("y0", "y1", "z0", "z1")


def verify_quadric_equivariance(h: Moebius) -> Certificate:
    """Symbolic identity iota(h p, h q) = rep3(h) iota(p, q), denominators
    cleared, in the four homogeneous coordinates."""
    y0, y1, z0, z1 = (MPoly.var(_QVARS, n) for n in _QVARS)
    a, b, c, d = h.entries()
    cert = Certificate(f"quadric chart equivariance for {h}")
    _check_linear(cert, "transforms linearly", rep3(h), _chart(y0, y1, z0, z1),
                  _chart(a * y0 + b * y1, c * y0 + d * y1,
                         a * z0 + b * z1, c * z0 + d * z1))
    return cert


# ---------------------------------------------------------------------------


class EmbeddingA3:
    """A closed embedding of P^1 minus the zero set of ``lambda_poly``.

    ``nums`` over ``den`` are the three coordinates as ratios of
    equal-degree homogeneous forms with no common factor; ``orbit_dens``
    holds, per orbit, the denominator of that orbit's summand (the chart of
    its pair over their gcd); ``reps`` carries the 3x3 action of each group
    generator.
    """

    __slots__ = ("group", "lambda_poly", "nums", "den", "orbit_dens", "reps",
                 "orbits", "selfmap")

    def __init__(self, group: FinSubgroupH, lambda_poly: HPoly2,
                 nums: tuple[HPoly2, HPoly2, HPoly2], den: HPoly2,
                 orbit_dens: list[HPoly2], reps: list[tuple[Moebius, Rep3]],
                 orbits: list[OrbitData], selfmap: P1SelfMap):
        self.group = group
        self.lambda_poly = lambda_poly
        self.nums = nums
        self.den = den
        self.orbit_dens = orbit_dens
        self.reps = reps
        self.orbits = orbits
        self.selfmap = selfmap


def _graph_forms(f1: HPoly2, f2: HPoly2) -> tuple[HPoly2, HPoly2, HPoly2, HPoly2]:
    """iota(q, [f1 : f2](q)) as three numerators and a denominator, scaled
    so the denominator's leading coefficient is 1."""
    forms = _chart(HPoly2.term(1, 1, 0), HPoly2.term(1, 0, 1), f1, f2)
    scale = _den_scale(forms[3])
    return tuple(t.scale(scale) for t in forms)


def _den_scale(den: HPoly2) -> CycNum:
    """The scale that makes the leading coefficient of a denominator 1."""
    if den.is_zero():
        raise ZeroPolynomialError("the self-map is the identity; no embedding")
    return den.lead().inverse()


def _orbit_den(pair: EndoPair) -> HPoly2:
    """The denominator x f2 - y f1 of the chart of the pair over
    gcd(f1, f2), scaled so its leading coefficient is 1."""
    # a common factor of the four chart forms divides 2x f1, 2y f1, 2x f2
    # and 2y f2, so it divides gcd(f1, f2): dividing the pair removes them all
    _, f1, f2 = pair.f1.cofactors(pair.f2)
    den = HPoly2.term(1, 1, 0) * f2 - HPoly2.term(1, 0, 1) * f1
    return den.scale(_den_scale(den))


def assemble_embedding(h: FinSubgroupH, sm: P1SelfMap,
                       orbits: list[OrbitData]) -> EmbeddingA3:
    """Compose the quadric chart with q -> (q, delta(q))."""
    n1, n2, n3, den = _graph_forms(sm.reduced1, sm.reduced2)
    lam = HPoly2.term(1, 0, 0)
    for o in orbits:
        lam = lam * o.p.squarefree_decomp()[0]
    return EmbeddingA3(
        group=h,
        lambda_poly=lam.normalized(),
        nums=(n1, n2, n3),
        den=den,
        orbit_dens=[_orbit_den(o.pair) for o in orbits],
        reps=[(g, rep3(g)) for g in h.generators],
        orbits=orbits,
        selfmap=sm,
    )


def _certified_embedding(h: FinSubgroupH, sm: P1SelfMap,
                         orbits: list[OrbitData], title: str,
                         checks: list[Certificate]):
    """Assemble the embedding; its certificate merges ``checks`` with the
    self-map, fixed-locus and embedding verifiers."""
    emb = assemble_embedding(h, sm, orbits)
    return emb, merge(title, checks + [
        verify_selfmap_equivariance(sm, h),
        verify_fixed_locus(sm, emb.lambda_poly),
        verify_embedding(emb),
    ])


def build_embedding(h: FinSubgroupH, points: list[P1Point] | None = None,
                    orbit_polys: list[HPoly2] | None = None,
                    G: FinSubgroupG | None = None):
    """Full pipeline; returns (embedding, certificate).

    The removed set comes either as explicit points (decomposed into
    orbits) or as squarefree orbit polynomials (when roots do not split
    over a cyclotomic field).
    """
    if points is not None:
        sm, orbits, G = selfmap_with_fixed_locus(h, points, G)
    elif orbit_polys is not None:
        sm, orbits, G = selfmap_from_orbit_polynomials(h, orbit_polys, G)
    else:
        raise DegenerateParamsError("provide points or orbit polynomials")
    return _certified_embedding(h, sm, orbits, "embedding construction", [])


def verify_embedding(e: EmbeddingA3) -> Certificate:
    """Equivariance, regularity and injectivity of the embedding, exactly."""
    cert = Certificate("embedding into A^3")
    forms = (*e.nums, e.den)
    n1, n2, n3, den = forms
    for g, m in e.reps:
        _check_linear(cert, f"equivariant under {g}", m, forms,
                      compose_matrix_many(forms, g.entries()))

    sf = den.squarefree_decomp()[0]
    cert.check("final denominator vanishes exactly on the removed set",
               sf.normalized() == e.lambda_poly,
               witness=f"denominator squarefree part {sf}")

    for k, wi in enumerate(e.orbit_dens):
        sf_w = wi.squarefree_decomp()[0]
        sf_p = e.orbits[k].p.squarefree_decomp()[0]
        cert.check(f"orbit {k + 1} denominator vanishes exactly on its orbit",
                   sf_w == sf_p, witness=f"{sf_w} vs {sf_p}")

    quad = n2 * n3 - (n1 * n1 - den * den)
    cert.check("image satisfies yz = x^2 - 1", quad.is_zero(),
               witness=f"residual {quad}")

    x, y = HPoly2.term(1, 1, 0), HPoly2.term(1, 0, 1)
    inj1 = (n1 + den) * y - n3 * x
    inj2 = n2 * y - (n1 - den) * x
    cert.check("first chart coordinate of the inverse is the point itself",
               inj1.is_zero() and inj2.is_zero(),
               witness=f"residuals {inj1}; {inj2}")
    return cert


# ---------------------------------------------------------------------------
# closed-form preset families


def standard_group(kind: str, n: int | None = None) -> FinSubgroupH:
    """The reference subgroup of PGL(2) for each preset family, closed with
    its known order as the cap."""
    if kind == "cyclic":
        if n is None or n < 1:
            raise DegenerateParamsError("cyclic preset needs n >= 1")
        gens = [Moebius(root_of_unity(n), 0, 0, 1)]
    elif kind == "dihedral":
        if n is None or n < 2:
            raise DegenerateParamsError("dihedral preset needs n >= 2")
        gens = [Moebius(root_of_unity(n), 0, 0, 1), Moebius(0, 1, 1, 0)]
    elif kind == "tetrahedral":
        i = root_of_unity(4)
        gens = [Moebius(i, i, 1, -1), Moebius(1, 0, 0, -1)]
    elif kind == "octahedral":
        i = root_of_unity(4)
        gens = [Moebius(i, i, 1, -1), Moebius(i, 0, 0, 1)]
    elif kind == "icosahedral":
        z5 = root_of_unity(5)
        golden = -(z5 ** 2 + z5 ** 3)
        gens = [Moebius(z5, 0, 0, 1), Moebius(0, -1, 1, 0),
                Moebius(golden, 1, 1, -golden)]
    else:
        raise DegenerateParamsError(f"unknown preset kind {kind!r}")
    return group_closure(gens, cap=GroupKind(kind.capitalize(), n).order)


def closed_form_pair(kind: str, n: int | None, a, b):
    """The explicit (p, P, pair) for one orbit of a preset family.

    Identities P = contract(pair) and G-fixedness hold for every parameter
    choice with (a, b) != (0, 0); they are what the acceptance suite pins.
    """
    a, b = as_cyc(a), as_cyc(b)
    if not a and not b:
        raise DegenerateParamsError("(a, b) = (0, 0) is not allowed")
    if kind == "cyclic":
        p = HPoly2(n, {n: a, 0: b})
        pair = EndoPair(HPoly2.term(1, 0, n - 1).scale(b) * p,
                        HPoly2.term(-1, n - 1, 0).scale(a) * p)
        return p, p * p, pair
    if kind == "dihedral":
        p = HPoly2(2 * n, {2 * n: a, n: 2 * b, 0: a})
        f1 = HPoly2(n, {n: b, 0: a}) * HPoly2.term(1, 0, n - 1) * p
        f2 = HPoly2(n, {n: a, 0: b}) * HPoly2.term(-1, n - 1, 0) * p
        return p, p * p, EndoPair(f1, f2)
    if kind == "tetrahedral":
        sext = HPoly2(6, {5: 1, 1: -1})            # x^5 y - x y^5
        quart = HPoly2(4, {4: 1, 0: 1})            # x^4 + y^4
        octic = HPoly2(8, {8: 1, 4: -34, 0: 1})    # x^8 - 34 x^4 y^4 + y^8
        p = (sext * sext).scale(6 * a) + (quart * octic).scale(b)
        f1 = (HPoly2(11, {10: 1, 6: -6, 2: 5}).scale(a)
              + HPoly2(11, {8: -11, 4: -22, 0: 1}).scale(b))
        f2 = (HPoly2(11, {9: -5, 5: 6, 1: -1}).scale(a)
              + HPoly2(11, {11: -1, 7: 22, 3: 11}).scale(b))
        return p, p, EndoPair(f1, f2)
    raise DegenerateParamsError(f"no closed form for kind {kind!r}")


class PresetFamily:
    """A closed-form family: its group and lift, orbit data, embedding and
    the certificate of its defining identities."""

    __slots__ = ("kind", "n", "params", "h", "g", "orbits", "embedding",
                 "certificate")

    def __init__(self, kind: str, n: int | None,
                 params: list[tuple[CycNum, CycNum]], h: FinSubgroupH,
                 g: FinSubgroupG, orbits: list[OrbitData],
                 embedding: EmbeddingA3, certificate: Certificate):
        self.kind = kind
        self.n = n
        self.params = params
        self.h = h
        self.g = g
        self.orbits = orbits
        self.embedding = embedding
        self.certificate = certificate


def preset_family(kind: str, n: int | None, params,
                  require_squarefree: bool = True) -> PresetFamily:
    """Closed-form embedding family; verifies the defining identities.

    ``require_squarefree=False`` admits degenerate parameters whose form
    has multiple roots (the removed set is then the support of the form);
    forms are always required pairwise coprime.
    """
    h = standard_group(kind, n)
    G = sl2_pullback(h)
    params = [(as_cyc(a), as_cyc(b)) for a, b in params]
    orbit_data: list[OrbitData] = []
    cert = Certificate(f"{kind} preset family")
    for idx, (a, b) in enumerate(params):
        p, P, pair = closed_form_pair(kind, n, a, b)
        sf = p.squarefree_decomp()[0]
        if sf.degree != p.degree:
            if require_squarefree:
                raise NotSquarefreeError(
                    f"orbit form {idx + 1} ({p}) has multiple roots")
            cert.check(f"orbit {idx + 1} form accepted with multiplicity",
                       True, witness=str(p))
        cert.check(f"orbit {idx + 1}: contraction identity f1*y - f2*x = P",
                   contract(pair) == P)
        cert.check(f"orbit {idx + 1}: pair fixed by every element of G",
                   all(act_on_pair(g, pair) == pair for g in G.elements))
        orbit_data.append(OrbitData([], p, P.degree // p.degree, P, pair))
    sm = combine_orbits(orbit_data)
    emb, cert = _certified_embedding(h, sm, orbit_data, f"{kind} preset family",
                                     [cert])
    return PresetFamily(kind, n, params, h, G, orbit_data, emb, cert)


# ---------------------------------------------------------------------------
# the two special curves: the affine line and the punctured affine line


def affine_line_embedding():
    """t -> (t, 0, 0) with the affine group acting linearly on A^3.

    Returns (tau, action, certificate): ``action(a, b)`` is the matrix map
    extending t -> a t + b, namely (x, y, z) -> (a x + b(y+1), y, z).
    """
    t = URatFun.x()
    tau = (t, URatFun.const(0), URatFun.const(0))
    X, Y, Z = (poly3_var(v) for v in "XYZ")

    def action(a, b):
        a, b = as_cyc(a), as_cyc(b)
        if not a:
            raise DegenerateParamsError("a must be nonzero")
        return (a * X + b * Y + b, Y, Z)

    cert = Certificate("affine line special case")
    samples = [(1, 0), (2, 3), (-1, 1), (Fraction(1, 2), -2), (3, Fraction(2, 5))]
    for a, b in samples:
        mapped = [f.substitute(tau) for f in action(a, b)]
        target = (as_cyc(a) * t + as_cyc(b), URatFun.const(0), URatFun.const(0))
        cert.check(f"extends t -> {a}*t + {b} on the curve",
                   all(u == v for u, v in zip(mapped, target)))
    for a, b in samples:
        img = action(a, b)
        cert.check(f"action (a,b)=({a},{b}) preserves the ideal (y, z)",
                   img[1] == Y and img[2] == Z)
    comp = tuple(f.substitute(action(5, 7)) for f in action(2, 3))
    cert.check("composition law matches (a,b) composition",
               all(u == v for u, v in zip(comp, action(10, 17))))
    return tau, action, cert


def punctured_line_embedding():
    """t -> (t, 1/t, 0) with scalings and the inversion acting linearly.

    ``scaling(lam)`` extends t -> lam t; ``inversion(lam)`` extends
    t -> lam / t via (x, y, z) -> (lam y, lam^(-1) x, z).
    """
    t = URatFun.x()
    tau = (t, 1 / t, URatFun.const(0))
    X, Y, Z = (poly3_var(v) for v in "XYZ")

    def scaling(lam):
        lam = as_cyc(lam)
        return (lam * X, lam.inverse() * Y, Z)

    def inversion(lam):
        lam = as_cyc(lam)
        return (lam * Y, lam.inverse() * X, Z)

    cert = Certificate("punctured line special case")
    lams = [as_cyc(v) for v in (1, 2, 3, Fraction(1, 2), -1)]
    for lam in lams:
        mapped = [f.substitute(tau) for f in scaling(lam)]
        target = (lam * t, (lam * t) ** -1, URatFun.const(0))
        cert.check(f"scaling matrix extends t -> {lam}*t",
                   all(u == v for u, v in zip(mapped, target)))
        mapped = [f.substitute(tau) for f in inversion(lam)]
        lam_over_t = URatFun.const(lam) / t
        target = (lam_over_t, lam_over_t ** -1, URatFun.const(0))
        cert.check(f"inversion matrix extends t -> {lam}/t",
                   all(u == v for u, v in zip(mapped, target)))
    for lam in lams:
        for fam, name in ((scaling(lam), "scaling"), (inversion(lam), "inversion")):
            on_ideal = (fam[2] == Z and fam[0] * fam[1] == X * Y)
            cert.check(f"{name}({lam}) preserves the ideal (z, xy - 1)", on_ideal)
    comp = tuple(f.substitute(inversion(3)) for f in inversion(6))
    cert.check("inversion o inversion is a scaling",
               all(u == v for u, v in zip(comp, scaling(2))))
    return tau, scaling, inversion, cert

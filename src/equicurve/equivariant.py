"""Equivariant self-maps of P^1 with a prescribed fixed locus.

The engine behind the embeddings: a point set invariant under a finite
Moebius group H is realized as the exact fixed locus of an H-equivariant
self-map [x:y] -> [f1 : f2].  The construction works orbit by orbit:

* the orbit polynomial p (squarefree, roots = orbit) is a semi-invariant
  of the SL(2) pullback G; some power P = p^d is G-fixed;
* P splits as f1*y - f2*x for a pair (f1, f2), and the Reynolds average of
  the pair over G is G-fixed with the same contraction.  It has a closed
  form: SL(2) = Sp(2), so the symplectic gradient (1/n)(dP/dy, -dP/dx) is
  G-fixed and contracts to P by Euler's identity, and the average differs
  from it by (x Q, y Q) for a G-invariant Q of degree n - 2, which is
  averaged only when Molien's formula says such invariants exist
  (Sturmfels, *Algorithms in Invariant Theory*, 2.2);
* the per-orbit pairs combine into one pair whose contraction is the
  product of all the P_i, and whose reduced form has fixed locus exactly
  the prescribed set.

Everything is verified by exact polynomial identities; the verifiers
return certificates rather than trusting the construction.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .certificates import Certificate
from .cyclotomic import CycNum, torsion_order
from .errors import (
    ConstantTermError,
    DegenerateParamsError,
    DegeneratePointsError,
    DegreeAlignmentError,
    NotSemiInvariantError,
    PNotInvariantError,
    ZeroPolynomialError,
)
from .poly import HPoly2, UPoly, compose_matrix_many
from .projline import (
    FinSubgroupG,
    FinSubgroupH,
    P1Point,
    SL2Elem,
    _adjugate,
    orbit_decompose,
    sl2_pullback,
)

_C0 = CycNum(0)
_C1 = CycNum(1)


class EndoPair:
    """Endomorphism (x, y) -> (f1, f2) of the plane, both forms of one degree."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: HPoly2, f2: HPoly2):
        if f1 and f2 and f1.degree != f2.degree:
            raise DegreeAlignmentError(
                f"component degrees differ: {f1.degree} vs {f2.degree}")
        self.f1 = f1
        self.f2 = f2

    @property
    def degree(self) -> int:
        return self.f1.degree if self.f1 else self.f2.degree

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f2.is_zero()

    def __eq__(self, other):
        return self.f1 == other.f1 and self.f2 == other.f2

    __hash__ = None


def contract(pair: EndoPair) -> HPoly2:
    """The SL(2)-equivariant contraction (f1, f2) -> f1*y - f2*x."""
    return pair.f1 * HPoly2.term(1, 0, 1) - pair.f2 * HPoly2.term(1, 1, 0)


def act_on_pair(g: SL2Elem, pair: EndoPair) -> EndoPair:
    """The action g . F = g o F o g^(-1) on plane endomorphisms."""
    # det g = 1, so g^(-1) is the adjugate; its entries stay reduced
    u1, u2 = compose_matrix_many((pair.f1, pair.f2), _adjugate(g.entries()))
    return EndoPair(u1.scale(g.a) + u2.scale(g.b), u1.scale(g.c) + u2.scale(g.d))


def orbit_polynomial(points: list[P1Point]) -> HPoly2:
    """Product of (b_k x - a_k y) over [a_k : b_k]; roots exactly the points."""
    seen: set[P1Point] = set()
    out = HPoly2.term(1, 0, 0)
    for p in points:
        if p in seen:
            raise DegeneratePointsError(f"duplicate point {p}")
        seen.add(p)
        out = out * HPoly2(1, {1: p.b, 0: -p.a})
    return out.normalized()


def invariant_power(p: HPoly2, G: FinSubgroupG):
    """Smallest exponent d with p^d fixed by G, plus the character values.

    Requires the zero set of p to be invariant under the projection of G:
    p o g must be a scalar multiple chi(g) * p for every generator.  Then
    p^d o g = chi(g)^d p^d, so d is the lcm of the orders of the chi(g);
    :func:`reynolds_average` checks that p^d is G-fixed.
    """
    if p.is_zero():
        raise ZeroPolynomialError("invariant power of zero")
    chis: list[CycNum] = []
    d = 1
    for g in G.generators:
        moved = p.compose_matrix(g.entries())
        chi = moved.proportional_to(p)
        if chi is None or not chi:
            raise NotSemiInvariantError(
                f"zero set of {p} is not invariant under {g}")
        order = torsion_order(chi)
        if order is None:
            raise NotSemiInvariantError(
                f"character value {chi} is not a root of unity")
        chis.append(chi)
        d = lcm(d, order)
    return d, chis


def split_pair(P: HPoly2) -> EndoPair:
    """A deterministic pair with contraction P: monomials with y feed f1
    (divided by y), pure-x monomials feed -f2 (divided by x)."""
    if P.is_zero():
        return EndoPair(HPoly2.zero(), HPoly2.zero())
    d = P.degree
    if d == 0:
        raise ConstantTermError("cannot split a nonzero constant")
    top = P.lead() if P.y_valuation() == 0 else _C0   # coefficient of x^d
    f1 = (P - HPoly2.term(top, d, 0)).divexact(HPoly2.term(1, 0, 1))
    return EndoPair(f1, HPoly2.term(-top, d - 1, 0))


def invariant_dimension(G: FinSubgroupG, k: int) -> int:
    """Dimension of the G-fixed forms of degree k, by Molien's formula.

    The character of Sym^k at g is the Chebyshev sum S_k(t) in t = tr g,
    with S_0 = 1, S_1 = t and S_(j+1) = t S_j - S_(j-1).  -I acts on degree
    k by (-1)^k, so odd degrees have no invariants and for even k the sum
    over G is twice the sum over the lifts ``G.elements[::2]``; k products
    per lift.  The count must be |H| times a non-negative integer.
    """
    if k % 2:
        return 0
    lifts = G.elements[::2]
    total = _C0
    for g in lifts:
        t = g.a + g.d
        prev, cur = _C0, _C1
        for _ in range(k):
            prev, cur = cur, t * cur - prev
        total = total + cur
    dim = total.as_fraction() / len(lifts) if total.is_rational() else None
    if dim is None or dim.denominator != 1 or dim < 0:
        raise ArithmeticError(
            f"Molien count {total} is not {len(lifts)} times a natural number")
    return int(dim)


def hamiltonian_pair(P: HPoly2) -> EndoPair:
    """The symplectic gradient (1/n)(dP/dy, -dP/dx) of a form of degree n.

    Its contraction is P by Euler's identity x dP/dx + y dP/dy = n P, and
    since SL(2) = Sp(2) it is fixed by every element of SL(2) fixing P.
    """
    n = P.degree
    u = P.dehomogenize()
    du = u.derivative() * Fraction(1, n)   # (1/n) dP/dx at y = 1
    # at y = 1, (1/n) dP/dy = P - x (1/n) dP/dx by Euler's identity
    return EndoPair(HPoly2(n - 1, u - UPoly.x() * du), HPoly2(n - 1, -du))


def reynolds_average(pair: EndoPair, G: FinSubgroupG) -> EndoPair:
    """Average of the G-orbit of the pair; G-fixed, same contraction.

    Precondition (checked): the contraction P of the pair is G-fixed.

    Computed in closed form (Sturmfels, *Algorithms in Invariant Theory*,
    2.2).  -I acts on a pair of degree n - 1 by (-1)^n, so the average is
    zero when n - 1 is even; -I is a generator of G, so a nonzero
    contraction that passes the check has even degree n.  Otherwise the
    symplectic gradient hP of P is G-fixed with contraction P, and the pair
    minus hP contracts to zero, so it is (x Q0, y Q0) for a form Q0 of
    degree n - 2.  The average is then hP + (x R(Q0), y R(Q0)), where R(Q0)
    is the average of Q0 under the lifts ``G.elements[::2]`` (see
    :func:`sl2_pullback`); it is skipped when Molien's formula finds no
    G-fixed form of degree n - 2.
    """
    P = contract(pair)
    for g in G.generators:
        if P.compose_matrix(g.entries()) != P:
            raise PNotInvariantError(
                "contraction is not fixed by the group; cannot average")
    if pair.degree % 2 == 0:
        return EndoPair(HPoly2.zero(), HPoly2.zero())
    hp = hamiltonian_pair(P)
    q0 = (pair.f1 - hp.f1).divexact(HPoly2.term(1, 1, 0))
    if not q0 or not invariant_dimension(G, q0.degree):
        return hp
    lifts = G.elements[::2]
    acc = HPoly2.zero()
    for g in lifts:
        acc = acc + q0.compose_matrix(g.entries())
    q = acc.scale(CycNum(Fraction(1, len(lifts))))
    return EndoPair(hp.f1 + q * HPoly2.term(1, 1, 0),
                    hp.f2 + q * HPoly2.term(1, 0, 1))


class OrbitData:
    """One orbit's construction data.

    ``points`` may be empty when the orbit is handed over as a polynomial
    only (roots need not split over a cyclotomic field).
    """

    __slots__ = ("points", "p", "d", "P", "pair")

    def __init__(self, points: list[P1Point], p: HPoly2, d: int, P: HPoly2,
                 pair: EndoPair):
        self.points = points
        self.p = p          # squarefree orbit polynomial
        self.d = d          # invariant power
        self.P = P          # p^d, fixed by G
        self.pair = pair    # G-fixed, contract(pair) = P


class P1SelfMap:
    """Self-map [x:y] -> [g1 : g2] plus its coprime reduced pair."""

    __slots__ = ("g1", "g2", "reduced1", "reduced2")

    def __init__(self, g1: HPoly2, g2: HPoly2, reduced1: HPoly2,
                 reduced2: HPoly2):
        self.g1 = g1
        self.g2 = g2
        self.reduced1 = reduced1
        self.reduced2 = reduced2

    @staticmethod
    def from_pair(g1: HPoly2, g2: HPoly2) -> "P1SelfMap":
        if g1.is_zero() and g2.is_zero():
            raise ZeroPolynomialError("self-map needs a nonzero pair")
        _, r1, r2 = g1.cofactors(g2)
        r1, r2 = _pair_normalize(r1, r2)
        return P1SelfMap(g1, g2, r1, r2)


def _pair_normalize(f1: HPoly2, f2: HPoly2):
    """Scale a pair jointly so its first nonzero coefficient is 1."""
    lead = None
    for f in (f1, f2):
        if not f.is_zero():
            lead = f.lead()
            break
    if lead is None or lead == 1:
        return f1, f2
    inv = lead.inverse()
    return f1.scale(inv), f2.scale(inv)


def build_orbit_data(p: HPoly2, G: FinSubgroupG,
                     points: list[P1Point] | None = None) -> OrbitData:
    """Run the per-orbit pipeline on a squarefree orbit polynomial."""
    if p.squarefree_decomp()[1].degree > 0:
        raise DegeneratePointsError(f"orbit polynomial {p} is not squarefree")
    d, _ = invariant_power(p, G)
    P = p ** d
    pair = reynolds_average(split_pair(P), G)
    if contract(pair) != P:
        raise ArithmeticError(f"averaged pair of {p} lost the contraction P")
    return OrbitData(points or [], p, d, P, pair)


def combine_orbits(orbits: list[OrbitData]) -> P1SelfMap:
    """Combine per-orbit pairs into one pair with contraction prod P_i.

    The orbit forms must be pairwise coprime; every construction path
    (points, orbit forms, presets) is checked here.
    """
    if not orbits:
        raise DegeneratePointsError("need at least one orbit")
    for i, o in enumerate(orbits):
        for j in range(i + 1, len(orbits)):
            if o.p.gcd(orbits[j].p).degree > 0:
                raise DegenerateParamsError(
                    f"orbit forms {i + 1} and {j + 1} share a root")
    degs = {o.pair.degree + sum(q.P.degree for q in orbits) - o.P.degree
            for o in orbits}
    if len(degs) != 1:
        raise DegreeAlignmentError(f"summand degrees differ: {sorted(degs)}")
    r = len(orbits)
    g1, g2 = HPoly2.zero(), HPoly2.zero()
    for i, o in enumerate(orbits):
        factor = HPoly2.term(1, 0, 0)
        for j, q in enumerate(orbits):
            if j != i:
                factor = factor * q.P
        t1 = o.pair.f1 * factor
        t2 = o.pair.f2 * factor
        g1, g2 = g1 + t1, g2 + t2
    s = CycNum(Fraction(1, r))
    g1, g2 = g1.scale(s), g2.scale(s)
    total = HPoly2.term(1, 0, 0)
    for o in orbits:
        total = total * o.P
    if contract(EndoPair(g1, g2)) != total:
        raise DegreeAlignmentError("combined contraction identity failed")
    return P1SelfMap.from_pair(g1, g2)


def selfmap_with_fixed_locus(h: FinSubgroupH, points: list[P1Point],
                             G: FinSubgroupG | None = None):
    """Equivariant self-map whose fixed locus is exactly the given set.

    Returns (selfmap, orbit data list, G).  The point set must be nonempty
    and H-invariant; both output properties are re-checked by the verifiers
    below.
    """
    if not points:
        raise DegeneratePointsError("the removed set must be nonempty")
    orbits_pts = orbit_decompose(h, points)
    G = G or sl2_pullback(h)
    orbits = [build_orbit_data(orbit_polynomial(o), G, o) for o in orbits_pts]
    return combine_orbits(orbits), orbits, G


def selfmap_from_orbit_polynomials(h: FinSubgroupH, polys: list[HPoly2],
                                   G: FinSubgroupG | None = None):
    """Same pipeline when orbits are described by squarefree polynomials.

    Used when orbit points do not split over a cyclotomic field (generic
    preset parameters).  :func:`combine_orbits` checks pairwise coprimality.
    """
    if not polys:
        raise DegeneratePointsError("need at least one orbit polynomial")
    G = G or sl2_pullback(h)
    orbits = [build_orbit_data(p.normalized(), G) for p in polys]
    return combine_orbits(orbits), orbits, G


# ---------------------------------------------------------------------------
# verifiers


def verify_selfmap_equivariance(sm: P1SelfMap, h: FinSubgroupH) -> Certificate:
    """Exact identity per generator (a,b;c,d):
    f1(h(x,y)) * (c f1 + d f2) - f2(h(x,y)) * (a f1 + b f2) = 0."""
    cert = Certificate("self-map equivariance")
    f1, f2 = sm.reduced1, sm.reduced2
    for g in h.generators:
        a, b, c, d = g.entries()
        lhs1, lhs2 = compose_matrix_many((f1, f2), (a, b, c, d))
        diff = (lhs1 * (f1.scale(c) + f2.scale(d))
                - lhs2 * (f1.scale(a) + f2.scale(b)))
        cert.check(f"commutes with generator {g}", diff.is_zero(),
                   witness=f"residual {diff}")
    return cert


def verify_fixed_locus(sm: P1SelfMap, locus: HPoly2 | list[P1Point]) -> Certificate:
    """Fixed locus of the reduced map equals the zero set of the locus poly.

    Compared through squarefree parts, both divisibility directions, so the
    check is field-agnostic (roots never need to split).
    """
    cert = Certificate("fixed locus")
    target = (locus if isinstance(locus, HPoly2)
              else orbit_polynomial(locus)).normalized()
    fix = sm.reduced1 * HPoly2.term(1, 0, 1) - sm.reduced2 * HPoly2.term(1, 1, 0)
    if not cert.check("fixed-point form is not identically zero",
                      not fix.is_zero(),
                      witness="the map is the identity; locus is all of P^1"):
        return cert
    sf = fix.squarefree_decomp()[0]
    # each divides the other iff its cofactor to their gcd is a constant
    _, rest_target, rest_sf = target.cofactors(sf)
    cert.check("every fixed point lies in the prescribed set",
               rest_sf.degree == 0, witness=f"squarefree fixed form {sf}")
    cert.check("every prescribed point is fixed",
               rest_target.degree == 0, witness=f"target {target}")
    return cert


def verify_locus_invariance(h: FinSubgroupH, locus: list[P1Point]) -> Certificate:
    """The fixed locus is setwise invariant under every element of h."""
    cert = Certificate("locus invariance under the group")
    points = set(locus)
    for g in h.elements:
        cert.check(f"{g} preserves the locus",
                   all(g.apply(p) in points for p in locus))
    return cert

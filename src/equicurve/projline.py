"""Points of P^1, Moebius transformations and finite subgroup machinery.

Moebius transformations are 2x2 matrices over CycNum up to scalar; the
stored form is canonical (first nonzero entry in row-major order equals 1)
so projective equality is entrywise equality.  Finite subgroups are closed
element lists classified by their order statistics, which distinguish the
five possible types (cyclic, dihedral, tetrahedral, octahedral,
icosahedral).
"""
from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from math import lcm

from .cyclotomic import CycNum, as_cyc, euler_phi, try_sqrt
from .errors import (
    DegeneratePointsError,
    InputBoundError,
    NotFiniteWithinCapError,
    NotInvariantError,
    RootFieldUnsupportedError,
    SqrtNotFoundError,
    TooFewPointsError,
)
from .poly import HPoly2

_C0 = CycNum(0)
_C1 = CycNum(1)


class P1Point:
    """Point [a : b] of the projective line, stored in canonical form."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a, b = as_cyc(a), as_cyc(b)
        if b:
            a, b = (a / b).reduced(), _C1
        elif a:
            a, b = _C1, _C0
        else:
            raise DegeneratePointsError("[0 : 0] is not a point of P^1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("P1Point is immutable")

    @staticmethod
    def infinity() -> "P1Point":
        return P1Point(1, 0)

    def is_infinity(self) -> bool:
        return not self.b

    def __eq__(self, other):
        if not isinstance(other, P1Point):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # both coordinates are stored reduced, and a value has one reduced form
        return hash((self.a.m, self.a.nums, self.a.den, self.b.nums))

    def __str__(self):
        return f"[{self.a} : {self.b}]"

    __repr__ = __str__


def _sorted_by_entries(items: list, entries) -> list:
    big = lcm(1, *(v.m for x in items for v in entries(x)))
    return sorted(items, key=lambda x: tuple(v.key_under(big) for v in entries(x)))


def sort_points(points: list[P1Point]) -> list[P1Point]:
    """Deterministic order: lexicographic on conductor-unified coordinates."""
    return _sorted_by_entries(points, lambda p: (p.a, p.b))


def dedupe_points(points: list[P1Point]) -> list[P1Point]:
    """The distinct points, each at its first occurrence."""
    return list(dict.fromkeys(points))


def _mat_mul(m, n):
    """Product of two 2x2 matrices given as row-major entry tuples."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _adjugate(m):
    """Adjugate of a row-major 2x2 matrix: det times the inverse."""
    a, b, c, d = m
    return (d, -b, -c, a)


class _Mat2:
    """Immutable 2x2 matrix [[a, b], [c, d]] over CycNum.

    A subclass's ``__init__`` puts the entries in its normal form and stores
    them with ``_store``; products and inverses are built through it, so
    they come out in the same form.  Matrices of one kind are equal when
    their entries are equal as values, whatever their stored conductors.
    """

    __slots__ = ("a", "b", "c", "d")

    def _store(self, entries):
        for name, v in zip("abcd", entries):
            object.__setattr__(self, name, v)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        return type(self)(*_mat_mul(self.entries(), other.entries()))

    def inverse(self):
        return type(self)(*_adjugate(self.entries()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    __repr__ = __str__


class Moebius(_Mat2):
    """Projective 2x2 matrix [[a, b], [c, d]] acting by [x:y] -> [ax+by : cx+dy]."""

    __slots__ = ()

    def __init__(self, a, b, c, d):
        entries = [as_cyc(v) for v in (a, b, c, d)]
        lead = next((v for v in entries if v), None)
        if lead is None:
            raise DegeneratePointsError("zero matrix is not a Moebius map")
        if lead != 1:
            inv = lead.inverse()
            entries = [(v * inv).reduced() for v in entries]
        if not entries[0] * entries[3] - entries[1] * entries[2]:
            raise DegeneratePointsError("Moebius matrix must be invertible")
        self._store(entries)

    def det(self) -> CycNum:
        return self.a * self.d - self.b * self.c

    def apply(self, p: P1Point) -> P1Point:
        return P1Point(self.a * p.a + self.b * p.b, self.c * p.a + self.d * p.b)

    def is_identity(self) -> bool:
        return (not self.b) and (not self.c) and self.a == 1 and self.d == 1

    def order(self) -> int | None:
        """Multiplicative order, or None if it is infinite.

        Powers are tried up to max(6, 2M), M the lcm of the entries'
        conductors, which bounds every finite order: an element of order n
        has tr^2/det = zeta_n + 1/zeta_n + 2 in Q(zeta_M), and that field
        holds zeta_n + 1/zeta_n only for n <= 6 or n dividing 2M.  The
        powers are kept unnormalized: the k-th is the identity of PGL(2)
        exactly when it is a scalar matrix.
        """
        g = self.entries()
        bound = max(6, 2 * lcm(*(v.m for v in g)))
        power = g
        for k in range(1, bound + 1):
            a, b, c, d = power
            if not b and not c and a == d:
                return k
            power = _mat_mul(power, g)
        return None


def sort_moebius(elements: list[Moebius]) -> list[Moebius]:
    return _sorted_by_entries(elements, Moebius.entries)


class SL2Elem(_Mat2):
    """2x2 matrix of determinant 1, entries over their minimal conductors."""

    __slots__ = ()

    def __init__(self, a, b, c, d):
        entries = [as_cyc(v).reduced() for v in (a, b, c, d)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det != 1:
            raise DegeneratePointsError(f"determinant {det} is not 1")
        self._store(entries)

    def __neg__(self) -> "SL2Elem":
        return SL2Elem(-self.a, -self.b, -self.c, -self.d)

    def project(self) -> Moebius:
        return Moebius(*self.entries())


# ---------------------------------------------------------------------------


class GroupKind(namedtuple("GroupKind", "name n", defaults=(None,))):
    """A kind of finite subgroup of PGL(2): ``name`` is one of Cyclic,
    Dihedral, Tetrahedral, Octahedral and Icosahedral, ``n`` the rotation
    order of the first two."""

    __slots__ = ()

    def __str__(self):
        return f"{self.name}({self.n})" if self.n is not None else self.name

    @property
    def order(self) -> int:
        if self.name == "Cyclic":
            return self.n
        if self.name == "Dihedral":
            return 2 * self.n
        return sum(_EXCEPTIONAL_ORDERS[self.name].values())


# {element order: count} for the three finite subgroups of PGL(2) that are
# neither cyclic nor dihedral (Klein, Lectures on the Icosahedron, I.2)
_EXCEPTIONAL_ORDERS = {
    "Tetrahedral": {1: 1, 2: 3, 3: 8},
    "Octahedral": {1: 1, 2: 9, 3: 8, 4: 6},
    "Icosahedral": {1: 1, 2: 15, 3: 20, 5: 24},
}


class FinSubgroupH:
    """A finite subgroup of PGL(2), closed element list plus classification."""

    __slots__ = ("elements", "generators", "kind")

    def __init__(self, elements: list[Moebius], generators: list[Moebius],
                 kind: GroupKind):
        self.elements = elements
        self.generators = generators
        self.kind = kind

    @property
    def order(self) -> int:
        return len(self.elements)

    def __str__(self):
        return f"{self.kind} of order {self.order}"


class FinSubgroupG:
    """Pullback of a FinSubgroupH under SL(2) -> PGL(2); order doubles.

    Built by :func:`sl2_pullback` in a (lift, -lift) layout: ``elements[i]``
    projects to ``h.elements[i // 2]``.  :func:`equivariant.reynolds_average`
    and :func:`equivariant.invariant_dimension` sum over the lifts
    ``elements[::2]``.
    """

    __slots__ = ("elements", "generators", "h")

    def __init__(self, elements: list[SL2Elem], generators: list[SL2Elem],
                 h: FinSubgroupH):
        self.elements = elements
        self.generators = generators
        self.h = h

    @property
    def order(self) -> int:
        return len(self.elements)


def classify_group(elements: list[Moebius]) -> GroupKind:
    n = len(elements)
    orders = [g.order() for g in elements]
    if any(o is None for o in orders):  # pragma: no cover - closure guarantees
        raise NotFiniteWithinCapError("an element has infinite order")
    if max(orders) == n:
        return GroupKind("Cyclic", n)
    stats = {}
    for o in orders:
        stats[o] = stats.get(o, 0) + 1
    for name, table in _EXCEPTIONAL_ORDERS.items():
        if stats == table:
            return GroupKind(name)
    if n % 2 == 0 and max(orders) == n // 2:
        return GroupKind("Dihedral", n // 2)
    raise NotFiniteWithinCapError(
        f"order statistics {stats} match no finite subgroup of PGL(2)")


def _closure(gens: list[Moebius], cap: int) -> set[Moebius]:
    """The elements of the generated subgroup, by breadth-first search."""
    elements = {Moebius.identity()}
    frontier = list(elements)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in elements:
                    elements.add(b)
                    new.append(b)
                    if len(elements) > cap:
                        raise NotFiniteWithinCapError(
                            f"closure exceeded cap {cap}; group may be infinite")
        frontier = new
    return elements


def group_closure(gens: list[Moebius], cap: int = 120) -> FinSubgroupH:
    """Breadth-first closure of the generated subgroup, then classification."""
    gens = [g for g in gens if not g.is_identity()]
    elements = sort_moebius(list(_closure(gens, cap)))
    return FinSubgroupH(elements, gens or [Moebius.identity()],
                        classify_group(elements))


def minimal_generators(elements: list[Moebius]) -> list[Moebius]:
    """A small generating subsequence of a closed element list."""
    target = len(elements)
    gens: list[Moebius] = []
    have = {Moebius.identity()}
    for e in elements:
        if e in have:
            continue
        gens.append(e)
        have = _closure(gens, target)
        if len(have) == target:
            break
    return gens or [Moebius.identity()]


# the most distinct points aut_of_lambda searches: its work grows about as
# r^3 times the cost of an inverse in the points' field.  On the r-th roots
# of unity, the slowest family measured, every r up to 22 took at most about
# 4.5 s (r = 19; r = 21, 22 and 24 took 2.8, 2.1 and 2.1 s), and r = 23
# took 10.4 s (2-vCPU x86-64 VM, Python 3.11)
MAX_STABILIZER_POINTS = 22
# the most work r(r-1)(r-2) phi^4 of one search, phi the degree of the
# points' joint field: each candidate normalizes the image of one point by
# one inverse, which multiplies phi - 1 conjugates of phi^2 coefficient
# products whose sizes grow with phi.  The 19th roots of unity (6.1e8)
# took 4.5 s, three points over Q(zeta_101) (6.0e8) 4.4-4.9 s, the
# generators of the group of order 6 they find taking most of it, and three
# over Q(zeta_127) (1.5e9) 13.6 s; 22 of the 23rd roots (2.2e9) took 8.8 s
# (2-vCPU x86-64 VM, Python 3.11)
MAX_STABILIZER_WORK = 64 * 10 ** 7


def _triple_matrix(p1: P1Point, p2: P1Point, p3: P1Point):
    # rows vanish at p1 resp. p3; scaled to agree at p2; sends the triple
    # to [0:1], [1:1], [1:0]
    lam = p3.b * p2.a - p3.a * p2.b
    mu = p1.b * p2.a - p1.a * p2.b
    return (lam * p1.b, -lam * p1.a, mu * p3.b, -mu * p3.a)


def aut_of_lambda(points: list[P1Point], cap: int = 120) -> FinSubgroupH:
    """All Moebius maps preserving the set, found by triple transport.

    Each ordered triple of distinct points is a candidate image of one fixed
    base triple; three-point transitivity pins the map, set preservation
    filters.  The transport sends the base triple onto its image, so each of
    the r(r-1)(r-2) candidates is tested on the other r - 3 points only:
    its unnormalized matrix sends the first of them, and only a candidate
    whose image lies in the set becomes a :class:`Moebius` map and meets the
    rest.  On the r-th roots of unity, r = 8, 12 and 16 take 0.044 s,
    0.19 s and 0.63 s (best of 3, 2-vCPU x86-64 VM, Python 3.11).  More
    than ``MAX_STABILIZER_POINTS`` distinct points, or work
    r(r-1)(r-2) phi^4 above ``MAX_STABILIZER_WORK`` for points whose joint
    field has degree phi, raise :class:`InputBoundError` before any search,
    and more than ``cap`` maps raise :class:`NotFiniteWithinCapError`.
    """
    pts = dedupe_points(points)
    if len(pts) < 3:
        raise TooFewPointsError(
            "automorphism search needs at least 3 distinct points")
    if len(pts) > MAX_STABILIZER_POINTS:
        raise InputBoundError(
            f"stabilizer search on {len(pts)} distinct points exceeds "
            f"{MAX_STABILIZER_POINTS}")
    r, phi = len(pts), euler_phi(lcm(*(p.a.m for p in pts)))
    if r * (r - 1) * (r - 2) * phi ** 4 > MAX_STABILIZER_WORK:
        raise InputBoundError(
            f"stabilizer search on {r} points over a field of degree {phi}: "
            f"r(r-1)(r-2) phi^4 exceeds {MAX_STABILIZER_WORK}")
    pts = sort_points(pts)
    members = set(pts)
    base_m = _triple_matrix(*pts[:3])
    first, rest = (pts[3], pts[4:]) if r > 3 else (None, [])
    found: list[Moebius] = []
    for dst in permutations(pts, 3):
        # unnormalized; sends the base triple onto dst
        m = _mat_mul(_adjugate(_triple_matrix(*dst)), base_m)
        if first is not None:
            a, b, c, d = m
            if P1Point(a * first.a + b * first.b,
                       c * first.a + d * first.b) not in members:
                continue
        g = Moebius(*m)
        if all(g.apply(p) in members for p in rest):
            found.append(g)
            if len(found) > cap:
                raise NotFiniteWithinCapError(
                    f"stabilizer exceeded cap {cap}")
    # equal entries of the found maps become one object, keyed on the
    # stored form because CycNum.__hash__ runs a subfield descent; the maps
    # have not left this function, so storing into them is still safe
    shared: dict = {}
    for g in found:
        g._store([shared.setdefault((v.m, v.nums, v.den), v)
                  for v in g.entries()])
    elements = sort_moebius(found)
    return FinSubgroupH(elements, minimal_generators(elements),
                        classify_group(elements))


def sl2_pullback(h: FinSubgroupH) -> FinSubgroupG:
    """The preimage in SL(2): both unit-determinant rescalings of each element.

    The elements are laid out as (lift, -lift) per element of h, in the
    order of ``h.elements``, so ``elements[::2]`` is one lift of each.
    """
    elements: list[SL2Elem] = []
    for g in h.elements:
        s = try_sqrt(g.det().inverse())
        if s is None:
            raise SqrtNotFoundError(
                f"no square root found for 1/det = {g.det().inverse()} "
                f"of element {g}")
        lift = SL2Elem(s * g.a, s * g.b, s * g.c, s * g.d)
        elements += (lift, -lift)
    index = {g: i for i, g in enumerate(h.elements)}
    gens = [elements[2 * index[g]] for g in h.generators]
    gens.append(-SL2Elem.identity())
    return FinSubgroupG(elements, gens, h)


def orbit_decompose(h: FinSubgroupH, points: list[P1Point]) -> list[list[P1Point]]:
    """Partition an invariant set into group orbits, deterministically ordered.

    Each orbit is built once from its first point.  Since h is a group, the
    images of every orbit point stay in the orbit, so checking that each
    orbit lies in the set checks invariance under every element.
    """
    pts = sort_points(dedupe_points(points))
    remaining = set(pts)
    orbits = []
    for p in pts:
        if p not in remaining:
            continue
        orbit = set()
        for g in h.elements:
            q = g.apply(p)
            if q not in remaining:
                raise NotInvariantError(
                    f"set is not invariant: {g} sends {p} to {q}")
            orbit.add(q)
        remaining -= orbit
        orbits.append(sort_points(list(orbit)))
    return orbits


def cross_ratio(p1: P1Point, p2: P1Point, p3: P1Point, p4: P1Point) -> CycNum:
    """Cross-ratio, normalized so that ([0:1], [1:0], [1:1], [x:1]) -> x.

    Equivalently the image of p4 under the chart sending (p1, p2, p3) to
    (0, infinity, 1).  Moebius-invariant in all four arguments.
    """
    pts = [p1, p2, p3, p4]
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] == pts[j]:
                raise DegeneratePointsError(
                    f"cross-ratio needs distinct points, got {pts[i]} twice")

    def d(p, q):
        return p.a * q.b - q.a * p.b

    return (d(p4, p1) * d(p3, p2)) / (d(p4, p2) * d(p3, p1))


ALL_OF_P1 = "all of P^1"


def fixed_point_form(g: Moebius) -> HPoly2:
    """Homogeneous degree-2 form whose roots are the fixed points of g."""
    # [x:y] fixed  <=>  (a x + b y) y - (c x + d y) x = 0
    return HPoly2(2, {2: -g.c, 1: g.a - g.d, 0: g.b})


def fixed_points(g: Moebius):
    """Fixed points of g: a list of one or two points, or ALL_OF_P1.

    Quadratic roots are extracted with try_sqrt; if the square root is not
    found, RootFieldUnsupportedError is raised.  A larger field would not
    help: try_sqrt takes roots of values q zeta^k, q rational, and such a
    value in Q(zeta_m) is +-q zeta_m^j, which it already tries at m.
    """
    if g.is_identity():
        return ALL_OF_P1
    form = fixed_point_form(g)
    cc, bb, aa = (-g.c), (g.a - g.d), g.b  # cc x^2 + bb x y + aa y^2
    if not cc:
        pts = [P1Point.infinity()]
        if bb:
            pts.append(P1Point(-aa / bb, 1))
        return sort_points(dedupe_points(pts))
    disc = bb * bb - 4 * cc * aa
    if not disc:
        return [P1Point(-bb / (2 * cc), 1)]
    s = try_sqrt(disc)
    if s is None:
        raise RootFieldUnsupportedError(
            f"fixed points of {g} live outside the reachable "
            f"cyclotomic fields (discriminant {disc})")
    inv = (2 * cc).inverse()
    r1 = (-bb + s) * inv
    r2 = (-bb - s) * inv
    pts = [P1Point(r1, 1), P1Point(r2, 1)]
    if form.eval(pts[0].a, pts[0].b):
        raise ArithmeticError(f"computed fixed point {pts[0]} of {g} is not a root")
    return sort_points(dedupe_points(pts))

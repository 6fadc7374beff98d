import random
import sys
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from equicurve import projline
from equicurve.cyclotomic import CycNum, root_of_unity
from equicurve.embed3 import standard_group
from equicurve.errors import (
    DegeneratePointsError,
    InputBoundError,
    NotFiniteWithinCapError,
    NotInvariantError,
    RootFieldUnsupportedError,
    TooFewPointsError,
)
from equicurve.projline import (
    ALL_OF_P1,
    GroupKind,
    Moebius,
    P1Point,
    SL2Elem,
    aut_of_lambda,
    classify_group,
    cross_ratio,
    dedupe_points,
    fixed_point_form,
    fixed_points,
    group_closure,
    minimal_generators,
    orbit_decompose,
    sl2_pullback,
    sort_moebius,
    sort_points,
)
from oracles import (moebius_order_loop, moebius_through, same_group,
                     stabilizer_oracle)

W = root_of_unity(3)
I4 = root_of_unity(4)


def pt(v):
    return P1Point(CycNum(v) if not isinstance(v, CycNum) else v, 1)


INF = P1Point.infinity()


def test_moebius_apply_examples():
    assert Moebius.identity().apply(pt(5)) == pt(5)
    assert Moebius(0, 1, 1, 0).apply(P1Point(0, 1)) == INF
    assert Moebius(W, 0, 0, 1).apply(pt(1)) == P1Point(W, 1)


def test_group_closure_examples():
    h = group_closure([Moebius(W, 0, 0, 1)])
    assert str(h.kind) == "Cyclic(3)" and h.order == 3
    h = group_closure([Moebius(I4, 0, 0, 1), Moebius(0, 1, 1, 0)])
    assert str(h.kind) == "Dihedral(4)" and h.order == 8
    # the tetrahedral group generated by [i(x+y) : x-y] and [x : -y]
    h = group_closure([Moebius(I4, I4, 1, -1), Moebius(1, 0, 0, -1)])
    assert str(h.kind) == "Tetrahedral" and h.order == 12


def test_group_closure_closed_and_classified():
    for gens in ([Moebius(I4, 0, 0, 1)],
                 [Moebius(W, 0, 0, 1), Moebius(0, 1, 1, 0)]):
        h = group_closure(gens)
        for a in h.elements:
            assert any(a.inverse() == e for e in h.elements)
            for b in h.elements:
                assert any(a * b == e for e in h.elements)
        assert h.kind.order == h.order


def test_group_closure_cap():
    with pytest.raises(NotFiniteWithinCapError):
        group_closure([Moebius(2, 0, 0, 1)], cap=50)


def test_octahedral_icosahedral_classification():
    h = group_closure([Moebius(I4, I4, 1, -1), Moebius(I4, 0, 0, 1)])
    assert str(h.kind) == "Octahedral" and h.order == 24
    z5 = root_of_unity(5)
    golden = -(z5 ** 2 + z5 ** 3)
    h = group_closure([Moebius(z5, 0, 0, 1), Moebius(0, -1, 1, 0),
                       Moebius(golden, 1, 1, -golden)])
    assert str(h.kind) == "Icosahedral" and h.order == 60


# minimal_generators of each standard group, as printed when it was frozen
MINIMAL_GENERATORS = {
    ("cyclic", 6): ["[[1, 0], [0, cyc(3; -1, -1)]]", "[[1, 0], [0, -1]]"],
    ("dihedral", 4): ["[[0, 1], [-1, 0]]", "[[0, 1], [cyc(4; 0, -1), 0]]"],
    ("tetrahedral", None): [
        "[[0, 1], [-1, 0]]", "[[0, 1], [1, 0]]",
        "[[1, -1], [cyc(4; 0, -1), cyc(4; 0, -1)]]"],
    ("octahedral", None): [
        "[[0, 1], [-1, 0]]", "[[0, 1], [cyc(4; 0, -1), 0]]",
        "[[1, -1], [-1, -1]]"],
    ("icosahedral", None): [
        "[[0, 1], [-1, 0]]", "[[0, 1], [cyc(5; 0, -1, 0, 0), 0]]",
        "[[1, cyc(5; -1, -1, -1, 0)], "
        "[cyc(5; -1, -1, -1, 0), cyc(5; 0, 0, -1, 0)]]"],
}


@pytest.mark.parametrize("kind, n", list(MINIMAL_GENERATORS))
def test_minimal_generators(kind, n):
    h = standard_group(kind, n)
    gens = minimal_generators(h.elements)
    assert set(group_closure(gens).elements) == set(h.elements)
    for i, g in enumerate(gens):
        assert g not in group_closure(gens[:i]).elements
    assert [str(g) for g in gens] == MINIMAL_GENERATORS[kind, n]


@pytest.mark.parametrize("kind, n", list(MINIMAL_GENERATORS))
def test_standard_group_has_the_order_of_its_kind(kind, n):
    h = standard_group(kind, n)
    expected = GroupKind(kind.capitalize(), n)
    assert expected.order == len(h.elements)
    assert classify_group(h.elements) == expected


def test_group_kind_is_a_hashable_value():
    assert GroupKind("Dihedral", 3) == GroupKind("Dihedral", 3)
    assert GroupKind("Dihedral", 3) != GroupKind("Cyclic", 3)
    kinds = {GroupKind("Dihedral", 3), GroupKind("Dihedral", 3),
             GroupKind("Tetrahedral")}
    assert kinds == {GroupKind("Dihedral", 3), GroupKind("Tetrahedral", None)}
    assert str(GroupKind("Tetrahedral")) == "Tetrahedral"
    assert str(GroupKind("Dihedral", 3)) == "Dihedral(3)"


def test_aut_of_lambda_examples():
    h = aut_of_lambda([P1Point(0, 1), pt(1), INF])
    assert h.order == 6
    rho = Moebius(0, 1, -1, 1)
    sigma = Moebius(-1, 1, 0, 1)
    assert any(g == rho for g in h.elements)
    assert any(g == sigma for g in h.elements)

    h = aut_of_lambda([pt(1), P1Point(W, 1), P1Point(W * W, 1)])
    assert h.order == 6

    with pytest.raises(TooFewPointsError):
        aut_of_lambda([pt(1), pt(2)])


def test_aut_of_lambda_cap_boundary():
    # three points have a stabilizer of order 6: a cap of 6 admits it, and
    # a cap of 5 stops the search at the sixth map
    pts = [P1Point(0, 1), pt(1), INF]
    assert aut_of_lambda(pts, cap=6).order == 6
    with pytest.raises(NotFiniteWithinCapError, match="exceeded cap 5"):
        aut_of_lambda(pts, cap=5)


def test_aut_of_lambda_nine_point_family():
    from equicurve.plane import cube_symmetric_family
    pts = cube_symmetric_family(3, [1, 2, 5])
    h = aut_of_lambda(pts)
    rot = Moebius(1, 0, 0, W)
    assert any(g == rot for g in h.elements)
    assert h.order % 3 == 0


def test_moebius_through():
    # the stabilizer oracle's own transport, pinned point by point
    for src, dst in (((P1Point(0, 1), pt(1), INF), (pt(2), pt(3), pt(5))),
                     ((pt(2), P1Point(W, 1), pt(-1)), (INF, pt(0), pt(I4)))):
        g = moebius_through(src, dst)
        for s, d in zip(src, dst):
            assert g.apply(s) == d


def test_aut_of_lambda_oracle_equivalence():
    rng = random.Random(23)
    pool = [0, 1, -1, 2, -2, 3, 5, CycNum(1) / 2, W, W * W, I4, -I4,
            2 * W, 1 + W]
    for trial in range(20):
        size = rng.randint(3, 9)
        vals = rng.sample(range(len(pool)), min(size, len(pool)))
        pts = [pt(pool[v]) for v in vals[:size]]
        if rng.random() < 0.4:
            pts = pts[:-1] + [INF]
        pts = sort_points(pts)
        h1 = aut_of_lambda(pts)
        h2 = stabilizer_oracle(pts)
        assert same_group(h1, h2), f"trial {trial} disagreed"


_SMALL_AND_ZERO_INFINITY_SETS = [
    [P1Point(0, 1), pt(1), INF],
    [pt(1), P1Point(W, 1), P1Point(W * W, 1)],
    [pt(2), pt(-1), pt(CycNum(1) / 2)],
    [P1Point(0, 1), pt(1), pt(-1), INF],
    [pt(1), pt(I4), pt(-1), pt(-I4)],
    [pt(1), pt(2), pt(3), pt(5)],
    [P1Point(0, 1), INF, pt(1), pt(2)],
    [P1Point(0, 1), pt(CycNum(1) / 2), INF, pt(2), pt(5)],
    [P1Point(0, 1), INF, pt(1), pt(2), pt(3), pt(5)],
    [P1Point(0, 1), pt(I4), INF, pt(1), pt(2)],
]


@pytest.mark.parametrize("pts", _SMALL_AND_ZERO_INFINITY_SETS,
                         ids=["r3-0-1-oo", "r3-cube-roots", "r3-rational",
                              "r4-0-1-m1-oo", "r4-fourth-roots", "r4-generic",
                              "0-oo-in-base-r4", "0-oo-in-base-r5",
                              "0-oo-in-base-r6", "0-oo-in-base-gauss"])
def test_aut_of_lambda_matches_the_oracle_on_small_and_zero_infinity_sets(pts):
    # r = 3 leaves no point outside the base triple to test; the last four
    # sets put both 0 and infinity in the base triple
    if pts in _SMALL_AND_ZERO_INFINITY_SETS[-4:]:
        assert {P1Point(0, 1), INF} <= set(sort_points(pts)[:3])
    h1, h2 = aut_of_lambda(pts), stabilizer_oracle(pts)
    assert h1.kind == h2.kind and same_group(h1, h2)


def _search_calls(monkeypatch, pts):
    """The Moebius and P1Point constructions made by the search loop itself
    (not by the closure and classification it calls), and every point any
    Moebius map is applied to, during one ``aut_of_lambda(pts)``."""
    built, images, seen = [], [], []
    search = aut_of_lambda.__code__
    init_m, init_p, apply = Moebius.__init__, P1Point.__init__, Moebius.apply

    def moebius(g, *entries):
        if sys._getframe(1).f_code is search:
            built.append(entries)
        init_m(g, *entries)

    def point(p, *coords):
        if sys._getframe(1).f_code is search:
            images.append(coords)
        init_p(p, *coords)

    def recording(g, p):
        seen.append(p)
        return apply(g, p)

    with monkeypatch.context() as m:
        m.setattr(Moebius, "__init__", moebius)
        m.setattr(P1Point, "__init__", point)
        m.setattr(Moebius, "apply", recording)
        aut_of_lambda(pts)
    return built, images, seen


def test_aut_of_lambda_builds_maps_only_for_first_image_members(monkeypatch):
    # each candidate sends the base triple onto its image triple, so no
    # base point is evaluated; the first point off it is sent through the
    # unnormalized matrix, one image per candidate, and only a candidate
    # whose image is a member becomes a Moebius map and meets the others
    generic = [pt(1), pt(2), pt(3), pt(5), pt(8), pt(13), pt(21)]
    for pts in _SMALL_AND_ZERO_INFINITY_SETS + [generic]:
        built, images, seen = _search_calls(monkeypatch, pts)
        srt = sort_points(pts)
        candidates = list(permutations(srt, 3))
        if len(srt) == 3:
            assert (len(built), images, seen) == (6, [], []), pts
            continue
        members = set(srt)
        hits = [dst for dst in candidates if moebius_through(
            tuple(srt[:3]), dst).apply(srt[3]) in members]
        assert len(images) == len(candidates), pts
        assert len(built) == len(hits), pts
        assert set(seen) <= set(srt[4:]), pts
    # on the generic rationals, 4 of the 210 candidates become maps
    assert (len(built), len(candidates)) == (4, 210)


def test_aut_of_lambda_shares_equal_entries_within_a_group():
    octa = standard_group("octahedral")
    g3 = next(g for g in octa.elements if g.order() == 3)
    orbit = dedupe_points([g.apply(fixed_points(g3)[0]) for g in octa.elements])
    h = aut_of_lambda(orbit)
    assert (str(h.kind), len(orbit)) == ("Octahedral", 8)
    entries = [v for g in h.elements for v in g.entries()]
    assert len({id(v) for v in entries}) == len(set(entries)) < len(entries)


def test_aut_of_lambda_bounds_the_point_count():
    n = projline.MAX_STABILIZER_POINTS
    pts = [pt(k) for k in range(n + 1)]
    with pytest.raises(InputBoundError,
                       match=f"on {n + 1} distinct points exceeds {n}$"):
        aut_of_lambda(pts + pts[:4])


class _Searched(Exception):
    pass


def _reaches_search(monkeypatch, pts) -> bool:
    # aut_of_lambda sorts the points right after its bounds, so a refused
    # sort_points tells that both bounds passed, without the search
    def searched(_):
        raise _Searched

    monkeypatch.setattr(projline, "sort_points", searched)
    try:
        aut_of_lambda(pts)
    except _Searched:
        return True
    return False


def test_aut_of_lambda_bounds_the_work_by_field_degree(monkeypatch):
    # the 19th roots of unity: r = 19 over Q(zeta_19), degree 18, work
    # 5814 * 18^4 = 610344288, just under the bound; with 0 too,
    # 6840 * 18^4 = 718035840, just over it
    assert projline.MAX_STABILIZER_WORK == 64 * 10 ** 7
    pts = [P1Point(root_of_unity(19, k), 1) for k in range(19)]
    assert _reaches_search(monkeypatch, pts)
    with pytest.raises(InputBoundError, match=(
            r"^stabilizer search on 20 points over a field of degree 18: "
            r"r\(r-1\)\(r-2\) phi\^4 exceeds 640000000$")):
        aut_of_lambda(pts + [pt(0)])
    # four of the 61st roots are within it, five are not; three points
    # whose field is Q(zeta_101) are within it, over Q(zeta_127) not
    roots61 = [P1Point(root_of_unity(61, k), 1) for k in range(5)]
    assert _reaches_search(monkeypatch, roots61[:4])
    with pytest.raises(InputBoundError, match="on 5 points .* degree 60"):
        aut_of_lambda(roots61)
    assert _reaches_search(monkeypatch, [P1Point(root_of_unity(101), 1),
                                         pt(0), INF])
    with pytest.raises(InputBoundError, match="on 3 points .* degree 126"):
        aut_of_lambda([P1Point(root_of_unity(127), 1), pt(0), INF])


def test_sl2_pullback_examples():
    for n in (2, 3, 4, 6):
        h = group_closure([Moebius(root_of_unity(n), 0, 0, 1)])
        g = sl2_pullback(h)
        assert g.order == 2 * h.order
        z2n = root_of_unity(2 * n)
        assert any(e == SL2Elem(z2n, 0, 0, z2n ** -1) for e in g.elements)
    h = group_closure([Moebius(I4, 0, 0, 1), Moebius(0, 1, 1, 0)])
    g = sl2_pullback(h)
    assert any(e == SL2Elem(0, I4, I4, 0) for e in g.elements)
    h = group_closure([])
    g = sl2_pullback(h)
    assert g.order == 2
    assert any(e == -SL2Elem.identity() for e in g.elements)


def test_sl2_pullback_tetrahedral_matches_reference():
    h = group_closure([Moebius(I4, I4, 1, -1), Moebius(1, 0, 0, -1)])
    g = sl2_pullback(h)
    assert g.order == 24
    half = CycNum(1) / 2
    ref = SL2Elem((I4 - 1) * half, (I4 - 1) * half,
                  (I4 + 1) * half, (-I4 - 1) * half)
    assert any(e == ref for e in g.elements)
    for e in g.elements:
        assert e.a * e.d - e.b * e.c == 1


def test_pullback_projection_two_to_one():
    h = group_closure([Moebius(W, 0, 0, 1)])
    g = sl2_pullback(h)
    for i, elem in enumerate(g.elements):
        assert elem.project() == g.h.elements[i // 2]
    for hel in h.elements:
        lifts = [e for i, e in enumerate(g.elements)
                 if g.h.elements[i // 2] == hel]
        assert len(lifts) == 2
        assert lifts[0] == -lifts[1]


def test_orbit_decompose_examples():
    h3 = group_closure([Moebius(W, 0, 0, 1)])
    orbs = orbit_decompose(h3, [pt(1), P1Point(W, 1), P1Point(W * W, 1)])
    assert [len(o) for o in orbs] == [3]
    orbs = orbit_decompose(h3, [P1Point(0, 1), INF])
    assert [len(o) for o in orbs] == [1, 1]
    h2 = group_closure([Moebius(-1, 0, 0, 1)])
    orbs = orbit_decompose(h2, [pt(2), pt(-2), pt(3), pt(-3)])
    assert [len(o) for o in orbs] == [2, 2]
    with pytest.raises(NotInvariantError):
        orbit_decompose(h3, [pt(1), pt(2)])


def test_cross_ratio_normalization():
    x = CycNum(7)
    assert cross_ratio(P1Point(0, 1), INF, pt(1), pt(x)) == x


def test_cross_ratio_reference_value():
    # the four-tuple (1, w, w^2, a2); with the first two slots swapped this
    # normalization reproduces the value w(w - a2)/(a2 - 1)
    a2 = CycNum(5)
    val = cross_ratio(P1Point(W, 1), pt(1), P1Point(W * W, 1), pt(a2))
    assert val == W * (W - a2) / (a2 - 1)


def test_cross_ratio_invariance():
    rng = random.Random(3)
    pool = [0, 1, 2, 3, -1, 5, CycNum(1) / 3, W, I4]
    for _ in range(100):
        vals = rng.sample(range(len(pool)), 4)
        pts = [pt(pool[v]) for v in vals]
        entries = [rng.randint(-3, 3) for _ in range(4)]
        if not (entries[0] * entries[3] - entries[1] * entries[2]):
            continue
        g = Moebius(*entries)
        moved = [g.apply(p) for p in pts]
        assert cross_ratio(*moved) == cross_ratio(*pts)
    with pytest.raises(DegeneratePointsError):
        cross_ratio(pt(1), pt(1), pt(2), pt(3))


def test_fixed_points_examples():
    assert fixed_points(Moebius(1, 1, 0, 1)) == [INF]
    got = fixed_points(Moebius(0, 1, -1, 1))
    assert len(got) == 2
    for p in got:
        # the reference orbit {w : w^2 - w + 1 = 0}
        assert p.a * p.a - p.a + 1 == 0
    assert fixed_points(Moebius(-1, 0, 0, 1)) == sort_points([P1Point(0, 1), INF])
    assert fixed_points(Moebius.identity()) == ALL_OF_P1


def test_fixed_points_of_a_large_prime_discriminant_fail_with_a_reason():
    # x -> p / x has fixed points +-sqrt(p), beyond every conductor within
    # the cap; the prime is never factored
    p = 100000000000000000039
    with pytest.raises(RootFieldUnsupportedError):
        fixed_points(Moebius(0, p, 1, 0))


def test_fixed_points_are_fixed_and_two_for_finite_order():
    rng = random.Random(17)
    count = 0
    while count < 25:
        entries = [rng.randint(-3, 3) for _ in range(4)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if not det:
            continue
        g = Moebius(*entries)
        if g.is_identity():
            continue
        count += 1
        form = fixed_point_form(g)
        try:
            pts = fixed_points(g)
        except Exception:
            continue
        for p in pts:
            assert g.apply(p) == p
        if g.order() is not None:
            assert len(pts) == 2
        assert not any(form.eval(p.a, p.b) for p in pts)


def test_point_canonicalization():
    assert P1Point(CycNum(4), CycNum(2)) == pt(2)
    assert P1Point(CycNum(3), CycNum(0)) == INF
    with pytest.raises(DegeneratePointsError):
        P1Point(0, 0)


def test_aut_of_lambda_cube_roots_contains_reference_elements():
    pts = [pt(1), P1Point(W, 1), P1Point(W * W, 1)]
    h = aut_of_lambda(pts)
    rotation = Moebius(W, 0, 0, 1)
    assert any(g == rotation for g in h.elements)
    for i in range(3):
        involution = Moebius(0, 1, W ** i, 0)  # x -> 1/(w^i x)
        assert any(g == involution for g in h.elements)


def test_equal_values_hash_equal_across_stored_conductors():
    two_at_4 = CycNum(2).embedded(4)
    g4, g1 = Moebius(1, two_at_4, 0, 1), Moebius(1, 2, 0, 1)
    assert (g4.b.m, g1.b.m) == (4, 1)   # a leading 1 keeps entries as given
    assert g4 == g1 and hash(g4) == hash(g1)
    i12, i4 = Moebius(1, I4.embedded(12), 0, 1), Moebius(1, I4, 0, 1)
    assert (i12.b.m, i4.b.m) == (12, 4)
    assert i12 == i4 and hash(i12) == hash(i4)
    assert len({g4, g1, i12, i4, Moebius.identity()}) == 3
    s4, s1 = SL2Elem(1, two_at_4, 0, 1), SL2Elem(1, 2, 0, 1)
    assert s4 == s1 and hash(s4) == hash(s1)
    assert len({s4, s1, -s1}) == 2
    p12, p4 = P1Point(I4.embedded(12), 1), P1Point(I4, CycNum(1).embedded(8))
    assert p12 == p4 and hash(p12) == hash(p4)
    assert {pt(2): "two"}[P1Point(CycNum(4).embedded(3), 2)] == "two"
    assert len({p12, p4, INF, P1Point(3, 0), pt(2)}) == 3


def test_fixed_points_self_check_raises(monkeypatch):
    # a wrong square root must not pass silently, also under python -O
    monkeypatch.setattr(projline, "try_sqrt", lambda v: CycNum(7))
    with pytest.raises(ArithmeticError):
        fixed_points(Moebius(0, 1, -1, 1))


_POOL = [0, 1, -1, 2, -2, 3, 5, CycNum(1) / 2, W, W * W, I4, -I4, 2 * W, 1 + W]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.integers(0, len(_POOL)), min_size=3, max_size=6,
                unique=True),
       st.tuples(*[st.integers(-3, 3)] * 4).filter(
           lambda e: e[0] * e[3] != e[1] * e[2]))
def test_stabilizer_of_moved_set_is_conjugate(indices, entries):
    # aut(g L) = g aut(L) g^-1
    pts = [INF if i == len(_POOL) else pt(_POOL[i]) for i in indices]
    g = Moebius(*entries)
    h = aut_of_lambda(pts)
    moved = aut_of_lambda([g.apply(p) for p in pts])
    assert moved.kind == h.kind
    assert set(moved.elements) == {g * e * g.inverse() for e in h.elements}


# Q, Q(zeta_3), Q(i), 0 and infinity
_MIXED = [pt(0), INF, pt(-2), pt(-1), pt(1), pt(2), pt(CycNum(1) / 2), pt(3),
          pt(W), pt(W * W), pt(1 + W), pt(2 * W), pt(I4), pt(-I4), pt(1 + I4)]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(_MIXED), min_size=4, max_size=8, unique=True))
@example([pt(-2), pt(-1), pt(0), INF, pt(1), pt(2)])
@example([pt(-2), pt(W), pt(-I4), INF, pt(1 + I4), pt(3)])
@example([pt(0), INF, pt(1), pt(-1), pt(I4), pt(-I4)])
@example([pt(W), pt(W * W), pt(1), pt(0), pt(2)])
def test_aut_of_lambda_equals_the_oracle_element_for_element(pts):
    # the first two examples put infinity first off the base triple; in the
    # last two, candidates send that point to infinity, where its
    # unnormalized image is [x : 0]: members of the group in the third, and
    # rejected ones in the fourth, which has no point at infinity
    assert (aut_of_lambda(pts).elements
            == sort_moebius(stabilizer_oracle(pts).elements))


def test_order_powers_unnormalized_and_agrees_with_the_normalized_loop(
        monkeypatch):
    elements = [g for kind, n in (("cyclic", 7), ("dihedral", 5),
                                  ("tetrahedral", None), ("octahedral", None),
                                  ("icosahedral", None))
                for g in standard_group(kind, n).elements]
    infinite = [Moebius(1, 1, 0, 1), Moebius(2 * W, 0, 0, 1),
                Moebius(1, I4, 1, 0)]
    expected = [moebius_order_loop(g) for g in elements + infinite]

    def no_inverse(self):
        raise AssertionError("order() took an inverse")

    monkeypatch.setattr(CycNum, "inverse", no_inverse)
    assert [g.order() for g in elements + infinite] == expected
    assert None not in expected[:len(elements)]
    assert expected[len(elements):] == [None] * len(infinite)

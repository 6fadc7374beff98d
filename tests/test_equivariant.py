import random

import pytest

from equicurve import equivariant
from equicurve.cyclotomic import CycNum, root_of_unity
from equicurve.embed3 import standard_group
from equicurve.equivariant import (
    EndoPair,
    OrbitData,
    act_on_pair,
    build_orbit_data,
    combine_orbits,
    contract,
    invariant_power,
    orbit_polynomial,
    reynolds_average,
    selfmap_with_fixed_locus,
    split_pair,
    verify_fixed_locus,
    verify_locus_invariance,
    verify_selfmap_equivariance,
)
from equicurve.errors import (
    ConstantTermError,
    DegeneratePointsError,
    DegreeAlignmentError,
    NotInvariantError,
    NotSemiInvariantError,
    PNotInvariantError,
)
from equicurve.parsing import parse_hpoly
from equicurve.poly import HPoly2
from equicurve.projline import (
    Moebius,
    P1Point,
    SL2Elem,
    group_closure,
    orbit_decompose,
    sl2_pullback,
)
from oracles import reynolds_average_full_group

W = root_of_unity(3)
I4 = root_of_unity(4)
INF = P1Point.infinity()
I4_PT = P1Point(I4, 1)


def pt(v):
    return P1Point(CycNum(v) if not isinstance(v, CycNum) else v, 1)


def pair(f1, f2):
    return EndoPair(parse_hpoly(f1), parse_hpoly(f2))


def rand_pair(rng, d, spread=3):
    def rand_hp():
        c = {i: rng.randint(-spread, spread) for i in range(d + 1)}
        c[rng.randint(0, d)] = rng.randint(1, spread)
        return HPoly2(d, c)
    return EndoPair(rand_hp(), rand_hp())


CYCLIC2 = group_closure([Moebius(-1, 0, 0, 1)])
G2 = sl2_pullback(CYCLIC2)
TETRA = group_closure([Moebius(I4, I4, 1, -1), Moebius(1, 0, 0, -1)])
GT = sl2_pullback(TETRA)


def test_contract_examples():
    assert contract(pair("x", "0")) == parse_hpoly("x*y")
    assert contract(pair("0", "-y")) == parse_hpoly("x*y")
    p = parse_hpoly("x^2 - y^2")
    preset = EndoPair(parse_hpoly("-y") * p, parse_hpoly("-x") * p)
    assert contract(preset) == p * p


def test_endo_pair_checks_degrees_and_compares_componentwise():
    with pytest.raises(DegreeAlignmentError):
        pair("x", "y^2")
    # a zero component takes the degree of the other
    assert pair("x", "0").degree == pair("0", "y").degree == 1
    assert pair("x", "y") == pair("x", "y")
    assert pair("x", "y") != pair("y", "x")


def test_action_examples():
    rng = random.Random(2)
    f = rand_pair(rng, 3)
    assert act_on_pair(SL2Elem.identity(), f) == f
    minus = -SL2Elem.identity()
    # odd-degree pairs are fixed by -identity
    assert act_on_pair(minus, f) == f
    f2 = rand_pair(rng, 2)
    moved = act_on_pair(minus, f2)
    assert moved.f1 == -f2.f1 and moved.f2 == -f2.f2
    for g in GT.elements[:6]:
        f3 = rand_pair(rng, 4)
        assert act_on_pair(g, act_on_pair(g.inverse(), f3)) == f3


def test_contract_is_equivariant():
    rng = random.Random(4)
    for _ in range(100):
        d = rng.randint(1, 5)
        f = rand_pair(rng, d)
        g = rng.choice(GT.elements)
        lhs = contract(act_on_pair(g, f))
        rhs = contract(f).compose_matrix(g.inverse().entries())
        assert (lhs.is_zero() and rhs.is_zero()) or lhs == rhs


def test_orbit_polynomial_examples():
    assert orbit_polynomial([P1Point(0, 1)]) == parse_hpoly("x")
    assert orbit_polynomial([pt(1), pt(-1)]) == parse_hpoly("x^2 - y^2")
    assert orbit_polynomial([pt(1), P1Point(W, 1), P1Point(W * W, 1)]) \
        == parse_hpoly("x^3 - y^3")
    with pytest.raises(DegeneratePointsError):
        orbit_polynomial([pt(1), pt(1)])


def test_invariant_power_examples():
    # standard order-2 rotation: chi = -1 on the lifted generator, d = 2
    p = parse_hpoly("x^2 - y^2")
    d, chis = invariant_power(p, G2)
    assert d == 2
    assert any(c == -1 for c in chis)
    # already invariant form
    d, chis = invariant_power(parse_hpoly("x^2*y^2"), G2)
    assert d == 1 or (parse_hpoly("x^2*y^2") ** d).degree == 4 * d
    # tetrahedral degree-12 form has d = 1
    p12 = parse_hpoly("x^12 - 33*x^8*y^4 - 33*x^4*y^8 + y^12")
    d, _ = invariant_power(p12, GT)
    assert d == 1
    with pytest.raises(NotSemiInvariantError):
        invariant_power(parse_hpoly("x + 2*y"), GT)


def test_split_examples():
    f = split_pair(parse_hpoly("x*y"))
    assert f.f1 == parse_hpoly("x") and f.f2.is_zero()
    f = split_pair(parse_hpoly("x^2"))
    assert f.f1.is_zero() and f.f2 == parse_hpoly("-x")
    f = split_pair(parse_hpoly("x^4 - 2*x^2*y^2 + y^4"))
    assert f.f1 == parse_hpoly("-2*x^2*y + y^3")
    assert f.f2 == parse_hpoly("-x^3")
    assert contract(f) == parse_hpoly("x^4 - 2*x^2*y^2 + y^4")
    with pytest.raises(ConstantTermError):
        split_pair(HPoly2.term(3, 0, 0))


def test_split_contract_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        d = rng.randint(1, 8)
        p = HPoly2(d, {i: rng.randint(-5, 5) for i in range(d + 1)})
        if p.is_zero():
            continue
        assert contract(split_pair(p)) == p


def test_reynolds_fixed_and_preserving():
    p = parse_hpoly("x^2 - y^2") ** 2
    f = split_pair(p)
    avg = reynolds_average(f, G2)
    for g in G2.elements:
        assert act_on_pair(g, avg) == avg
    assert contract(avg) == p
    # idempotence
    assert reynolds_average(avg, G2) == avg


def test_reynolds_rejects_non_invariant():
    # even-degree pair: odd-degree contraction cannot be fixed by -identity
    with pytest.raises(PNotInvariantError):
        reynolds_average(pair("x^2", "y^2"), G2)


def test_reynolds_random_instances():
    rng = random.Random(12)
    groups = [G2, sl2_pullback(group_closure([Moebius(I4, 0, 0, 1)])),
              sl2_pullback(group_closure([Moebius(W, 0, 0, 1),
                                          Moebius(0, 1, 1, 0)]))]
    done = 0
    while done < 30:
        G = rng.choice(groups)
        pts_pool = [pt(2), pt(3), pt(-2), P1Point(0, 1), INF, pt(5)]
        seed = rng.choice(pts_pool)
        orbit = []
        for g in G.h.elements:
            q = g.apply(seed)
            if not any(q == t for t in orbit):
                orbit.append(q)
        p = orbit_polynomial(orbit)
        d, _ = invariant_power(p, G)
        P = p ** d
        base = split_pair(P)
        # a random member of the fiber over P: add (u x, u y)
        du = P.degree - 2
        if du >= 0:
            u = HPoly2(du, {i: rng.randint(-2, 2) for i in range(du + 1)})
            if not u.is_zero():
                base = EndoPair(base.f1 + u * HPoly2.term(1, 1, 0),
                                base.f2 + u * HPoly2.term(1, 0, 1))
        avg = reynolds_average(base, G)
        assert contract(avg) == P
        for g in G.elements:
            assert act_on_pair(g, avg) == avg
        assert reynolds_average(avg, G) == avg
        done += 1


def test_combine_single_orbit_degenerates():
    p = parse_hpoly("x^2 - y^2")
    preset = EndoPair(parse_hpoly("-y") * p, parse_hpoly("-x") * p)
    od = OrbitData([], p, 2, p * p, preset)
    sm = combine_orbits([od])
    assert sm.g1 == preset.f1 and sm.g2 == preset.f2
    assert sm.reduced1 == parse_hpoly("y") and sm.reduced2 == parse_hpoly("x")


def test_combine_two_orbits_identity():
    h = group_closure([])
    G = sl2_pullback(h)
    o1 = build_orbit_data(orbit_polynomial([P1Point(0, 1)]), G, [P1Point(0, 1)])
    o2 = build_orbit_data(orbit_polynomial([INF]), G, [INF])
    sm = combine_orbits([o1, o2])
    total = o1.P * o2.P
    lhs = sm.g1 * HPoly2.term(1, 0, 1) - sm.g2 * HPoly2.term(1, 1, 0)
    assert lhs == total


def test_build_delta_trivial_group_single_point():
    h = group_closure([])
    sm, orbits, _ = selfmap_with_fixed_locus(h, [P1Point(0, 1)])
    assert verify_fixed_locus(sm, [P1Point(0, 1)]).ok
    # constant map to [0 : 1]
    assert sm.reduced1.is_zero()


def test_build_delta_cyclic2():
    sm, orbits, _ = selfmap_with_fixed_locus(CYCLIC2, [pt(1), pt(-1)])
    assert verify_selfmap_equivariance(sm, CYCLIC2).ok
    assert verify_fixed_locus(sm, [pt(1), pt(-1)]).ok
    assert len(orbits) == 1 and orbits[0].d == 2


def test_build_delta_tetrahedral_six_point_orbit():
    lam = [P1Point(0, 1), INF, pt(1), pt(-1), pt(I4), pt(-I4)]
    sm, orbits, _ = selfmap_with_fixed_locus(TETRA, lam)
    assert verify_selfmap_equivariance(sm, TETRA).ok
    assert verify_fixed_locus(sm, lam).ok
    assert verify_locus_invariance(TETRA, lam).ok


def test_verify_equivariance_failure_witness():
    sm, _, _ = selfmap_with_fixed_locus(CYCLIC2, [pt(1), pt(-1)])
    h_bad = group_closure([Moebius(W, 0, 0, 1)])  # wrong rotation group
    cert = verify_selfmap_equivariance(sm, h_bad)
    assert not cert.ok
    assert any(cl.witness for cl in cert.clauses if not cl.ok)


def test_verify_fixed_locus_failure_for_identity_map():
    from equicurve.equivariant import P1SelfMap
    ident = P1SelfMap.from_pair(HPoly2.term(1, 1, 0), HPoly2.term(1, 0, 1))
    cert = verify_fixed_locus(ident, [pt(1)])
    assert not cert.ok


@pytest.mark.parametrize("locus, failing", [
    ([pt(1)], "every fixed point lies in the prescribed set"),
    ([P1Point(0, 1), INF, pt(1), pt(-1)], "every prescribed point is fixed"),
], ids=["fixed-locus-contains-target", "fixed-locus-inside-target"])
def test_verify_fixed_locus_fails_only_the_matching_clause(locus, failing):
    # [x : y] -> [x^2 : y^2] fixes exactly 0, 1 and infinity: one point of
    # the set short, or one extra, fails one clause and passes the other
    from equicurve.equivariant import P1SelfMap
    sm = P1SelfMap.from_pair(HPoly2.term(1, 2, 0), HPoly2.term(1, 0, 2))
    assert verify_fixed_locus(sm, [P1Point(0, 1), INF, pt(1)]).ok
    cert = verify_fixed_locus(sm, locus)
    assert [cl.claim for cl in cert.clauses if not cl.ok] == [failing]
    assert len(cert.clauses) == 3


def test_per_orbit_identity_always_holds():
    rng = random.Random(21)
    for h, g in ((CYCLIC2, G2), (TETRA, GT)):
        for o in selfmap_with_fixed_locus(
                h, [pt(1), pt(-1)] if h is CYCLIC2
                else [P1Point(0, 1), INF, pt(1), pt(-1), pt(I4), pt(-I4)])[1]:
            assert contract(o.pair) == o.P
            assert o.P == o.p ** o.d


def test_locus_invariance_across_groups():
    cases = [
        (CYCLIC2, [pt(1), pt(-1), pt(2), pt(-2)]),
        (group_closure([Moebius(I4, 0, 0, 1), Moebius(0, 1, 1, 0)]),
         [pt(2), pt(-2), pt(2 * I4), pt(-2 * I4),
          pt(CycNum(1) / 2), pt(-CycNum(1) / 2),
          pt(I4 / 2), pt(-I4 / 2)]),
    ]
    for h, lam in cases:
        sm, _, _ = selfmap_with_fixed_locus(h, lam)
        assert verify_selfmap_equivariance(sm, h).ok
        assert verify_fixed_locus(sm, lam).ok
        assert verify_locus_invariance(h, lam).ok


def test_build_delta_single_infinity():
    h = group_closure([])
    sm, orbits, _ = selfmap_with_fixed_locus(h, [INF])
    assert verify_fixed_locus(sm, [INF]).ok
    assert sm.reduced2.is_zero()  # constant map to [1 : 0]


def _orbit_pair(h, G, seed, rng):
    """A random pair over the G-fixed power P of the orbit form of seed."""
    orbit = list(dict.fromkeys(g.apply(seed) for g in h.elements))
    p = orbit_polynomial(orbit)
    P = p ** invariant_power(p, G)[0]
    base = split_pair(P)
    u = HPoly2(P.degree - 2, {i: rng.randint(-2, 2) for i in range(P.degree - 1)})
    if u.is_zero():
        return base
    return EndoPair(base.f1 + u * HPoly2.term(1, 1, 0),
                    base.f2 + u * HPoly2.term(1, 0, 1))


@pytest.mark.parametrize("kind, n, seeds", [
    ("cyclic", 2, (pt(2), pt(3), INF)),
    ("cyclic", 3, (pt(2), P1Point(0, 1))),
    ("cyclic", 5, (pt(2),)),
    ("dihedral", 2, (pt(2), P1Point(0, 1))),
    ("dihedral", 3, (pt(3),)),
    ("tetrahedral", None, (P1Point(0, 1), P1Point(root_of_unity(8), 1))),
    ("octahedral", None, (P1Point(0, 1),)),
])
def test_reynolds_over_lifts_equals_full_group_average(kind, n, seeds):
    h = standard_group(kind, n)
    G = sl2_pullback(h)
    rng = random.Random(f"{kind}{n}")
    for seed in seeds:
        base = _orbit_pair(h, G, seed, rng)
        avg = reynolds_average(base, G)
        assert avg == reynolds_average_full_group(base, G)
        assert contract(avg) == contract(base)


def test_reynolds_zero_contraction_pairs_match_full_group():
    # (u x, u y) contracts to zero; -I negates it when deg u is odd, and
    # then the full-group sum cancels to zero
    for u in ("x", "x*y", "x^2 - 3*y^2", "y^3"):
        uu = parse_hpoly(u)
        base = EndoPair(uu * HPoly2.term(1, 1, 0), uu * HPoly2.term(1, 0, 1))
        for G in (sl2_pullback(group_closure([])), G2, GT):
            avg = reynolds_average(base, G)
            assert avg == reynolds_average_full_group(base, G)
            if base.degree % 2 == 0:
                assert avg.is_zero()


def test_orbit_decompose_rejects_set_open_at_a_later_orbit():
    # the first orbit {2, -2} is closed; 3 goes to -3, outside the set
    with pytest.raises(NotInvariantError):
        orbit_decompose(CYCLIC2, [pt(2), pt(-2), pt(3)])
    with pytest.raises(NotInvariantError):
        orbit_decompose(TETRA, [P1Point(0, 1), INF, pt(1), pt(-1), I4_PT])
    assert [len(o) for o in orbit_decompose(
        TETRA, [P1Point(0, 1), INF, pt(1), pt(-1), I4_PT, P1Point(-I4, 1)])] == [6]


def test_build_orbit_data_checks_contraction_without_assert(monkeypatch):
    p = parse_hpoly("x^2 - y^2")
    monkeypatch.setattr(equivariant, "reynolds_average",
                        lambda pair, G: EndoPair(pair.f1, -pair.f2))
    with pytest.raises(ArithmeticError):
        build_orbit_data(p, G2)

import random
from fractions import Fraction

import pytest

from equicurve.cyclotomic import CycNum, root_of_unity
from equicurve.errors import (
    DegenerateParamsError,
    NotInvariantError,
    TrivialAutomorphismError,
)
from equicurve.parsing import parse_ratfun
from equicurve.plane import (
    CurveAut,
    Extendable,
    Obstructed,
    OpenCase,
    cube_symmetric_family,
    decide_extendability,
    verify_cube_symmetry,
)
from equicurve.projline import Moebius, P1Point, fixed_points

W = root_of_unity(3)
I4 = root_of_unity(4)
INF = P1Point.infinity()


def pt(v):
    return P1Point(CycNum(v) if not isinstance(v, CycNum) else v, 1)


def test_obstructed_reference_case():
    # the curve with three punctures and x -> 1/(1 - x)
    c = CurveAut([P1Point(0, 1), pt(1), INF], Moebius(0, 1, -1, 1))
    assert c.order == 3
    assert c.fixed_on_curve == 2
    v = decide_extendability(c)
    assert isinstance(v, Obstructed)
    assert v.order == 3


def test_extendable_scaling_case():
    c = CurveAut([P1Point(0, 1), INF], Moebius(2, 0, 0, 1))
    v = decide_extendability(c)
    assert isinstance(v, Extendable)
    assert v.certificate.ok
    assert v.data["mu"] == 2
    assert v.embedding[0] == parse_ratfun("x")
    assert v.embedding[1] == parse_ratfun("1/x")


def test_extendable_involution_case():
    c = CurveAut([pt(2), pt(-2)], Moebius(-1, 0, 0, 1))
    assert c.order == 2 and c.fixed_on_curve == 2
    v = decide_extendability(c)
    assert isinstance(v, Extendable)
    assert v.certificate.ok
    # reference instance: t = 3 -> (4/3, 5/3), t = 1/3 -> (-4/3, 5/3)
    e1, e2 = v.embedding
    three = CycNum(3)
    third = CycNum(Fraction(1, 3))
    assert e1.eval(three) == Fraction(4, 3)
    assert e2.eval(three) == Fraction(5, 3)
    assert e1.eval(third) == Fraction(-4, 3)
    assert e2.eval(third) == Fraction(5, 3)
    # on-curve instance: (5/3)^2 - 1 = (4/3)^2
    assert e2.eval(three) ** 2 - 1 == e1.eval(three) ** 2


def test_affine_route_with_root_of_unity_scaling():
    pts = [P1Point(0, 1), INF, pt(2), P1Point(2 * W, 1), P1Point(2 * W * W, 1)]
    c = CurveAut(pts, Moebius(W, 0, 0, 1))
    v = decide_extendability(c)
    assert isinstance(v, Extendable)
    assert v.certificate.ok
    assert v.data["mu"] == W
    # P = x (x^3 - 8), and P(w x) = w P(x)
    P = v.data["P"]
    assert P.compose(UPolyX(W)) == P * W


def UPolyX(scale):
    from equicurve.poly import UPoly
    return UPoly([0, scale])


def test_affine_route_translation():
    c = CurveAut([INF], Moebius(1, 1, 0, 1))
    v = decide_extendability(c)
    assert isinstance(v, Extendable)
    assert v.certificate.ok
    assert v.data["mu"] == 1
    assert v.data["P"].degree == 0


def test_open_case_even_order():
    pts = [pt(1), pt(-1), pt(I4), pt(-I4)]
    c = CurveAut(pts, Moebius(I4, 0, 0, 1))
    assert c.order == 4 and c.fixed_on_curve == 2
    assert isinstance(decide_extendability(c), OpenCase)


def test_trivial_automorphism_rejected():
    c = CurveAut([pt(1), pt(2), pt(3)], Moebius.identity())
    with pytest.raises(TrivialAutomorphismError):
        decide_extendability(c)


def test_involution_many_levels_random():
    rng = random.Random(55)
    done = 0
    while done < 10:
        base = [CycNum(rng.randint(2, 9)) * root_of_unity(rng.choice([1, 1, 4]))
                for _ in range(rng.randint(1, 3))]
        pts = []
        for v in base:
            if not v:
                continue
            pts += [pt(v), pt(-v)]
        seen = set()
        uniq = []
        for p in pts:
            k = str(p)
            if k not in seen:
                seen.add(k)
                uniq.append(p)
        if len(uniq) < 2:
            continue
        try:
            c = CurveAut(uniq, Moebius(-1, 0, 0, 1))
        except DegenerateParamsError:
            continue
        if c.fixed_in_lambda:
            continue
        v = decide_extendability(c)
        assert isinstance(v, Extendable)
        assert v.certificate.ok
        done += 1


def test_orbit_sizes_of_finite_order_maps():
    # every non-fixed orbit of a finite-order map has full size
    rng = random.Random(66)
    maps = [Moebius(W, 0, 0, 1), Moebius(I4, 0, 0, 1), Moebius(0, 1, 1, 0),
            Moebius(0, 1, -1, 1)]
    pool = [0, 1, -1, 2, 3, 5, CycNum(1) / 2, W, I4, 1 + W]
    for g in maps:
        n = g.order()
        fixed = fixed_points(g)
        for _ in range(50 // len(maps) + 1):
            p = pt(rng.choice(pool)) if rng.random() < 0.9 else INF
            orbit = [p]
            q = g.apply(p)
            while not any(q == t for t in orbit):
                orbit.append(q)
                q = g.apply(q)
            if any(p == f for f in fixed):
                assert len(orbit) == 1
            else:
                assert len(orbit) == n


def test_cube_family_examples():
    fam = cube_symmetric_family(1, [1])
    assert len(fam) == 3
    got = {str(p) for p in fam}
    assert got == {str(pt(1)), str(P1Point(W, 1)), str(P1Point(W * W, 1))}
    fam = cube_symmetric_family(2, [1, 2])
    assert len(fam) == 6
    assert verify_cube_symmetry(fam).ok
    with pytest.raises(DegenerateParamsError):
        cube_symmetric_family(2, [1, W])
    with pytest.raises(DegenerateParamsError):
        cube_symmetric_family(2, [2, 3])  # first value must be 1
    with pytest.raises(DegenerateParamsError):
        cube_symmetric_family(2, [1, 0])


def test_decision_total_on_finite_orders():
    cases = [
        ([P1Point(0, 1), pt(1), INF], Moebius(0, 1, -1, 1)),
        ([P1Point(0, 1), INF], Moebius(5, 0, 0, 1)),
        ([pt(2), pt(-2)], Moebius(-1, 0, 0, 1)),
        ([pt(1), P1Point(W, 1), P1Point(W * W, 1)], Moebius(W, 0, 0, 1)),
    ]
    for pts, g in cases:
        v = decide_extendability(CurveAut(pts, g))
        assert isinstance(v, (Extendable, Obstructed, OpenCase))
        if isinstance(v, Extendable):
            assert v.certificate.ok


def test_curve_aut_order_of_rotations():
    # x -> zeta_n x on r >= 3 points of its orbits; the 6th roots sit at the
    # bound max(6, 2M) of Moebius.order, M = 3
    for n in range(2, 7):
        z = root_of_unity(n)
        g = Moebius(z, 0, 0, 1)
        roots = [P1Point(z ** k, 1) for k in range(n)]
        point_sets = [roots + [P1Point(2 * z ** k, 1) for k in range(n)]]
        if n == 6:
            point_sets.append(roots + [P1Point(0, 1), INF])
        for pts in point_sets:
            c = CurveAut(pts, g)
            assert c.order == g.order() == n


def test_curve_aut_rejects_non_invariant_set():
    with pytest.raises(NotInvariantError):
        CurveAut([pt(2), pt(-2), pt(3)], Moebius(-1, 0, 0, 1))
    fam = cube_symmetric_family(1, [1])
    assert not verify_cube_symmetry(fam[:2]).ok

"""The G-fixed orbit pair in closed form: Molien's count of the invariants
of a degree against a brute-force rank, and the symplectic gradient plus
the invariant correction against the Reynolds average over all of G."""
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from equicurve.cyclotomic import CycNum, euler_phi
from equicurve.embed3 import standard_group
from equicurve.equivariant import (
    EndoPair,
    act_on_pair,
    contract,
    hamiltonian_pair,
    invariant_dimension,
    invariant_power,
    orbit_polynomial,
    reynolds_average,
    split_pair,
)
from equicurve.poly import HPoly2
from equicurve.projline import P1Point, sl2_pullback
from oracles import invariant_dimensions_oracle, reynolds_average_full_group

PROPERTY = settings(derandomize=True, max_examples=15, deadline=None)
X, Y = HPoly2.term(1, 1, 0), HPoly2.term(1, 0, 1)
GROUPS = [("cyclic", n) for n in range(2, 7)] + [
    ("dihedral", n) for n in range(2, 5)] + [
    ("tetrahedral", None), ("octahedral", None)]


@cache
def pullback(kind, n):
    return sl2_pullback(standard_group(kind, n))


@pytest.mark.parametrize("kind, n", GROUPS)
def test_molien_count_equals_brute_force_dimension(kind, n):
    G = pullback(kind, n)
    degrees = range(0, 25, 2)
    oracle = invariant_dimensions_oracle(G, degrees)
    assert [invariant_dimension(G, k) for k in degrees] == [
        oracle[k] for k in degrees]


def test_molien_count_is_zero_in_odd_degree():
    # -I is in G and negates every form of odd degree
    assert invariant_dimension(pullback("cyclic", 2), 3) == 0


def test_hamiltonian_pair_contracts_to_the_form():
    P = HPoly2(4, {4: 1, 2: 3, 1: Fraction(1, 2), 0: -2})
    hp = hamiltonian_pair(P)
    assert contract(hp) == P
    # (1/4)(dP/dy, -dP/dx)
    assert hp == EndoPair(
        HPoly2(3, {2: Fraction(3, 2), 1: Fraction(3, 8), 0: -2}),
        HPoly2(3, {3: -1, 1: Fraction(-3, 2), 0: Fraction(-1, 8)}))


@st.composite
def scalars(draw, m):
    # the first coefficient is nonzero, so most seeds have a generic orbit
    cs = [draw(st.sampled_from((2, -1, 3, 1, -2)))] + draw(st.lists(
        st.integers(-2, 2), min_size=euler_phi(m) - 1,
        max_size=euler_phi(m) - 1))
    return CycNum.from_coeffs(m, [Fraction(c) for c in cs])


@st.composite
def orbit_pairs(draw, m):
    """(G, split_pair(P) + (x u, y u)) for the G-fixed power P of the orbit
    form of a seed point over Q(zeta_m)."""
    # not octahedral: its full-group average is too slow for many examples
    kind, n = draw(st.sampled_from(GROUPS[:-1]))
    G = pullback(kind, n)
    a = draw(scalars(m))
    seed = P1Point(1, 0) if draw(st.integers(0, 7)) == 0 else P1Point(a, 1)
    orbit = list(dict.fromkeys(g.apply(seed) for g in G.h.elements))
    p = orbit_polynomial(orbit)
    P = p ** invariant_power(p, G)[0]
    k = P.degree - 2
    u = HPoly2(k, {i: draw(st.integers(-2, 2))
                   for i in draw(st.lists(st.integers(0, k), max_size=3))})
    base = split_pair(P)
    return G, EndoPair(base.f1 + u * X, base.f2 + u * Y)


@pytest.mark.parametrize("m", [1, 4, 3, 5])
@PROPERTY
@given(data=st.data())
def test_closed_form_equals_the_full_group_average(m, data):
    G, pair = data.draw(orbit_pairs(m))
    avg = reynolds_average(pair, G)
    assert avg == reynolds_average_full_group(pair, G)
    assert contract(avg) == contract(pair)
    for g in G.elements:
        assert act_on_pair(g, avg) == avg

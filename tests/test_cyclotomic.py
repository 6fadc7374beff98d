import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from equicurve import cyclotomic
from equicurve.cyclotomic import (
    CycNum,
    _int_poly_div,
    euler_phi,
    cyclotomic_polynomial,
    root_of_unity,
    set_conductor_cap,
    torsion_order,
    try_sqrt,
)
from equicurve.errors import ConductorCapError


def rand_cyc(rng, m):
    return CycNum.from_coeffs(
        m, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(euler_phi(m))])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_basic_arithmetic_examples():
    i = root_of_unity(4)
    assert i * i == -1
    w = root_of_unity(3)
    assert w + w * w == -1
    assert CycNum(Fraction(1, 2)) / Fraction(1, 3) == Fraction(3, 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycNum(1) / CycNum(0)


def test_root_of_unity_examples():
    assert root_of_unity(1, 0) == 1
    i = root_of_unity(4, 1)
    assert i * i == -1
    assert root_of_unity(6, 2) == root_of_unity(3, 1)
    # conductor normalization: zeta_6 lives in the degree-2 field
    assert root_of_unity(6, 1).m == 3
    assert root_of_unity(6, 1) ** 6 == 1
    assert root_of_unity(6, 1) ** 3 == -1


@pytest.mark.parametrize("m", [1, 3, 4, 5, 8, 12])
def test_field_axioms_random(m):
    rng = random.Random(100 + m)
    for _ in range(100):
        a, b, c = (rand_cyc(rng, m) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a
        assert a + (-a) == 0


def test_conductor_unification_coherent():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_cyc(rng, 3)
        b = rand_cyc(rng, 4)
        big = 12
        ae, be = a.embedded(big), b.embedded(big)
        assert (a + b) == (ae + be)
        assert (a * b) == (ae * be)
        assert (a - b) == (ae - be)


def test_try_sqrt_examples():
    assert try_sqrt(CycNum(4)) == 2
    s = try_sqrt(CycNum(-1))
    assert s is not None and s * s == -1
    # deterministic tie-break: lexicographically smallest coefficient tuple
    assert s == -root_of_unity(4)
    w = root_of_unity(3)
    r = try_sqrt(w)
    assert r is not None and r * r == w
    assert r == w * w  # zeta_3^2 squares to zeta_3^4 = zeta_3


def test_try_sqrt_rationals_and_monomials():
    for q in [2, 3, 5, 6, -2, -12, Fraction(9, 4), Fraction(1, 2),
              Fraction(-45, 7)]:
        s = try_sqrt(CycNum(q))
        assert s is not None and s * s == q
    i = root_of_unity(4)
    s = try_sqrt(i / 2)
    assert s is not None and s * s == i / 2 and s.m == 4
    z8 = root_of_unity(8)
    s = try_sqrt(7 * z8 ** 3)
    assert s is not None and s * s == 7 * z8 ** 3


def test_try_sqrt_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.choice([1, 3, 4, 5, 8, 12])
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if not q:
            continue
        s0 = CycNum(q) * root_of_unity(m, rng.randrange(m))
        s = try_sqrt(s0 * s0)
        assert s is not None
        assert s == s0 or s == -s0


def test_try_sqrt_not_found_is_none():
    z5 = root_of_unity(5)
    assert try_sqrt(1 + z5) is None or (try_sqrt(1 + z5) ** 2) == 1 + z5


def test_torsion_order():
    assert torsion_order(CycNum(1)) == 1
    assert torsion_order(CycNum(-1)) == 2
    assert torsion_order(root_of_unity(12, 5)) == 12
    assert torsion_order(CycNum(2)) is None
    assert torsion_order(1 + root_of_unity(3)) == 6  # 1 + w = -w^2 = zeta_6


def test_reduced_minimizes_conductor():
    z12 = root_of_unity(12)
    v = z12 ** 4  # a primitive cube root
    assert v.reduced().m == 3
    assert (z12 * z12 ** 11).reduced().m == 1


def test_conductor_cap():
    set_conductor_cap(4)
    try:
        with pytest.raises(ConductorCapError):
            root_of_unity(32)
    finally:
        set_conductor_cap(256)


def test_trial_division_stops_past_the_cap():
    # 263 and 269 are primes above cap + 1 = 257: a square of them joins the
    # base of a square root, a product of both has no root within the cap
    # and makes a conductor over the cap
    p, q = 263, 269
    assert try_sqrt(CycNum(3 * p * p)) == p * try_sqrt(CycNum(3))
    assert try_sqrt(CycNum(p * q)) is None
    with pytest.raises(ConductorCapError):
        root_of_unity(p * q)
    set_conductor_cap((p - 1) * (q - 1))
    try:
        assert euler_phi(p * q) == (p - 1) * (q - 1)
    finally:
        set_conductor_cap(256)


def test_try_sqrt_does_not_depend_on_earlier_caps():
    # the square root of 263 lives over conductor 4 * 263 = 1052, of field
    # degree 524: within cap 600, above cap 256, in either order of calls
    def root_found(cap):
        previous = set_conductor_cap(cap)
        try:
            if cap < 524:   # the cached Gauss sum is not handed out either
                with pytest.raises(ConductorCapError):
                    cyclotomic._sqrt_prime(263)
            s = try_sqrt(CycNum(263))
            return s is not None and s * s == 263 and s.m == 1052
        finally:
            set_conductor_cap(previous)

    for caps in ((256, 600, 256), (600, 256, 600)):
        assert [root_found(cap) for cap in caps] == [cap == 600 for cap in caps]


def test_textual_form_round_trip():
    from equicurve.parsing import parse_constant
    vals = [CycNum(Fraction(-3, 7)), root_of_unity(8, 3) * 2 + 1,
            root_of_unity(3) / 5]
    for v in vals:
        assert parse_constant(str(v)) == v


def test_inexact_polynomial_division_raises():
    # x^2 + 1 is not a multiple of x + 1; the check survives python -O
    with pytest.raises(ArithmeticError):
        _int_poly_div([1, 0, 1], [1, 1])


def test_try_sqrt_self_check_raises(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_sqrt_rational", lambda q: CycNum(q))
    with pytest.raises(ArithmeticError):
        try_sqrt(CycNum(4))


# -- properties of the integer-numerator layout --------------------------------

CONDUCTORS = (1, 3, 4, 5, 8, 12, 20)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
coefficient = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def cyc_coeffs(draw, m=None):
    m = draw(st.sampled_from(CONDUCTORS)) if m is None else m
    n = euler_phi(m)
    return m, draw(st.lists(coefficient, min_size=n, max_size=n))


@st.composite
def cycs(draw, m=None):
    return CycNum.from_coeffs(*draw(cyc_coeffs(m)))


def assert_normal(x):
    assert len(x.nums) == euler_phi(x.m)
    assert x.den > 0
    assert gcd(*x.nums, x.den) == 1


@PROPERTY
@given(st.sampled_from(CONDUCTORS).flatmap(
    lambda m: st.tuples(cycs(m), cycs(m), cycs(m))))
def test_property_normal_form_and_field_axioms(abc):
    a, b, c = abc
    for v in (a, b, c, a + b, a - b, a * b, -a, a.reduced(), a.embedded(3 * a.m)):
        assert_normal(v)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and a + (-a) == 0
    if b:
        assert_normal(b.inverse())
        assert (a / b) * b == a


@PROPERTY
@given(cycs(), cycs())
def test_property_mixed_conductors(a, b):
    big = a.m * b.m // gcd(a.m, b.m)
    assert a + b == a.embedded(big) + b.embedded(big)
    assert a * b == a.embedded(big) * b.embedded(big)


@PROPERTY
@given(cycs())
def test_property_inverse(x):
    if x:
        assert x * x.inverse() == 1


@PROPERTY
@given(cycs(), st.integers(min_value=1, max_value=6))
def test_property_embedding_keeps_value_and_hash(x, k):
    e = x.embedded(k * x.m)
    assert_normal(e)
    assert x == e and e == x
    assert hash(x) == hash(e)


@PROPERTY
@given(cycs(), st.integers(min_value=1, max_value=4))
def test_property_reduced_idempotent(x, k):
    r = x.embedded(k * x.m).reduced()
    assert r == x
    assert r.m <= x.m
    rr = r.reduced()
    assert (rr.m, rr.nums, rr.den) == (r.m, r.nums, r.den)


@PROPERTY
@given(cyc_coeffs())
# zeta_12^3 = i prints as cyc(4; 0, 1), and 1 - zeta_20^2 + zeta_20^4 -
# zeta_20^6 = -zeta_5^2 as cyc(5; 0, 0, -1, 0)
@example((12, [0, 0, 0, 1]))
@example((20, [1, 0, -1, 0, 1, 0, -1, 0]))
def test_property_str_is_fraction_formatting(mc):
    # printed over the least conductor of the value, which for most draws
    # is the one drawn
    m, coeffs = mc
    x = CycNum.from_coeffs(m, coeffs)
    r = x.reduced()
    if not any(coeffs[1:]):
        assert str(x) == str(coeffs[0])
    elif r.m == m:
        assert str(x) == f"cyc({m}; " + ", ".join(map(str, coeffs)) + ")"
    else:
        assert r.m < m
        assert str(x) == f"cyc({r.m}; " + ", ".join(
            str(Fraction(v, r.den)) for v in r.nums) + ")"


@PROPERTY
@given(cycs(), cycs(), st.integers(min_value=1, max_value=4))
def test_property_equal_values_print_alike(x, y, k):
    # the stored conductor depends on the path; the printed form may not
    assert str(x.embedded(k * x.m)) == str(x)
    assert str((x + y) - y) == str(x)
    assert str(x + y) == str(y + x.embedded(k * x.m))
    if y:
        assert str((x * y) / y) == str(x)
        assert str(x * y) == str(y.embedded(k * y.m) * x)


@PROPERTY
@given(coefficient)
def test_property_rational_hash(q):
    assert hash(CycNum(q)) == hash(q)
    assert hash(CycNum(q).embedded(12)) == hash(q)
    assert hash(CycNum(q.numerator)) == hash(q.numerator)


# -- conductor 1: one numerator over one denominator ---------------------------

# well past the shared integers [-64, 64], up to multi-word integers
wide_int = st.one_of(st.integers(-200, 200), st.integers(-2 ** 130, 2 ** 130))
wide_fraction = st.builds(Fraction, wide_int, wide_int.filter(bool))
RATIONAL_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def assert_rational(got, want):
    assert got.m == 1 and got.as_fraction() == want
    assert_normal(got)
    if want.denominator == 1 and -64 <= want <= 64:
        assert got is CycNum(int(want))


@PROPERTY
@given(wide_fraction, wide_fraction, wide_int)
@example(Fraction(3), Fraction(-3), -3)              # 0, 6, -9, -1
@example(Fraction(7, 2), Fraction(1, -2), 64)        # 3, 4, -7/4, -7
@example(Fraction(2 ** 100, 3), Fraction(2 ** 100, -3), 0)
@example(Fraction(5, 3), Fraction(0), 1)             # shared 0 and 1 operands
@example(Fraction(0), Fraction(1), 0)
def test_property_conductor_one_matches_fraction(p, q, k):
    x, y = CycNum(p), CycNum(q)
    y4 = y.embedded(4)
    for op in RATIONAL_OPS:
        pairs = [(x, y, p, q), (x, q, p, q), (p, y, p, q),
                 (x, k, p, k), (k, y, k, q)]
        for left, right, lv, rv in pairs:
            if op is operator.truediv and not rv:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            assert_rational(op(left, right), op(Fraction(lv), rv))
        # a rational stored over Q(i) gives the value of the conductor-1 path
        if op is not operator.truediv or q:
            mixed = op(x, y4)
            assert_normal(mixed)
            assert mixed == op(x, y)
        if op is not operator.truediv or p:
            mixed = op(y4, x)
            assert_normal(mixed)
            assert mixed == op(y, x)


def test_negation_keeps_the_shared_small_integers():
    # -0 and -(-1) are the shared 0 and 1, so they take the shortcuts of
    # products and sums; the shared objects for every small integer
    zero, one = CycNum(0), CycNum(1)
    assert -zero is zero and -CycNum(-1) is one
    for n in range(-64, 65):
        assert -CycNum(n) is CycNum(-n)
    big = -CycNum(Fraction(-2 ** 70, 3))
    assert big.as_fraction() == Fraction(2 ** 70, 3)
    assert_normal(big)
    # away from conductor 1, the value at its conductor
    x = -root_of_unity(4)
    assert x.m == 4 and x.nums == (0, -1) and x * x == -1


@PROPERTY
@given(wide_fraction.filter(bool))
@example(Fraction(-3, 7))
@example(Fraction(-1, 5))
@example(Fraction(-1))
@example(Fraction(64, -1))
def test_rational_inverse_moves_only_the_sign(q):
    # the normal form of the inverse, sign on the numerator, without a gcd
    got = CycNum(q).inverse()
    assert_rational(got, 1 / q)
    assert got.den > 0 and gcd(got.nums[0], got.den) == 1
    assert CycNum(q).embedded(4).inverse() == got

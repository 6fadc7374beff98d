"""MPoly on integer rows over one denominator, against the CycNum-dict
reference in ``oracles``: every operation and the evaluation at
polynomials, rational functions and scalars, over Q and the fields
Q(zeta_m) for m = 3, 4, 5, 12, with operands from one or two fields; equal
polynomials stored at different conductors; the conductor cap; and no
CycNum arithmetic in compositions and substitutions.  Also the operands
that sums and powers of all polynomial shapes accept."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from equicurve.cyclotomic import (CycNum, euler_phi, root_of_unity,
                                  set_conductor_cap)
from equicurve.errors import ConductorCapError
from equicurve.poly import (HPoly2, MPoly, POLY3_VARS, UPoly, URatFun,
                            poly3_compose, poly3_identity, poly3_var)
from oracles import (dict_at, dict_at_scalars, dict_product, dict_scale,
                     dict_sum, substitute_term_by_term)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
FIELDS = (1, 3, 4, 5, 12)
ONE = {(0, 0, 0): CycNum(1)}


@st.composite
def field_values(draw, m):
    """Zero, a rational (stored at conductor 1 or over Q(zeta_m)), or any
    value of Q(zeta_m), over denominators up to 6."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return CycNum(0)
    den = draw(st.integers(1, 6))
    nums = [draw(st.integers(-9, 9)) for _ in range(euler_phi(m))]
    if kind == 1:
        v = CycNum(Fraction(nums[0], den))
        return v.embedded(m) if draw(st.booleans()) else v
    return CycNum.from_coeffs(m, [Fraction(x, den) for x in nums])


def field_sets():
    # one or two of FIELDS
    return st.lists(st.sampled_from(FIELDS), min_size=1, max_size=2,
                    unique=True)


def scalars():
    return st.sampled_from(FIELDS).flatmap(field_values)


@st.composite
def mpolys(draw, fields=None, max_terms=5, max_degree=3):
    """An MPoly in X, Y, Z of up to max_terms terms, each coefficient from
    one of ``fields`` (one or two fields drawn from FIELDS if not given)."""
    if fields is None:
        fields = draw(field_sets())
    exps = st.tuples(*[st.integers(0, max_degree)] * 3)
    coeffs = st.sampled_from(fields).flatmap(field_values)
    return MPoly(POLY3_VARS, draw(st.dictionaries(exps, coeffs,
                                                  max_size=max_terms)))


def normal(p: MPoly) -> bool:
    # no zero row, phi(m) numerators per row, no common factor of den and
    # the numerators, and conductor 1 exactly when every coefficient is
    # rational
    rows = list(p.rows.values())
    return (p.den > 0 and all(len(r) == euler_phi(p.m) and any(r)
                              for r in rows)
            and gcd(p.den, *[v for r in rows for v in r]) == 1
            and (p.m == 1) == all(not any(r[1:]) for r in rows))


def agrees(got: MPoly, want: dict) -> bool:
    # equal values term by term, equal printed forms, and the normal form
    cs = got.c
    return normal(got) and cs == want and \
        {e: str(v) for e, v in cs.items()} == {e: str(v) for e, v in want.items()}


@PROPERTY
@given(mpolys(), mpolys(), scalars())
def test_ring_operations_agree_with_the_dicts(a, b, s):
    ca, cb, cs = a.c, b.c, dict_scale(ONE, s)
    assert normal(a) and normal(b)
    assert agrees(a + b, dict_sum(ca, cb))
    assert agrees(a - b, dict_sum(ca, cb, -1))
    assert agrees(-a, dict_scale(ca, -1))
    assert agrees(a * b, dict_product(ca, cb))
    assert agrees(a * s, dict_scale(ca, s)) and agrees(s * a, dict_scale(ca, s))
    assert agrees(a + s, dict_sum(ca, cs)) and agrees(s + a, dict_sum(ca, cs))
    assert agrees(a - s, dict_sum(ca, cs, -1))
    assert agrees(s - a, dict_sum(cs, ca, -1))
    assert agrees(a ** 2, dict_product(ca, ca)) and agrees(a ** 0, ONE)
    assert (a == b) == (ca == cb)
    assert MPoly(POLY3_VARS, ca) == a and str(MPoly(POLY3_VARS, ca)) == str(a)
    assert a.total_degree() == max((sum(e) for e in ca), default=-1)


@PROPERTY
@given(st.sampled_from(FIELDS), st.sampled_from(FIELDS), st.data())
def test_mixed_fields_agree_with_the_dicts(m1, m2, data):
    # one operand over each field: the result is stored over Q(zeta_lcm)
    a = data.draw(mpolys((m1,)))
    b = data.draw(mpolys((m2,)))
    assert agrees(a + b, dict_sum(a.c, b.c))
    assert agrees(b - a, dict_sum(b.c, a.c, -1))
    assert agrees(a * b, dict_product(a.c, b.c))


@PROPERTY
@given(field_sets(), field_sets(), st.data())
def test_composition_agrees_with_the_dicts(outer_fields, inner_fields, data):
    outer = tuple(data.draw(mpolys(outer_fields, 4, 2)) for _ in range(3))
    inner = tuple(data.draw(mpolys(inner_fields, 3, 2)) for _ in range(3))
    values = [v.c for v in inner]
    for got, f in zip(poly3_compose(outer, inner), outer):
        assert agrees(got, dict_at(f.c, values, ONE))
    # a scalar among polynomial values is read as a constant
    s = data.draw(field_values(inner_fields[0]))
    got = outer[0].substitute((inner[0], s, inner[2]))
    assert agrees(got, dict_at(outer[0].c, [values[0], dict_scale(ONE, s),
                                            values[2]], ONE))


@PROPERTY
@given(field_sets(), st.data())
def test_evaluation_at_scalars_agrees_with_the_dicts(fields, data):
    f = data.draw(mpolys())
    values = [data.draw(st.sampled_from(fields).flatmap(field_values))
              for _ in range(3)]
    got = f.substitute(values)
    want = dict_at_scalars(f.c, values)
    assert isinstance(got, CycNum) and got == want and str(got) == str(want)


@st.composite
def ratfuns(draw, fields):
    def upoly():
        return UPoly([draw(st.sampled_from(fields).flatmap(field_values))
                      for _ in range(draw(st.integers(0, 3)))])
    den = upoly()
    return URatFun(upoly(), den if den else UPoly.const(1))


@PROPERTY
@given(field_sets(), field_sets(), st.data())
def test_evaluation_at_ratfuns_agrees_term_by_term(fields, value_fields, data):
    f = data.draw(mpolys(fields, 4, 2))
    values = tuple(data.draw(ratfuns(value_fields)) for _ in range(3))
    got = f.substitute(values)
    want = substitute_term_by_term(f, values)
    assert got == want and str(got) == str(want)


def test_equal_polynomials_at_different_conductors_compare_equal_and_print_alike():
    # the same coefficients, of Q(i) and of Q, stored over Q(zeta_12) and
    # over Q(zeta_20): the three polynomials are one
    i = root_of_unity(4)
    values = {(2, 0, 0): Fraction(1, 3), (1, 1, 0): 2 + i, (0, 0, 1): -i / 5,
              (0, 0, 0): 7}
    a, b = (MPoly(POLY3_VARS, {e: CycNum(v).embedded(m)
                               for e, v in values.items()}) for m in (12, 20))
    c = MPoly(POLY3_VARS, values)
    assert (a.m, b.m, c.m) == (12, 20, 4)
    assert a == b == c and str(a) == str(b) == str(c)
    assert a - b == MPoly(POLY3_VARS) and a * b == c * c
    assert c.substitute((a, b, c)) == a.substitute((c, c, b))
    # a rational polynomial is stored over Q, whatever the operands' field
    r = MPoly(POLY3_VARS, {e: CycNum(v).embedded(8) for e, v in values.items()
                           if isinstance(v, (int, Fraction))})
    assert r.m == 1 and (a - a + r).m == 1 and (a - r - a).m == 1


def test_a_product_over_the_cap_is_a_stated_error():
    # Q(zeta_5) and Q(zeta_7) join in Q(zeta_35), of degree 24
    X, Y, Z = poly3_identity()
    a, b = X * root_of_unity(5) + 1, Y * root_of_unity(7) - 2
    previous = set_conductor_cap(8)
    try:
        for joint in (lambda: a * b, lambda: b * a, lambda: a + b,
                      lambda: poly3_compose((X * Y, Y, Z), (a, b, Z)),
                      lambda: poly3_compose((X + Y, Y, Z), (a, b, Z))):
            with pytest.raises(ConductorCapError):
                joint()
        assert a * a == a ** 2 and poly3_compose((X * X, Y, Z), (a, b, Z))[0] == a * a
    finally:
        set_conductor_cap(previous)


def test_compositions_and_substitutions_make_no_cycnum_operation(monkeypatch):
    # a fall-back to one CycNum operation per coefficient would count here
    X, Y, Z = poly3_identity()
    z = root_of_unity(5)
    rational = ((X + 2 * Y * Z - Fraction(1, 3), Y - X * X, 3 * Z + X * Y),
                (X - Y * Y, Fraction(1, 2) * Y + Z, Z - X))
    cyclotomic = ((z * X + Y * Z - z ** 2, Y - X * X, Fraction(1, 4) * Z + X),
                  (X - z * Y * Y, Y + Z, z ** 3 * Z - X))
    f = z * X * Y + Fraction(1, 3) * Z * Z - X
    t = URatFun.x()
    at = (t, 1 / (t - 1), (t * t + z) / (t + 2))
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "_plus"):
        monkeypatch.setattr(CycNum, name, counted(name, getattr(CycNum, name)))
    images = [poly3_compose(outer, inner) for outer, inner in (rational, cyclotomic)]
    value = f.substitute(at)
    assert not calls, f"{len(calls)} CycNum operations"
    monkeypatch.undo()
    for (outer, inner), image in zip((rational, cyclotomic), images):
        for got, g in zip(image, outer):
            assert agrees(got, dict_at(g.c, [v.c for v in inner], ONE))
    assert value == substitute_term_by_term(f, at)


@pytest.mark.parametrize("base", [UPoly.x(), poly3_var("X"),
                                  HPoly2.term(1, 1, 0)],
                         ids=["UPoly", "MPoly", "HPoly2"])
def test_a_negative_power_of_a_polynomial_is_an_error(base):
    for n in (-1, -4):
        with pytest.raises(ValueError, match="negative exponent"):
            base ** n
    assert base ** 0 * base == base and base ** 3 == base * base * base


@pytest.mark.parametrize("s", [3, Fraction(-2, 5), root_of_unity(3) + 1],
                         ids=["int", "Fraction", "CycNum"])
@pytest.mark.parametrize("p", [UPoly([1, 2, Fraction(1, 3)]),
                               poly3_var("X") * poly3_var("Y") - 2],
                         ids=["UPoly", "MPoly"])
def test_sums_and_differences_take_the_scalars_products_take(p, s):
    const = UPoly.const(s) if isinstance(p, UPoly) else MPoly.const(p.vars, s)
    assert p + s == p + const == s + p
    assert p - s == p - const and s - p == const - p
    assert p * s == p * const == s * p


@pytest.mark.parametrize("p", [UPoly.x(), poly3_var("X"), URatFun.x(),
                               HPoly2.term(1, 1, 0)],
                         ids=["UPoly", "MPoly", "URatFun", "HPoly2"])
@pytest.mark.parametrize("other", [0.5, "1", None])
def test_other_operands_of_sums_are_a_type_error(p, other):
    for op in (lambda: p + other, lambda: other + p, lambda: p - other,
               lambda: other - p):
        with pytest.raises(TypeError):
            op()

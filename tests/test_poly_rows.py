"""UPoly and HPoly2 on integer numerators over one denominator, against the
CycNum-tuple reference in ``oracles``: every operation, over Q and the
fields Q(zeta_m) for m = 3, 4, 5, 8, 12, 20, with operands from one or two
fields; equal values stored at different conductors; division by x and y;
no CycNum arithmetic in products, sums and substitutions; and the shared
1, x and denominators."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equicurve.cyclotomic import CycNum, euler_phi, root_of_unity
from equicurve.errors import ZeroPolynomialError
from equicurve.poly import HPoly2, UPoly, compose_matrix_many
from oracles import (tuple_derivative, tuple_eval, tuple_product, tuple_scale,
                     tuple_substitute, tuple_sum)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
FIELDS = (1, 3, 4, 5, 8, 12, 20)


@st.composite
def field_values(draw, m, nonzero=False):
    """Zero, a rational (stored at conductor 1 or over Q(zeta_m)), or any
    value of Q(zeta_m), over denominators up to 6."""
    kind = draw(st.integers(int(nonzero), 3))
    if kind == 0:
        return CycNum(0)
    den = draw(st.integers(1, 6))
    nums = [draw(st.integers(-9, 9)) for _ in range(euler_phi(m))]
    if kind == 1:
        v = CycNum(Fraction(nums[0], den))
        v = v.embedded(m) if draw(st.booleans()) else v
    else:
        v = CycNum.from_coeffs(m, [Fraction(x, den) for x in nums])
    return v if v or not nonzero else CycNum(Fraction(-2, 3))


@st.composite
def upolys(draw, fields=None, max_len=9):
    """A UPoly of 0 to max_len coefficients, each from one of ``fields``
    (one or two fields drawn from FIELDS if not given)."""
    if fields is None:
        fields = draw(st.lists(st.sampled_from(FIELDS), min_size=1,
                               max_size=2, unique=True))
    n = draw(st.integers(0, max_len))
    return UPoly([draw(field_values(draw(st.sampled_from(fields))))
                  for _ in range(n)])


def scalars():
    return st.sampled_from(FIELDS).flatmap(field_values)


def agrees(got, want: tuple) -> bool:
    # equal values coefficient by coefficient, and equal printed forms
    cs = got.c
    return cs == want and [str(v) for v in cs] == [str(v) for v in want] \
        and got.degree == len(want) - 1


@PROPERTY
@given(upolys(), upolys(), scalars())
def test_ring_operations_agree_with_the_tuples(a, b, s):
    ca, cb = a.c, b.c
    assert agrees(a + b, tuple_sum(ca, cb))
    assert agrees(a - b, tuple_sum(ca, cb, -1))
    assert agrees(-a, tuple_scale(ca, -1))
    assert agrees(a * b, tuple_product(ca, cb))
    assert agrees(a * s, tuple_scale(ca, s)) and agrees(s * a, tuple_scale(ca, s))
    assert agrees(a ** 2, tuple_product(ca, ca))
    assert agrees(a.derivative(), tuple_derivative(ca))
    assert a.eval(s) == tuple_eval(ca, s)
    assert (a == b) == (ca == cb)
    assert UPoly(ca) == a and str(UPoly(ca)) == str(a)
    if ca:
        assert a.lead() == ca[-1]
        assert agrees(a.monic(), tuple_scale(ca, ca[-1].inverse()))


@PROPERTY
@given(st.sampled_from(FIELDS), st.sampled_from(FIELDS), st.data())
def test_mixed_fields_agree_with_the_tuples(m1, m2, data):
    # one operand over each field: the result is stored over Q(zeta_lcm)
    a = data.draw(upolys((m1,)))
    b = data.draw(upolys((m2,)))
    assert agrees(a + b, tuple_sum(a.c, b.c))
    assert agrees(a * b, tuple_product(a.c, b.c))
    assert agrees(b - a, tuple_sum(b.c, a.c, -1))


@PROPERTY
@given(st.sampled_from(FIELDS), st.sampled_from(FIELDS), st.data())
def test_forms_agree_with_the_tuples(m_form, m_mat, data):
    d = data.draw(st.integers(0, 10))
    f = HPoly2(d, data.draw(upolys((m_form, 1), max_len=d + 1)))
    g = HPoly2(d, data.draw(upolys((m_form,), max_len=d + 1)))
    values = [data.draw(field_values(m_mat)) for _ in range(4)]
    shape = data.draw(st.sampled_from(("generic", "diagonal", "antidiagonal")))
    mat = (values if shape == "generic" else
           (values[0], 0, 0, values[3]) if shape == "diagonal" else
           (0, values[1], values[2], 0))
    fc, gc = f.u.c, g.u.c
    assert agrees((f + g).u, tuple_sum(fc, gc))
    assert agrees((f * g).u, tuple_product(fc, gc))
    for p, want in zip(compose_matrix_many((f, g), mat), (fc, gc)):
        image = tuple_substitute(want, d, mat)
        assert agrees(p.u, image)
        assert p.degree == (d if image else -1)


def test_equal_values_at_different_conductors_compare_equal_and_print_alike():
    # the same coefficients, of Q(i) and of Q, stored over Q(zeta_12) and
    # over Q(zeta_20): the two polynomials are one
    i = root_of_unity(4)
    values = [Fraction(1, 3), 2 + i, 0, -i / 5, 7]
    a = UPoly([CycNum(v).embedded(12) for v in values])
    b = UPoly([CycNum(v).embedded(20) for v in values])
    c = UPoly(values)
    assert (a.m, b.m, c.m) == (12, 20, 4)
    assert a == b == c and str(a) == str(b) == str(c)
    assert a - b == UPoly() and (a * b) == c * c
    fa, fb = HPoly2(6, a), HPoly2(6, b)
    assert fa == fb and str(fa) == str(fb)
    # a rational polynomial is stored over Q, whatever the operands' field
    r = UPoly([CycNum(v).embedded(8) for v in (1, Fraction(-1, 2), 3)])
    assert r.m == 1 and (a - a + r).m == 1 and r == UPoly([1, Fraction(-1, 2), 3])


X, Y = HPoly2.term(1, 1, 0), HPoly2.term(1, 0, 1)


def test_division_by_a_monomial_is_a_shift(monkeypatch):
    z = root_of_unity(12)
    f = HPoly2(5, {1: z, 3: Fraction(2, 3), 4: 1 - z})   # x and y divide f once
    monkeypatch.setattr(UPoly, "divmod", lambda *a: pytest.fail("a division"))
    assert f.divexact(X) * X == f and f.divexact(Y) * Y == f
    assert (f * X * Y).divexact(X * Y) == f
    assert f.divexact(X.scale(z)) * X.scale(z) == f
    assert (f * Y ** 3).divexact(Y.scale(Fraction(-1, 7)) ** 3) == \
        f.scale(-343)
    for divisor in (X * X, Y * Y, X * Y * Y, X.scale(3) ** 2):
        with pytest.raises(ZeroPolynomialError):
            f.divexact(divisor)
    assert HPoly2.zero().divexact(X) == HPoly2.zero()


def test_products_sums_and_substitutions_make_no_cycnum_operation(monkeypatch):
    # forms over Q(zeta_12) and Q: a fall-back to one CycNum operation per
    # coefficient would count here
    z = root_of_unity(12)
    f = HPoly2(12, {k: (k % 5 - 2) * z ** (k % 4) + Fraction(k, 7)
                    for k in range(13)})
    g = HPoly2(12, {k: Fraction(3 - k, 2) for k in range(0, 13, 2)})
    mats = [(z, 1, z ** 5 - 2, Fraction(1, 3)), (z, 0, 0, z ** 11),
            (0, z, -z ** 11, 0), (2, 1, 1, 1)]
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "_plus"):
        monkeypatch.setattr(CycNum, name, counted(name, getattr(CycNum, name)))
    products = [f * g, f * f, g * g, (f * g) ** 2, f * 3, f * Fraction(2, 5)]
    sums = [f + g, f - g, (f * g) - (g * f), -f + g]
    images = [compose_matrix_many((f, g, f * f), mat) for mat in mats]
    assert not calls, f"{len(calls)} CycNum operations"
    monkeypatch.undo()
    assert products[0].u.c == tuple_product(f.u.c, g.u.c)
    assert sums[2] == HPoly2.zero()
    for image, mat in zip(images, mats):
        assert image[0].u.c == tuple_substitute(f.u.c, 12, mat)


def test_a_matrix_takes_forms_of_several_fields_and_degrees_in_one_call(
        monkeypatch):
    # forms over Q(i) and Q, of degrees 4, 3 and 0, under monomial and
    # generic matrices over Q(zeta_5) and Q: each group of one degree and
    # one field is substituted together, with no call per form, and every
    # image is the one a call for that form alone stores
    from equicurve import poly
    z, i = root_of_unity(5), root_of_unity(4)
    forms = (HPoly2(4, {0: i, 2: 1 + i, 4: Fraction(1, 3)}),
             HPoly2(4, {1: 2, 3: Fraction(-1, 2)}),
             HPoly2(3, {0: 1, 3: z}), HPoly2(0, {0: i}), HPoly2.zero(),
             HPoly2(4, {0: 5, 4: 1}))
    mats = [(z, 0, 0, z ** 2 + 1), (0, z, Fraction(1, 2), 0), (2, 0, 0, -1),
            (1, z, 0, 1), (1, 2, 3, 4)]
    for mat in mats:
        alone = [compose_matrix_many((f,), mat)[0] for f in forms]
        calls = []
        original = poly.compose_matrix_many

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(poly, "compose_matrix_many", counted)
        together = poly.compose_matrix_many(forms, mat)
        monkeypatch.undo()
        assert len(calls) == 1
        for got, want, f in zip(together, alone, forms):
            assert got == want and got.d == want.d and got.u.m == want.u.m
            assert str(got) == str(want)
            assert got.u.c == (tuple_substitute(f.u.c, f.d, mat) if f.d > 0
                               else f.u.c)


def test_the_unit_factor_keeps_its_operand_and_denominators_are_shared():
    # kept values (inputs, results) share 1, x and the denominators that a
    # product by 1 or a coprime reduction hands through unchanged
    from equicurve.poly import URatFun
    P = UPoly.from_roots([1, -2, 3])
    assert P * 1 is P and UPoly.const(1) * P is P and 1 * P is P
    assert UPoly.x() is UPoly.x() and URatFun.x() is URatFun.x()
    q = URatFun(UPoly.const(1), P) + URatFun(UPoly([1, 2]))
    assert q.den is P
    assert q.num == UPoly([1, 2]) * P + 1
    zero = URatFun(UPoly(), P)
    assert zero.num.is_zero() and zero.den is UPoly.const(1)

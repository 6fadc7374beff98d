"""The shared evaluation of polynomial maps against the term-by-term and
Horner evaluations it replaced (kept in ``oracles.py``), over Q, Q(i) and
Q(zeta_3): at rational functions, whose denominators share factors so that
the one final reduction matters, at polynomials of A^3 and at scalars."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from equicurve.cyclotomic import CycNum, euler_phi
from equicurve.poly import (
    MPoly,
    POLY3_VARS,
    UPoly,
    URatFun,
    _over_common_denominator,
    poly3_compose,
)
from oracles import compose_horner, substitute_term_by_term

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)
FIELDS = st.sampled_from((1, 4, 3))


def scalars(m):
    """Elements of Q(zeta_m), rational about half of the time."""
    coeffs = st.lists(st.integers(-3, 3), min_size=euler_phi(m),
                      max_size=euler_phi(m))
    rational = st.integers(-3, 3).map(CycNum)
    return st.one_of(rational, coeffs.map(
        lambda cs: CycNum.from_coeffs(m, [Fraction(c) for c in cs])))


def upolys(m, max_degree=2):
    return st.lists(scalars(m), max_size=max_degree + 1).map(UPoly)


@st.composite
def mpolys(draw, m, variables=POLY3_VARS, max_degree=4):
    """Polynomials of total degree <= max_degree; the zero polynomial and
    constants among them."""
    n = len(variables)
    exps = st.tuples(*[st.integers(0, max_degree)] * n).filter(
        lambda e: sum(e) <= max_degree)
    shape = draw(st.sampled_from(("zero", "constant", "general", "general")))
    if shape == "zero":
        return MPoly(variables)
    if shape == "constant":
        return MPoly.const(variables, draw(scalars(m)))
    terms = draw(st.dictionaries(exps, scalars(m), max_size=5))
    return MPoly(variables, terms)


@st.composite
def ratfun_values(draw, m, count=3):
    """Rational functions built from a shared pool of linear factors, so
    that numerators and denominators of different values share factors;
    zero values among them."""
    pool = [UPoly([draw(scalars(m)), 1]) for _ in range(2)]
    out = []
    for _ in range(count):
        num = draw(upolys(m, 1))
        den = draw(upolys(m, 1))
        if den.is_zero():
            den = UPoly.const(1)
        num = num * pool[draw(st.integers(0, 1))] ** draw(st.integers(0, 1))
        den = den * pool[draw(st.integers(0, 1))] ** draw(st.integers(0, 2))
        out.append(URatFun(num, den))
    return tuple(out)


@st.composite
def at_ratfuns(draw):
    m = draw(FIELDS)
    return draw(mpolys(m)), draw(ratfun_values(m))


@PROPERTY
@given(at_ratfuns())
def test_substitute_at_ratfuns_matches_term_by_term(case):
    f, values = case
    got = f.substitute(values)
    want = substitute_term_by_term(f, values)
    assert got == want
    assert str(got) == str(want)


@PROPERTY
@given(st.data())
def test_unreduced_fraction_has_the_bounded_degrees(data):
    # the (numerator, denominator) pair verify_extension takes its residual
    # from, over prod_j den_j^(k_j), within the degree D it bounds
    m = data.draw(FIELDS)
    triple = tuple(data.draw(mpolys(m)) for _ in range(3))
    values = data.draw(ratfun_values(m))
    tau_degrees = [max(v.num.degree, v.den.degree, 0) for v in values]
    for f, (num, den) in zip(triple, _over_common_denominator(triple, values)):
        ks = f.degrees()
        expected_den = UPoly.const(1)
        for v, k in zip(values, ks):
            expected_den = expected_den * v.den ** k
        assert den == expected_den
        assert URatFun(num, den) == substitute_term_by_term(f, values)
        D = sum(k * d for k, d in zip(ks, tau_degrees))
        assert num.degree <= D and den.degree <= D


@PROPERTY
@given(st.data())
def test_poly3_compose_at_ratfuns_and_polynomials(data):
    m = data.draw(FIELDS)
    outer = tuple(data.draw(mpolys(m)) for _ in range(3))
    values = data.draw(ratfun_values(m))
    assert poly3_compose(outer, values) == tuple(
        substitute_term_by_term(f, values) for f in outer)
    inner = tuple(data.draw(mpolys(m, max_degree=2)) for _ in range(3))
    got = poly3_compose(outer, inner)
    want = tuple(substitute_term_by_term(f, inner) for f in outer)
    assert got == want
    assert [str(g) for g in got] == [str(w) for w in want]


@PROPERTY
@given(st.data())
def test_substitute_at_scalars(data):
    m = data.draw(FIELDS)
    f = data.draw(mpolys(m))
    values = tuple(data.draw(scalars(m)) for _ in range(3))
    got = f.substitute(values)
    assert got == substitute_term_by_term(f, values)
    assert str(got) == str(substitute_term_by_term(f, values))


@PROPERTY
@given(st.data())
def test_upoly_compose_at_a_ratfun_matches_horner(data):
    m = data.draw(FIELDS)
    p = data.draw(upolys(m, 4))
    inner = data.draw(ratfun_values(m, count=1))[0]
    got = p.compose(inner)
    assert got == compose_horner(p, inner)
    assert str(got) == str(compose_horner(p, inner))


def test_mixed_scalar_and_ratfun_values():
    # a scalar among rational-function values is read as a constant
    X, Y, Z = (MPoly.var(POLY3_VARS, n) for n in POLY3_VARS)
    t = URatFun.x()
    values = (t, CycNum(2), 1 / t)
    f = X * Y * Z + Y
    assert f.substitute(values) == URatFun.const(4)
    assert f.substitute(values) == substitute_term_by_term(f, values)


def test_components_of_different_degrees_share_the_tables():
    # X has degree 1 in X, X^2 + X degree 2: the factor of the term X is
    # num_X in the first and num_X * den_X in the second
    X, Y, Z = (MPoly.var(POLY3_VARS, n) for n in POLY3_VARS)
    t = URatFun.x()
    values = (1 / (t - 1), (t + 2) / (t * t + 1), CycNum(3))
    outer = (X, X * X + X, Y * X + Z)
    assert poly3_compose(outer, values) == tuple(
        substitute_term_by_term(f, values) for f in outer)

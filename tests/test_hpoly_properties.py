"""Properties of HPoly2, the (degree, dehomogenization) view over UPoly:
exact division, gcd and squarefree parts with x^k and y^k factors, and one
substitution routine for single forms, lists of mixed degrees, and diagonal,
antidiagonal and generic matrices, checked against a reference that expands
the image of every monomial."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equicurve import poly
from equicurve.cyclotomic import (CycNum, euler_phi, root_of_unity,
                                  set_conductor_cap)
from equicurve.errors import ConductorCapError, ZeroPolynomialError
from equicurve.poly import HPoly2, UPoly, compose_matrix_many
from equicurve.projline import Moebius, group_closure, sl2_pullback
from oracles import compose_matrix_rows, eval_equal, upoly_mul_loop

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
X, Y = HPoly2.term(1, 1, 0), HPoly2.term(1, 0, 1)


def x_valuation(p):
    # the power of x dividing the form: the low-order zeros of f(x, 1)
    return next(i for i, v in enumerate(p.u.c) if v)


@st.composite
def scalars(draw, nonzero=False):
    m = draw(st.sampled_from((1, 1, 4, 3)))
    cs = draw(st.lists(st.integers(-3, 3), min_size=euler_phi(m),
                       max_size=euler_phi(m)))
    v = CycNum.from_coeffs(m, [Fraction(c) for c in cs])
    return v if v or not nonzero else CycNum(1)


@st.composite
def forms(draw, max_degree=4, zero=False):
    """Homogeneous forms times x^i y^j, so both valuations vary."""
    d = draw(st.integers(0, max_degree))
    coeffs = {i: draw(scalars()) for i in range(d + 1)
              if draw(st.booleans())}
    coeffs[draw(st.integers(0, d))] = draw(scalars(nonzero=True))
    p = HPoly2(d, coeffs)
    if zero and draw(st.integers(0, 5)) == 0:
        return HPoly2.zero()
    return p * X ** draw(st.integers(0, 2)) * Y ** draw(st.integers(0, 2))


@st.composite
def matrices(draw):
    a, b, c, d = (draw(scalars()) for _ in range(4))
    shape = draw(st.sampled_from(("diagonal", "antidiagonal", "generic")))
    if shape == "diagonal":
        return (a, 0, 0, d)
    if shape == "antidiagonal":
        return (0, b, c, 0)
    return (a, b, c, d)


@PROPERTY
@given(forms(), forms())
def test_divexact_inverts_mul(p, q):
    assert (p * q).divexact(q) == p
    assert (p * q).degree == p.degree + q.degree


def test_divexact_checks_the_y_valuation():
    # x^2 / (x*y): the dehomogenizations divide (x^2 / x), the forms do not
    with pytest.raises(ZeroPolynomialError):
        (X * X).divexact(X * Y)
    with pytest.raises(ZeroPolynomialError):
        (X * X).divexact(X + Y)
    assert (X * X * Y).divexact(X * Y) == X


@PROPERTY
@given(forms(), forms(), forms(max_degree=2))
def test_gcd_is_monic_and_a_common_divisor(p, q, common):
    a, b = p * common, q * common
    g = a.gcd(b)
    assert g.lead() == 1
    a.divexact(g)
    b.divexact(g)
    g.divexact(common)     # the greatest: every common divisor divides it
    assert x_valuation(g) == min(x_valuation(a), x_valuation(b))
    assert g.y_valuation() == min(a.y_valuation(), b.y_valuation())


@PROPERTY
@given(forms(), forms(max_degree=2))
def test_squarefree_decomp(p, q):
    f = p * q * q
    sf, cofactor = f.squarefree_decomp()
    assert sf * cofactor == f
    assert sf.lead() == 1
    assert sf.squarefree_decomp()[1].degree == 0
    assert x_valuation(sf) == min(x_valuation(f), 1)
    assert sf.y_valuation() == min(f.y_valuation(), 1)


@PROPERTY
@given(st.lists(forms(zero=True), min_size=1, max_size=4), matrices())
def test_compose_matrix_many_matches_single_substitution(polys, mat):
    many = compose_matrix_many(polys, mat)
    assert len(many) == len(polys)
    for p, moved in zip(polys, many):
        assert moved == p.compose_matrix(mat)
        assert moved.degree == p.degree or moved.is_zero()
        assert eval_equal(moved, p, mat=mat)


@PROPERTY
@given(st.lists(forms(), min_size=2, max_size=3), matrices())
def test_compose_matrix_many_same_degree(polys, mat):
    # one degree: the forms share the substituted powers and their products
    top = max(p.degree for p in polys)
    polys = [p * Y ** (top - p.degree) for p in polys] + [HPoly2.zero()]
    for p, moved in zip(polys, compose_matrix_many(polys, mat)):
        assert moved == p.compose_matrix(mat)
        assert eval_equal(moved, p, mat=mat)


# -- Horner's rule against the monomial-row reference ---------------------------

FIELDS = (1, 4, 3, 5)   # Q, Q(i), Q(zeta_3), Q(zeta_5)


def field_scalar(draw, m, nonzero=False):
    cs = draw(st.lists(st.integers(-9, 9), min_size=euler_phi(m),
                       max_size=euler_phi(m)))
    v = CycNum.from_coeffs(m, cs)
    return v if v or not nonzero else CycNum(1)


@st.composite
def substitution_cases(draw, m_form, m_mat):
    """(forms, matrices): up to three forms over Q(zeta_m_form) of degree up
    to 30, zero, y-divisible, sparse or dense, of one degree or of mixed
    degrees, and a generic, a diagonal and an antidiagonal matrix over
    Q(zeta_m_mat)."""
    mixed = draw(st.booleans())
    d0 = draw(st.integers(0, 30))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, 30)) if mixed else d0
        if draw(st.integers(0, 5)) == 5:
            polys.append(HPoly2.zero())
            continue
        top = d - draw(st.integers(0, min(d, 3)))   # y^(d - top) divides it
        sparse = draw(st.booleans())
        coeffs = {i: field_scalar(draw, m_form) for i in range(top)
                  if not sparse or draw(st.integers(0, 3)) == 3}
        coeffs[top] = field_scalar(draw, m_form, nonzero=True)
        polys.append(HPoly2(d, coeffs))
    a, b, c, e = (field_scalar(draw, m_mat) for _ in range(4))
    return polys, ((a, b, c, e), (a, 0, 0, e), (0, b, c, 0))


@pytest.mark.parametrize("m_mat", FIELDS)
@pytest.mark.parametrize("m_form", FIELDS)
def test_horner_matches_the_monomial_rows(m_form, m_mat):
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(substitution_cases(m_form, m_mat))
    def check(case):
        polys, mats = case
        for mat in mats:
            got = compose_matrix_many(polys, mat)
            want = compose_matrix_rows(polys, mat)
            assert got == want
            # a value has one printed form, whatever the path
            assert [str(p) for p in got] == [str(p) for p in want]

    check()


def test_horner_at_degree_60_over_q_zeta_5():
    z = root_of_unity(5)
    f = HPoly2(60, {i: CycNum.from_coeffs(5, [(7 * i + 3 * k) % 1021 - 510
                                              for k in range(4)])
                    for i in range(61)})
    mat = (1 + z, 2, z * z - 1, 3)
    moved = f.compose_matrix(mat)
    assert moved.degree == 60
    assert eval_equal(moved, f, mat=mat)
    # equal values, so the printed forms agree too
    assert str(moved) == str(compose_matrix_rows((f,), mat)[0])


def test_edge_coefficients_keep_the_field_of_their_two_entries():
    # the coefficient of y^d is f(m12, m22) and that of x^d is f(m11, m21):
    # where the entry over Q(zeta_3) reaches neither, the edge coefficient
    # 7 + 4i lies in Q(i) and prints over Q(i), although the substitution
    # computes in Q(zeta_12)
    i, w = root_of_unity(4), root_of_unity(3)
    f = HPoly2(2, {2: 1, 1: 3, 0: i})
    for mat in ((w, 1, 1, 2), (1, w, 2, 1)):
        moved = f.compose_matrix(mat)
        assert str(moved) == str(compose_matrix_rows((f,), mat)[0])
        assert "cyc(4; 7, 4)" in str(moved)


def test_substitution_over_the_cap_raises():
    # a form over Q(zeta_7) under a generic matrix over Q(zeta_11): the
    # substitution computes in Q(zeta_77), of degree 60, over a cap of 24
    f = HPoly2(1, {1: root_of_unity(7)})
    mat = (root_of_unity(11), 1, 1, 2)
    previous = set_conductor_cap(24)
    try:
        with pytest.raises(ConductorCapError):
            f.compose_matrix(mat)
    finally:
        set_conductor_cap(previous)


def test_a_constant_form_is_its_own_image_under_the_cap():
    # the same fields as above, but a form of degree 0: its image is itself
    # and needs no arithmetic in Q(zeta_77)
    f = HPoly2(0, {0: root_of_unity(7)})
    mat = (root_of_unity(11), 1, 1, 2)
    previous = set_conductor_cap(24)
    try:
        assert f.compose_matrix(mat) == f
        assert compose_matrix_many((f, HPoly2.zero()), mat) == [f, HPoly2.zero()]
    finally:
        set_conductor_cap(previous)


def test_degree_24_form_under_an_octahedral_lift():
    i = root_of_unity(4)
    G = sl2_pullback(group_closure([Moebius(i, i, 1, -1), Moebius(i, 0, 0, 1)]))
    # a lift over Q(zeta_8) with four nonzero entries: the generic path
    g = next(g for g in G.elements
             if all(g.entries()) and any(v.m == 8 for v in g.entries()))
    f = HPoly2(24, {k: (-1) ** k * (k * k % 11 - 5) for k in range(25)})
    mat = g.entries()
    moved = f.compose_matrix(mat)
    assert moved == compose_matrix_rows((f,), mat)[0]
    assert eval_equal(moved, f, mat=mat)


# -- the integer product kernel against the pairwise loop -----------------------

KERNEL_FIELDS = (1, 4, 3, 5, 12)   # Q, Q(i), Q(zeta_3), Q(zeta_5), Q(zeta_12)


@st.composite
def kernel_scalars(draw, fields, nonzero=False):
    """Zero, a rational stored over Q(zeta_m) (m = 1 too), or any value of
    Q(zeta_m), with numerators of either sign, some of 2^64 and more, over
    varying denominators."""
    kind = draw(st.integers(int(nonzero), 4))
    if kind == 0:
        return CycNum(0)
    m = draw(st.sampled_from(fields))
    top = 2 ** 70 if draw(st.integers(0, 4)) == 0 else 9
    nums = st.integers(-top, top)
    cs = [draw(nums)] + ([0] * (euler_phi(m) - 1) if kind == 1 else
                         [draw(nums) for _ in range(euler_phi(m) - 1)])
    den = draw(st.integers(1, 6))
    v = CycNum.from_coeffs(m, [Fraction(c, den) for c in cs])
    return v if v or not nonzero else CycNum(-1)


@st.composite
def kernel_polys(draw):
    """A UPoly of 1 to 24 coefficients over one to three of the fields."""
    fields = draw(st.lists(st.sampled_from(KERNEL_FIELDS), min_size=1,
                           max_size=3, unique=True))
    n = draw(st.integers(1, 24))
    cs = [draw(kernel_scalars(fields)) for _ in range(n - 1)]
    return UPoly(cs + [draw(kernel_scalars(fields, nonzero=True))])


def assert_agrees(got, want):
    # equal values, coefficient by coefficient, and equal printed forms
    assert got.c == want.c
    assert [str(v) for v in got.c] == [str(v) for v in want.c]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(kernel_polys(), kernel_polys())
def test_product_kernel_agrees_with_the_loop(a, b):
    want = upoly_mul_loop(a, b)
    # the kernel at every size, and the product on either side of the cutoff
    assert_agrees(UPoly(poly._product(a.c, b.c)), want)
    assert_agrees(a * b, want)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.data())
def test_product_over_the_cap_stays_with_the_loop(data):
    # a: a block over Q(zeta_5) and, past a gap, one over Q(zeta_7); b over
    # Q(zeta_3), no longer than the gap.  Every coefficient of a * b then
    # lies in Q(zeta_15) or Q(zeta_21), but the field of both operands,
    # Q(zeta_105) of degree 48, is over a cap of 24
    def block(m):
        cs = data.draw(st.lists(kernel_scalars((m,), nonzero=True),
                                min_size=3, max_size=6))
        return cs + [root_of_unity(m) + data.draw(st.integers(-3, 3))]
    b = UPoly(block(3))
    gap = len(b.c) - 1 + data.draw(st.integers(0, 2))
    a = UPoly(block(5) + [CycNum(0)] * gap + block(7))
    previous = set_conductor_cap(24)
    try:
        assert poly._product(a.c, b.c) is None
        assert_agrees(a * b, upoly_mul_loop(a, b))
    finally:
        set_conductor_cap(previous)

"""The gcd with cofactors over Q(zeta_m) (``modular.cofactors``) against
Euclid over CycNum: planted common factors, denominators, mixed
conductors, unlucky primes, the end of the prime stream, zero and constant
operands, a field over the conductor cap, and no pair, coprime or not,
that uses field inversions."""
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from equicurve import modular
from equicurve.cli import run
from equicurve.cyclotomic import (CycNum, euler_phi, root_of_unity,
                                  set_conductor_cap)
from equicurve.errors import ConductorCapError
from equicurve.poly import HPoly2, UPoly
from oracles import upoly_gcd_euclid

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
FIELDS = (1, 4, 3, 5, 8, 12)   # Q, Q(i), Q(zeta_3), Q(zeta_5), Q(zeta_8), Q(zeta_12)


@st.composite
def scalars(draw, fields, nonzero=False):
    """Zero (unless nonzero) or a value of one of the fields, with
    numerators of either sign over denominators up to 12."""
    m = draw(st.sampled_from(fields))
    cs = [Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
          for _ in range(euler_phi(m))]
    v = CycNum.from_coeffs(m, cs)
    return v if v or not nonzero else CycNum(Fraction(-3, 7))


@st.composite
def upolys(draw, fields, low, high):
    n = draw(st.integers(low, high))
    cs = [draw(scalars(fields)) for _ in range(n)]
    return UPoly(cs + [draw(scalars(fields, nonzero=True))])


@st.composite
def planted(draw):
    """(a, b) = (c p, c q): c of degree 0 to 6 over one of the fields, each
    coefficient stored at a conductor that divides the field's, so that
    conductors mix (Q(zeta_12) holds entries of Q, Q(i) and Q(zeta_3))."""
    m = draw(st.sampled_from(FIELDS))
    fields = [k for k in FIELDS if m % k == 0]
    c = draw(upolys(fields, 0, 6))
    return (c * draw(upolys(fields, 0, 8)), c * draw(upolys(fields, 0, 8)))


def assert_same(got: UPoly, want: UPoly):
    # equal values, coefficient by coefficient, and equal printed forms
    assert got.c == want.c
    assert str(got) == str(want)


def assert_euclid(a, b, found):
    g, ca, cb = found
    want = upoly_gcd_euclid(a, b)
    assert_same(g, want)
    assert_same(ca, a.divexact(want))
    assert_same(cb, b.divexact(want))


@PROPERTY
@given(planted())
def test_gcd_and_cofactors_agree_with_euclid(pair):
    a, b = pair
    found = a.cofactors(b)
    assert_euclid(a, b, found)
    assert_same(a.gcd(b), found[0])


@PROPERTY
@given(planted())
def test_every_reconstruction_agrees_with_euclid(pair):
    # the module function, on pairs of every size; a nonzero constant
    # operand is answered without images
    a, b = pair
    assert_euclid(a, b, modular.cofactors(a, b))


@pytest.mark.parametrize("m", FIELDS)
def test_reconstruction_over_each_field(m):
    z = root_of_unity(m) if m > 1 else CycNum(Fraction(2, 3))
    x = UPoly.x()
    c = x * x * x + UPoly([z, Fraction(1, 5)]) * x - UPoly.const(z * z + 7)
    p = x ** 4 + UPoly.const(Fraction(3, 4)) * x - UPoly.const(z)
    q = x ** 5 - UPoly.const(z + Fraction(1, 2)) * x ** 2 + UPoly.const(11)
    a, b = c * p, c * q
    found = modular.cofactors(a, b)
    assert_euclid(a, b, found)
    assert found[0].degree == 3


def _dense(n, seed):
    """A monic polynomial of degree n over Q(zeta_5) whose coefficients all
    have numerators and denominators (a generic operand for Euclid)."""
    return UPoly([CycNum.from_coeffs(5, [Fraction((seed * k * k + j) % 23 - 11,
                                                1 + (k + j) % 7)
                                       for j in range(4)])
                  for k in range(n)] + [1])


def assert_certified(a, b, found, degree):
    # g is a monic common divisor with coprime cofactors, so it is the gcd
    g, ca, cb = found
    assert g.degree == degree and g.lead() == 1
    assert g * ca == a and g * cb == b
    assert ca.cofactors(cb) == (UPoly.const(1), ca, cb)


def _first_prime():
    return next(modular.primes(1))[0]


def test_an_unlucky_prime_adds_a_prime():
    # x - 1 and x - 1 - p agree mod p, the first prime: its image has gcd
    # x - 1, whose candidate fails the exact products; the next prime's
    # image is coprime
    p = _first_prime()
    a, b = UPoly([-1, 1]), UPoly([-1 - p, 1])
    assert a.cofactors(b) == (UPoly.const(1), a, b)
    assert modular.cofactors(a, b) == (UPoly.const(1), a, b)


def test_the_end_of_the_prime_stream_is_a_stated_error():
    # with the first prime alone, the unlucky pair above has no certified
    # answer: the images raise, never returning None or a guess
    first = next(modular.primes(1))
    a, b = UPoly([-1, 1]), UPoly([-1 - first[0], 1])
    with mock.patch.object(modular, "primes", lambda m: iter([first])):
        with pytest.raises(ArithmeticError, match="ran out"):
            modular.cofactors(a, b)


@pytest.mark.parametrize("lead, den", [("p", 1), (1, "p")],
                         ids=["leading-coefficient", "denominator"])
def test_a_prime_dividing_a_leading_coefficient_or_denominator_is_skipped(
        lead, den):
    # p divides the leading coefficient of a, or the denominator of one of
    # its coefficients: that image is not good, and the next prime serves
    p = _first_prime()
    lead, den = (p if v == "p" else v for v in (lead, den))
    x = UPoly.x()
    c = x * x - UPoly.const(Fraction(5, 3))
    a = c * (UPoly.const(lead) * x + UPoly.const(Fraction(1, den)))
    b = c * (x * x + UPoly.const(7))
    assert_euclid(a, b, modular.cofactors(a, b))
    assert_euclid(a, b, a.cofactors(b))


def test_coprime_pairs_need_no_field_inversion(monkeypatch):
    # degree 24 and 25 over Q(zeta_12): one good image proves them coprime,
    # so neither CycNum.inverse nor UPoly.divmod (Euclid's step) may run
    z = root_of_unity(12)
    x = UPoly.x()
    a = x ** 24 + UPoly.const(z) * x ** 7 - UPoly.const(Fraction(2, 3) * z ** 5)
    b = x ** 25 + UPoly.const(3) * x ** 3 + UPoly.const(z ** 3 + 1)
    fa, fb = HPoly2(24, a), HPoly2(26, b)

    def refuse(*args):
        raise AssertionError("the coprime exit used field arithmetic")

    monkeypatch.setattr(CycNum, "inverse", refuse)
    monkeypatch.setattr(UPoly, "divmod", refuse)
    g, ca, cb = a.cofactors(b)
    assert (g, ca, cb) == (UPoly.const(1), a, b)
    g, f1, f2 = fa.cofactors(fb)
    assert (g.degree, f1, f2) == (0, fa, fb)


def _planted_zeta12():
    # 9 and 10 coefficients over Q(zeta_12), with a common factor of degree 3
    z = root_of_unity(12)
    x = UPoly.x()
    c = x ** 3 + UPoly.const(z) * x - UPoly.const(Fraction(2, 3) * z ** 5)
    return (c * (x ** 5 + UPoly.const(Fraction(1, 7) + z ** 3)),
            c * (x ** 6 - UPoly.const(z) * x ** 2 + UPoly.const(3))), 3


def _planted_zeta5(n, k):
    # cofactors of degree k and k + 1 to a common factor of degree n over
    # Q(zeta_5), with numerators over denominators: Euclid over CycNum grows
    # its coefficients steeply on such pairs (about 30 s at n = 12, k = 30)
    c = _dense(n, 3) + UPoly.const(root_of_unity(5)) * UPoly.x()
    return (c * _dense(k, 5), c * _dense(k + 1, 7)), n


@pytest.mark.parametrize("pair, degree", [
    _planted_zeta5(12, 30), _planted_zeta5(6, 8), _planted_zeta12()],
    ids=["zeta5-44-coefficients", "zeta5-16-coefficients",
         "zeta12-10-coefficients"])
def test_no_pair_uses_euclid_over_the_field(monkeypatch, pair, degree):
    # large or small, the images carry the gcd and both cofactors without
    # a field inversion or a division over the field
    a, b = pair

    def refuse(*args):
        raise AssertionError("a pair used Euclid over the field")

    monkeypatch.setattr(CycNum, "inverse", refuse)
    monkeypatch.setattr(UPoly, "divmod", refuse)
    assert_certified(a, b, a.cofactors(b), degree)
    assert a.gcd(b).degree == degree


_Z5 = root_of_unity(5)
_C = UPoly.const(Fraction(-3, 7) + _Z5)
_B = UPoly([Fraction(2, 3), _Z5, 3 * _Z5])
_LEAD = "cyc(5; 0, 3, 0, 0)"
_ZERO = (-1, "0")


@pytest.mark.parametrize("a, b, want, forms", [
    (UPoly(), UPoly(), (UPoly(), UPoly(), UPoly()), [_ZERO] * 3),
    (UPoly(), _C, (UPoly.const(1), UPoly(), _C), [(1, "y"), _ZERO, (0, str(_C))]),
    (_C, UPoly(), (UPoly.const(1), _C, UPoly()),
     [(2, "y^2"), (0, str(_C)), _ZERO]),
    (UPoly(), _B, (_B.monic(), UPoly(), UPoly.const(_B.lead())),
     [(3, "x^2*y + 1/3*x*y^2 + cyc(5; -2/9, -2/9, -2/9, -2/9)*y^3"), _ZERO,
      (0, _LEAD)]),
    (_B, UPoly(), (_B.monic(), UPoly.const(_B.lead()), UPoly()),
     [(4, "x^2*y^2 + 1/3*x*y^3 + cyc(5; -2/9, -2/9, -2/9, -2/9)*y^4"),
      (0, _LEAD), _ZERO]),
    (_C, _B, (UPoly.const(1), _C, _B),
     [(1, "y"), (1, f"{_C}*y"),
      (2, f"{_LEAD}*x^2 + cyc(5; 0, 1, 0, 0)*x*y + 2/3*y^2")]),
    (_B, _C, (UPoly.const(1), _B, _C),
     [(1, "y"), (3, f"{_LEAD}*x^2*y + cyc(5; 0, 1, 0, 0)*x*y^2 + 2/3*y^3"),
      (0, str(_C))]),
], ids=["0,0", "0,c", "c,0", "0,b", "b,0", "c,b", "b,c"])
def test_zero_and_constant_operands(a, b, want, forms):
    # one for a nonzero constant, the other operand made monic for a zero
    # one, as Euclid over the field gave them; the forms carry y^2 and y^1
    found = a.cofactors(b)
    assert found == want
    assert [str(v) for v in found] == [str(v) for v in want]
    assert a.gcd(b) == want[0]
    fa, fb = HPoly2(a.degree + 2, a), HPoly2(b.degree + 1, b)
    assert [(f.d, str(f)) for f in fa.cofactors(fb)] == forms
    g = fa.gcd(fb)
    assert (g.d, str(g)) == forms[0]


def test_a_gcd_over_the_conductor_cap_is_a_stated_error():
    # Q(zeta_7) and Q(zeta_11) meet in Q(zeta_77), of degree 60
    a, b = (UPoly([root_of_unity(m), 1]) for m in (7, 11))
    previous = set_conductor_cap(24)
    try:
        for method in (a.cofactors, a.gcd):
            with pytest.raises(ConductorCapError, match=(
                    r"conductor 77 needs a field degree above cap 24; "
                    r"raise it with set_conductor_cap\(\)")):
                method(b)
    finally:
        set_conductor_cap(previous)
    assert run(["verify-extension", "--F", "X; Y; Z", "--tau",
                "x; 1/(x - cyc(7; 0, 1)); 1/(x - cyc(11; 0, 1))",
                "--phi", "[[1,0],[0,1]]", "--conductor-cap", "24"]) == (
        3, "construction error: conductor 77 needs a field degree above cap "
           "24; raise it with --conductor-cap")

"""The gcd with cofactors over Q(zeta_m) (``modular.cofactors``) against
Euclid over CycNum: planted common factors, denominators, mixed
conductors, unlucky primes, the coprime exit without field inversions, and
large pairs without Euclid."""
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from equicurve import modular
from equicurve.cyclotomic import CycNum, euler_phi, root_of_unity
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
    # no pair left to Euclid: the reconstruction runs on pairs of every
    # size, not only on those of at least _EUCLID_BELOW coefficients
    a, b = pair
    with mock.patch.object(modular, "_EUCLID_BELOW", 0):
        found = modular._from_images(a, b)
    if min(a.degree, b.degree) > 0:
        assert_euclid(a, b, found)
    else:
        assert found is None


@pytest.mark.parametrize("m", FIELDS)
def test_reconstruction_over_each_field(m):
    z = root_of_unity(m) if m > 1 else CycNum(Fraction(2, 3))
    x = UPoly.x()
    c = x * x * x + UPoly([z, Fraction(1, 5)]) * x - UPoly.const(z * z + 7)
    p = x ** 4 + UPoly.const(Fraction(3, 4)) * x - UPoly.const(z)
    q = x ** 5 - UPoly.const(z + Fraction(1, 2)) * x ** 2 + UPoly.const(11)
    a, b = c * p, c * q
    with mock.patch.object(modular, "_EUCLID_BELOW", 0):
        found = modular._from_images(a, b)
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
    with mock.patch.object(modular, "_EUCLID_BELOW", 0):
        assert modular._from_images(a, b) == (UPoly.const(1), a, b)


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
    with mock.patch.object(modular, "_EUCLID_BELOW", 0):
        found = modular._from_images(a, b)
    assert found is not None
    assert_euclid(a, b, found)
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


def test_a_large_pair_is_never_left_to_euclid(monkeypatch):
    # at least _EUCLID_BELOW coefficients over Q(zeta_5), with a planted
    # common factor of degree 12 and numerators over denominators: Euclid
    # over CycNum grows its coefficients steeply on such pairs, so the
    # images must carry the gcd and both cofactors without a field inversion
    c = _dense(12, 3) + UPoly.const(root_of_unity(5)) * UPoly.x()
    a, b = c * _dense(30, 5), c * _dense(31, 7)
    assert min(len(a.c), len(b.c)) >= modular._EUCLID_BELOW

    def refuse(*args):
        raise AssertionError("a large pair used Euclid over the field")

    monkeypatch.setattr(CycNum, "inverse", refuse)
    monkeypatch.setattr(UPoly, "divmod", refuse)
    # Euclid over the field took about 30 s on this pair
    assert_certified(a, b, a.cofactors(b), 12)
    assert a.gcd(b).degree == 12


def test_euclid_gives_a_pair_whose_remainders_grow_back_to_the_images(
        monkeypatch):
    # the same kind of pair below _EUCLID_BELOW coefficients: its numerators
    # need more primes than the budget, so Euclid starts, but its remainders
    # outgrow _GROWTH within a few steps, and the images finish the gcd
    c = _dense(6, 3) + UPoly.const(root_of_unity(5)) * UPoly.x()
    a, b = c * _dense(8, 5), c * _dense(9, 7)
    assert max(len(a.c), len(b.c)) < modular._EUCLID_BELOW
    calls = []
    real = modular._from_images

    def spy(a, b, bounded=True):
        calls.append(bounded)
        return real(a, b, bounded)

    monkeypatch.setattr(modular, "_from_images", spy)
    found = a.cofactors(b)
    assert calls == [True, False]
    assert_certified(a, b, found, 6)
    calls.clear()
    assert a.gcd(b) == found[0]
    assert calls == [True, False]
    monkeypatch.undo()
    assert_euclid(a, b, found)

import random
from fractions import Fraction

import pytest

from equicurve.cyclotomic import CycNum
from equicurve.errors import (
    DegreeMismatchError,
    InputBoundError,
    ParseError,
    ZeroPolynomialError,
)
from equicurve.parsing import (
    parse_constant,
    parse_hpoly,
    parse_poly3,
    parse_ratfun,
    parse_upoly,
)
from equicurve.poly import (
    HPoly2,
    MPoly,
    UPoly,
    URatFun,
    poly3_compose,
    poly3_identity,
    poly3_var,
)
from oracles import eval_equal


def rand_hpoly(rng, d, conductor=1):
    from equicurve.cyclotomic import euler_phi
    coeffs = {}
    for i in range(d + 1):
        if rng.random() < 0.7:
            if conductor == 1:
                coeffs[i] = CycNum(rng.randint(-4, 4))
            else:
                coeffs[i] = CycNum.from_coeffs(
                    conductor,
                    [Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(conductor))])
    out = HPoly2(d, coeffs)
    if out.is_zero():
        out = HPoly2(d, {d: CycNum(1)})
    return out


def test_hpoly_arith_examples():
    p = parse_hpoly("x^2 - y^2")
    assert p * p == parse_hpoly("x^4 - 2*x^2*y^2 + y^4")
    assert parse_hpoly("x + y") + parse_hpoly("x - y") == parse_hpoly("2*x")
    with pytest.raises(DegreeMismatchError):
        parse_hpoly("x^2") + parse_hpoly("y^3")


def test_hpoly_squarefree_examples():
    p = parse_hpoly("x^2 - y^2")
    sf, cof = (p * p).squarefree_decomp()
    assert sf == p.normalized()
    assert sf * cof == p * p
    sf, cof = parse_hpoly("x^3*y").squarefree_decomp()
    assert sf == parse_hpoly("x*y")
    assert sf * cof == parse_hpoly("x^3*y")
    sf, _ = p.squarefree_decomp()
    assert sf == p.normalized()
    with pytest.raises(ZeroPolynomialError):
        HPoly2.zero().squarefree_decomp()


def test_hpoly_compose_examples():
    assert parse_hpoly("x*y").compose_matrix((1, 0, 0, 1)) == parse_hpoly("x*y")
    assert parse_hpoly("x^2").compose_matrix((0, 1, 1, 0)) == parse_hpoly("y^2")
    # derived by direct substitution: x <- y, y <- -x
    assert (parse_hpoly("x^2 - y^2").compose_matrix((0, 1, -1, 0))
            == parse_hpoly("y^2 - x^2"))


def test_hpoly_compose_contravariant():
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(1, 6)
        f = rand_hpoly(rng, d)
        m = [CycNum(rng.randint(-3, 3)) for _ in range(4)]
        n = [CycNum(rng.randint(-3, 3)) for _ in range(4)]
        if not (m[0] * m[3] - m[1] * m[2]) or not (n[0] * n[3] - n[1] * n[2]):
            continue
        mn = (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
              m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])
        assert f.compose_matrix(mn) == f.compose_matrix(m).compose_matrix(n)


def test_eval_homomorphism():
    rng = random.Random(9)
    for _ in range(30):
        a = rand_hpoly(rng, rng.randint(1, 5), conductor=3)
        b = rand_hpoly(rng, rng.randint(1, 5), conductor=3)
        pt = (CycNum(rng.randint(-4, 4)), CycNum(rng.randint(-4, 4)))
        assert (a * b).eval(*pt) == a.eval(*pt) * b.eval(*pt)


def test_hpoly_divexact_and_gcd():
    p = parse_hpoly("x^2 - y^2")
    q = parse_hpoly("x + y")
    assert p.divexact(q) == parse_hpoly("x - y")
    with pytest.raises(ZeroPolynomialError):
        p.divexact(parse_hpoly("x + 2*y"))
    g = (p * q).gcd(p * parse_hpoly("x - 3*y"))
    assert g == p.normalized()
    assert parse_hpoly("x^3*y^2").gcd(parse_hpoly("x*y^4")) == parse_hpoly("x*y^2")


def test_hpoly_prints_as_the_mpoly_in_x_y():
    rng = random.Random(17)
    for d in range(7):
        for conductor in (1, 3, 8):
            h = rand_hpoly(rng, d, conductor)
            m = MPoly(("x", "y"),
                      {(i, d - i): v for i, v in enumerate(h.u.c)})
            assert str(h) == str(m)
    assert str(HPoly2()) == str(MPoly(("x", "y"))) == "0"


def test_upoly_xgcd_examples():
    x = UPoly.x()
    g, u, v = x.xgcd(x - UPoly.const(1))
    assert g == UPoly.const(1)
    assert u * x + v * (x - UPoly.const(1)) == g
    g, _, _ = (x * x).xgcd(x)
    assert g == x
    g, _, _ = (x * x - UPoly.const(1)).xgcd(x - UPoly.const(1))
    assert g == x - UPoly.const(1)


def test_upoly_xgcd_random():
    rng = random.Random(13)
    for _ in range(100):
        a = UPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 11))])
        b = UPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 11))])
        if a.is_zero() and b.is_zero():
            continue
        g, u, v = a.xgcd(b)
        assert u * a + v * b == g
        if g.degree >= 0 and not g.is_zero():
            if not a.is_zero():
                assert (a % g).is_zero()
            if not b.is_zero():
                assert (b % g).is_zero()


def test_poly3_compose_examples():
    ident = poly3_identity()
    X, Y, Z = (poly3_var(n) for n in "XYZ")
    g = (X * X + Y, Y - Z, Z)
    assert poly3_compose(ident, g) == g
    f = (X + Y, Y, Z)
    finv = (X - Y, Y, Z)
    assert poly3_compose(f, finv) == ident
    swap = (Y, X, Z)
    assert poly3_compose(swap, swap) == ident


def test_ratfun_arithmetic():
    q = parse_ratfun("1/x")
    assert q + parse_ratfun("x") == parse_ratfun("(x^2+1)/x")
    assert (q * q) == parse_ratfun("1/x^2")
    assert q.compose(parse_ratfun("x+1")) == parse_ratfun("1/(x+1)")
    assert parse_ratfun("(x^2-1)/(x-1)") == parse_ratfun("x+1")


def test_eval_oracle_cross_check():
    rng = random.Random(31)
    for _ in range(10):
        d = rng.randint(1, 5)
        f = rand_hpoly(rng, d)
        g = rand_hpoly(rng, d)
        both = f + g if not (f.is_zero() or g.is_zero()) else f
        assert eval_equal(both, both)
        if f != g:
            assert not eval_equal(f, g) or f == g


def test_mpoly_substitute_ratfun():
    X, Y, Z = (poly3_var(n) for n in "XYZ")
    t = URatFun.x()
    out = (X * Y - 1).substitute((t, 1 / t, URatFun.const(0)))
    assert out.is_zero()


def test_parse_poly3_example():
    f = parse_poly3("X + Y + 2 - Y*Z^2")
    vals = (URatFun.const(0), parse_ratfun("(1-x)^2/x"), parse_ratfun("1/(1-x)"))
    assert f.substitute(vals) == parse_ratfun("x")


def test_squarefree_random_properties():
    rng = random.Random(99)
    for _ in range(30):
        d = rng.randint(1, 5)
        base = rand_hpoly(rng, d)
        if base.is_zero():
            continue
        p = base * base * rand_hpoly(rng, rng.randint(0, 2))
        sf, cof = p.squarefree_decomp()
        assert sf * cof == p              # squarefree part divides p
        sf2, cof2 = sf.squarefree_decomp()
        assert sf2 == sf and cof2.degree == 0   # idempotent


def test_parser_bounds_the_exponent():
    assert parse_hpoly("x^64") == HPoly2.term(1, 64, 0)
    # the bound is checked before the power, so this returns at once
    with pytest.raises(ParseError, match="exceeds 64"):
        parse_ratfun("(1 + x)^" + "9" * 40)
    with pytest.raises(ParseError, match="exceeds 64"):
        parse_hpoly("x^65")
    # chained and nested exponents multiply, and their product is bounded
    # before any power is computed
    assert parse_hpoly("(x^8)^8") == HPoly2.term(1, 64, 0)
    # exponents of separate factors do not multiply
    assert parse_hpoly("x^40 * (x^8)^8 * y^60") == HPoly2.term(1, 104, 60)
    for text in ("(1 + x)^64^64", "((1 + x)^8)^9", "(((1 + x)^8))^9",
                 "((1 + x)^2 * x)^64"):
        with pytest.raises(ParseError, match="exponent product .* exceeds 64"):
            parse_ratfun(text)
    with pytest.raises(ParseError, match="product 4096 at position 5 exceeds"):
        parse_constant("2^64^64^64^64^64")


def test_parser_bounds_the_terms_of_a_product():
    # a power of t terms has at most C(t + e - 1, e) terms, and a product of
    # total degree D in k variables at most C(D + k, k); both are checked
    # before the product is computed.  Here 84 * 84 pairs of terms meet in
    # 455 monomials of degree 12 or less
    assert len(parse_poly3("(X + Y + Z + 1)^6 * (X + Y + Z + 1)^6").c) == 455
    assert len(parse_poly3("(X + Y)^64").c) == 65
    for text, what in (("(X + Y + Z + 1)^22", "power at position 16"),
                       ("(X + Y + Z + 1)^11 * (X + Y + Z + 1)^11",
                        "product at position 19"),
                       ("(1 + X)^64 * (1 + Y)^64", "product at position 11")):
        with pytest.raises(InputBoundError, match=f"{what} may have"):
            parse_poly3(text)
    # the bound is on multivariate polynomials only
    assert parse_upoly("(1 + x)^64 * (1 + x)^64").degree == 128

import random

import pytest
from hypothesis import given, settings, strategies as st

from equicurve.cyclotomic import as_cyc
from equicurve.errors import (
    DegenerateParamsError,
    InputBoundError,
    WitnessNotFoundError,
    ZeroPolynomialError,
)
from equicurve.parsing import (
    parse_poly3,
    parse_ratfun,
    parse_ratfun_triple,
    parse_upoly,
)
from equicurve.planar import (
    Aut3,
    PlanarEmbedding,
    compose_chain,
    connect_planar,
    normalize_planar,
    subalgebra_witness,
    verify_extension,
)
from equicurve.poly import (
    MPoly,
    POLY3_VARS,
    URatFun,
    UPoly,
    poly3_compose,
    poly3_identity,
    poly3_var,
)
from equicurve.projline import Moebius


def test_witness_search_examples():
    w = subalgebra_witness(parse_ratfun("x"),
                           (parse_ratfun("1/x"), parse_ratfun("x + 1/x")))
    assert w is not None
    assert str(w) == "-Y + Z"
    w = subalgebra_witness(parse_ratfun("1/x"),
                           (parse_ratfun("1/x"), parse_ratfun("x")))
    assert str(w) == "Y"
    # subalgebra gap: x is not in C[x^2, x^3]
    w = subalgebra_witness(parse_ratfun("x"),
                           (parse_ratfun("x^2"), parse_ratfun("x^3")),
                           degree_cap=12)
    assert w is None


def test_witness_soundness_random():
    rng = random.Random(6)
    for _ in range(10):
        q = parse_ratfun("1/x")
        r = parse_ratfun("x")
        coeffs = {(i, j): rng.randint(-3, 3) for i in range(3) for j in range(3)}
        a = MPoly(("Y", "Z"), coeffs)
        if a.is_zero():
            continue
        target = a.substitute((q, r))
        found = subalgebra_witness(target, (q, r), degree_cap=6)
        assert found is not None
        assert found.substitute((q, r)) == target


def test_normalize_worked_example_one():
    e = PlanarEmbedding(parse_upoly("x"), parse_ratfun("1/x"),
                        parse_ratfun("x + 1/x"))
    chain, cert = normalize_planar(e)
    assert cert.ok
    assert [s.label for s in chain] == ["f2", "f3", "f4", "f5"]
    final = e.triple()
    for step in chain:
        final = step.apply(final)
    assert final[0] == parse_ratfun("x")
    assert final[1] == parse_ratfun("1/x")
    assert final[2].is_zero()


def test_normalize_degenerate_companion_is_not_an_embedding():
    # x -> (0, 1/x, 0) does not embed the punctured line: x lies outside
    # C[1/x], so the first witness search must fail
    e = PlanarEmbedding(parse_upoly("x"), parse_ratfun("1/x"),
                        parse_ratfun("0"))
    with pytest.raises(WitnessNotFoundError):
        normalize_planar(e)


def test_normalize_with_linear_companion():
    e = PlanarEmbedding(parse_upoly("x"), parse_ratfun("1/x"),
                        parse_ratfun("x"))
    chain, cert = normalize_planar(e)
    assert cert.ok


def test_normalize_worked_example_two_points():
    e = PlanarEmbedding(parse_upoly("x^2 - x"), parse_ratfun("1/(x^2 - x)"),
                        parse_ratfun("x"))
    chain, cert = normalize_planar(e)
    assert cert.ok


def test_every_chain_step_has_two_sided_inverse():
    e = PlanarEmbedding(parse_upoly("x^2 - x"), parse_ratfun("1/(x^2 - x)"),
                        parse_ratfun("x"))
    chain, _ = normalize_planar(e)
    ident = tuple(poly3_var(v) for v in POLY3_VARS)
    for step in chain:
        assert tuple(f.substitute(step.inverse) for f in step.forward) == ident
        assert tuple(f.substitute(step.forward) for f in step.inverse) == ident


@pytest.mark.parametrize("P, Q, R, error, match", [
    ("0", "x", "x", ZeroPolynomialError, "P must be nonzero"),
    ("x^2", "1/x", "x", DegenerateParamsError, "is not squarefree"),
    ("x", "x", "1/(x - 1)", DegenerateParamsError,
     "R has a pole away from the removed points"),
])
def test_planar_embedding_checks_its_data(P, Q, R, error, match):
    with pytest.raises(error, match=match):
        PlanarEmbedding(parse_upoly(P), parse_ratfun(Q), parse_ratfun(R))


def test_aut3_rejects_wrong_inverse():
    X, Y, Z = (poly3_var(v) for v in "XYZ")
    with pytest.raises(DegenerateParamsError):
        Aut3((X + Y, Y, Z), (X + Y, Y, Z))


_small = st.integers(-3, 3)


@st.composite
def elementary_steps(draw):
    X, Y, Z = poly3_identity()
    kind = draw(st.sampled_from(["shear", "mix", "swap"]))
    if kind == "shear":   # (X + a(Y, Z), Y, Z)
        a = MPoly(POLY3_VARS, {(0, i, j): draw(_small)
                               for i in range(3) for j in range(3 - i)})
        return Aut3((X + a, Y, Z), (X - a, Y, Z), label="shear")
    if kind == "mix":     # (X, aY + bZ, Z), a != 0
        a = as_cyc(draw(_small.filter(bool)))
        b = as_cyc(draw(_small))
        return Aut3((X, a * Y + b * Z, Z),
                    (X, a.inverse() * Y - a.inverse() * b * Z, Z),
                    label="mix")
    i, j = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    swapped = [X, Y, Z]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return Aut3(tuple(swapped), tuple(swapped), label="swap")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(elementary_steps(), max_size=5))
def test_compose_chain_returns_two_sided_inverses(chain):
    # composites of two-sided inverses are two-sided inverses, which is why
    # compose_chain checks only the composite it returns
    out = compose_chain(chain)
    ident = poly3_identity()
    assert poly3_compose(out.forward, out.inverse) == ident
    assert poly3_compose(out.inverse, out.forward) == ident
    applied = ident
    for step in chain:
        applied = step.apply(applied)
    assert out.forward == applied


def random_embedding(rng, P):
    s_deg = rng.randint(0, 2)
    s = UPoly([rng.randint(-2, 2) for _ in range(s_deg + 1)])
    one_over_p = URatFun(UPoly.const(1), P)
    q = one_over_p + URatFun(s)
    t_deg = rng.randint(0, 2)
    t_coeffs = [rng.randint(-2, 2) for _ in range(t_deg + 1)]
    t_poly = UPoly(t_coeffs)
    r = URatFun.x() + (t_poly.compose(q) if not t_poly.is_zero()
                       else URatFun.const(0))
    return PlanarEmbedding(P, q, r)


def test_equivalence_of_random_planar_pairs():
    rng = random.Random(77)
    P = parse_upoly("x^2 - x")
    done = 0
    while done < 5:
        e1 = random_embedding(rng, P)
        e2 = random_embedding(rng, P)
        aut, cert = connect_planar(e1, e2)
        assert cert.ok
        image = aut.apply(e1.triple())
        assert all(u == v for u, v in zip(image, e2.triple()))
        back = Aut3(aut.inverse, aut.forward)
        image = back.apply(e2.triple())
        assert all(u == v for u, v in zip(image, e1.triple()))
        done += 1


def _reference_chain(a, b):
    a, b = as_cyc(a), as_cyc(b)
    X, Y, Z = (poly3_var(v) for v in "XYZ")
    f1 = (Z, Y, X)
    f2 = (X + Y + 2 - Y * Z * Z, Y, Z)
    f3 = (X, a * Y + b * Z, Z)
    inner = ((b + (a - b) * X) * (Y - a * X + 2 * a)
             - (a - b) * (a - b) * MPoly.const(POLY3_VARS, 1))
    f4 = (X, Y, Z - (a * b).inverse() * (inner * (1 + X)))
    f5 = (X, Z, Y - a * X + 2 * a + a * Z + (b - a) * X * Z)
    F = f1
    for step in (f2, f3, f4, f5):
        F = tuple(g.substitute(F) for g in step)
    return F


def test_reference_extension_identity():
    # the reference five-map chain with the first nondegenerate sample (a, b)
    tau = parse_ratfun_triple("x; 1/(x^2 - x); 0")
    rho = Moebius(0, 1, -1, 1)
    F = _reference_chain(1, 1)
    cert = verify_extension(F, tau, rho)
    assert cert.ok
    F = _reference_chain(2, 3)
    assert verify_extension(F, tau, rho).ok


def test_extension_identity_trivial_and_mutated():
    tau = parse_ratfun_triple("x; 1/(x^2 - x); 0")
    ident = tuple(poly3_var(v) for v in POLY3_VARS)
    assert verify_extension(ident, tau, Moebius.identity()).ok
    F = _reference_chain(2, 3)
    bad = (F[0], F[1], F[2] + poly3_var("X"))
    cert = verify_extension(bad, tau, Moebius(0, 1, -1, 1))
    assert not cert.ok
    assert any("residual" in cl.witness for cl in cert.clauses if not cl.ok)


def test_extension_rejects_pole_set_violation():
    tau = parse_ratfun_triple("x; 1/(x^2 - x); 0")
    ident = tuple(poly3_var(v) for v in POLY3_VARS)
    shift = Moebius(1, 5, 0, 1)  # x -> x + 5 moves the poles
    cert = verify_extension(ident, tau, shift)
    assert not cert.clauses[0].ok


def test_verify_extension_bounds_the_substitution():
    tau = parse_ratfun_triple("x; 1/(x^2 - 2); 1/(x - 3)")
    ident = tuple(poly3_var(v) for v in POLY3_VARS)
    for F in ((parse_poly3("Y^49*Z^22"), ident[1], ident[2]),     # D = 120
              (parse_poly3("(X + Y + Z + 1)^8"), ident[1], ident[2])):
        assert not verify_extension(F, tau, Moebius.identity()).ok
    for F, match in (((ident[0], parse_poly3("Y^49*Z^23"), ident[2]),
                      "component 2 of F implies degree D = 121 over T = 1"),
                     ((parse_poly3("(X + Y + Z + 1)^9"), ident[1], ident[2]),
                      "component 1 of F implies degree D = 36 over T = 220")):
        with pytest.raises(InputBoundError, match=match):
            verify_extension(F, tau, Moebius.identity())

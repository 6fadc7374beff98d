import gc
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from equicurve.cyclotomic import CycNum, euler_phi, root_of_unity
from equicurve.embed3 import (
    EmbeddingA3,
    _orbit_den,
    affine_line_embedding,
    build_embedding,
    closed_form_pair,
    from_quadric,
    preset_family,
    punctured_line_embedding,
    rep3,
    standard_group,
    to_quadric,
    verify_embedding,
    verify_quadric_equivariance,
)
from equicurve.equivariant import EndoPair, contract, orbit_polynomial
from equicurve.errors import (
    DegenerateParamsError,
    NotOnQuadricError,
    NotSquarefreeError,
    OnDiagonalError,
)
from equicurve.parsing import parse_hpoly
from equicurve.poly import HPoly2
from equicurve.projline import Moebius, P1Point, orbit_decompose
from oracles import orbit_term_three_gcds, rep3_eq, rep3_mul

W = root_of_unity(3)
I4 = root_of_unity(4)
INF = P1Point.infinity()


def pt(v):
    return P1Point(CycNum(v) if not isinstance(v, CycNum) else v, 1)


def rand_point(rng):
    pool = [0, 1, -1, 2, 3, -2, 5, CycNum(1) / 2, W, I4, 1 + W, 2 * I4]
    v = pool[rng.randrange(len(pool))]
    if rng.random() < 0.1:
        return INF
    return pt(v)


def test_iota_reference_values():
    assert to_quadric(INF, P1Point(0, 1)) == (CycNum(1), CycNum(0), CycNum(0))
    assert to_quadric(P1Point(0, 1), INF) == (CycNum(-1), CycNum(0), CycNum(0))
    with pytest.raises(OnDiagonalError):
        to_quadric(pt(3), pt(3))


def test_iota_lands_on_quadric_200_random_pairs():
    rng = random.Random(42)
    done = 0
    while done < 200:
        p, q = rand_point(rng), rand_point(rng)
        if p == q:
            continue
        x, y, z = to_quadric(p, q)
        assert y * z == x * x - 1
        done += 1


def test_iota_inverse_round_trip():
    rng = random.Random(43)
    assert from_quadric((1, 0, 0)) == (INF, P1Point(0, 1))
    assert from_quadric((-1, 0, 0)) == (P1Point(0, 1), INF)
    done = 0
    while done < 50:
        p, q = rand_point(rng), rand_point(rng)
        if p == q:
            continue
        xyz = to_quadric(p, q)
        assert from_quadric(xyz) == (p, q)
        assert to_quadric(*from_quadric(xyz)) == xyz
        done += 1
    with pytest.raises(NotOnQuadricError):
        from_quadric((2, 1, 1))


def test_rep3_examples():
    ident = rep3(Moebius.identity())
    assert rep3_eq(ident, tuple(CycNum(1 if i % 4 == 0 else 0) for i in range(9)))
    swap = rep3(Moebius(0, 1, 1, 0))
    assert rep3_eq(swap, tuple(CycNum(v) for v in (-1, 0, 0, 0, 0, -1, 0, -1, 0)))


def test_rep3_scale_invariance():
    rng = random.Random(44)
    for _ in range(20):
        entries = [rng.randint(-4, 4) for _ in range(4)]
        if not (entries[0] * entries[3] - entries[1] * entries[2]):
            continue
        lam = CycNum(rng.choice([2, 3, -1, 5])) * root_of_unity(
            rng.choice([1, 3, 4]), 1)
        g = Moebius(*entries)
        scaled = tuple(lam * CycNum(e) for e in entries)
        a, b, c, d = scaled
        det = a * d - b * c
        s = det.inverse()
        direct = (s * (a * d + b * c), s * (a * c), s * (b * d),
                  s * (2 * a * b), s * (a * a), s * (b * b),
                  s * (2 * c * d), s * (c * c), s * (d * d))
        assert rep3_eq(rep3(g), direct)


def test_rep3_homomorphism_exhaustive_small_groups():
    for h in (standard_group("cyclic", 6),
              standard_group("dihedral", 3),
              standard_group("tetrahedral")):
        mats = {i: rep3(g) for i, g in enumerate(h.elements)}
        for i, gi in enumerate(h.elements):
            for j, gj in enumerate(h.elements):
                prod = gi * gj
                k = next(k for k, e in enumerate(h.elements) if e == prod)
                assert rep3_eq(rep3_mul(mats[i], mats[j]), mats[k])


def test_rep3_preserves_quadratic_form():
    # Gram matrix of x^2 - yz
    half = CycNum(1) / 2
    q = (CycNum(1), CycNum(0), CycNum(0),
         CycNum(0), CycNum(0), -half,
         CycNum(0), -half, CycNum(0))
    for h in (Moebius(0, 1, 1, 0), Moebius(W, 0, 0, 1), Moebius(I4, I4, 1, -1),
              Moebius(2, 1, 1, 1)):
        m = rep3(h)
        mt = tuple(m[3 * j + i] for i in range(3) for j in range(3))
        assert rep3_eq(rep3_mul(rep3_mul(mt, q), m), q)


def test_quadric_equivariance_symbolic():
    assert verify_quadric_equivariance(Moebius.identity()).ok
    assert verify_quadric_equivariance(Moebius(0, 1, 1, 0)).ok
    rng = random.Random(45)
    z12 = root_of_unity(12)
    done = 0
    while done < 20:
        entries = [z12 ** rng.randrange(12) * rng.randint(-2, 2)
                   for _ in range(4)]
        a, b, c, d = entries
        if not (a * d - b * c):
            continue
        assert verify_quadric_equivariance(Moebius(a, b, c, d)).ok
        done += 1


def test_cyclic_preset_components_match_reference_display():
    # one orbit (a, b): x-component (a x^n - b y^n)/(a x^n + b y^n),
    # y-component -2 b x y^(n-1)/(a x^n + b y^n), z-component
    # 2 a x^(n-1) y/(a x^n + b y^n)
    for n, a, b in ((2, 1, -1), (3, 2, 5), (4, 1, 3)):
        fam = preset_family("cyclic", n, [(a, b)])
        assert fam.certificate.ok
        den = parse_hpoly(f"({a})*x^{n} + ({b})*y^{n}")
        lead = den.lead().inverse()
        num_x = parse_hpoly(f"({a})*x^{n} - ({b})*y^{n}")
        num_y = parse_hpoly(f"-2*({b})*x*y^{n-1}")
        emb = fam.embedding
        assert emb.den == den.scale(lead)
        assert emb.nums[0] == num_x.scale(lead)
        assert emb.nums[1] == num_y.scale(lead)
        assert emb.nums[2] == parse_hpoly(f"2*({a})*x^{n-1}*y").scale(lead)


def test_dihedral_preset_identity_and_components():
    fam = preset_family("dihedral", 2, [(1, 3)])
    assert fam.certificate.ok
    p = parse_hpoly("x^4 + 6*x^2*y^2 + y^4")
    o = fam.orbits[0]
    assert o.p == p
    assert contract(o.pair) == p * p
    emb = fam.embedding
    assert emb.nums[0] == parse_hpoly("x^4 - y^4")
    assert emb.den == p


def test_tetrahedral_preset_reference_pair():
    p, P, pair = closed_form_pair("tetrahedral", None, 0, 1)
    assert pair.f1 == parse_hpoly("-11*x^8*y^3 - 22*x^4*y^7 + y^11")
    assert pair.f2 == parse_hpoly("-x^11 + 22*x^7*y^4 + 11*x^3*y^8")
    assert contract(pair) == parse_hpoly(
        "x^12 - 33*x^8*y^4 - 33*x^4*y^8 + y^12")
    assert contract(pair) == P == p


def test_preset_rejects_degenerate_parameters():
    with pytest.raises(DegenerateParamsError):
        preset_family("cyclic", 3, [(0, 0)])
    with pytest.raises(NotSquarefreeError):
        preset_family("tetrahedral", None, [(1, 0)])
    with pytest.raises(DegenerateParamsError):
        preset_family("cyclic", 3, [(1, 2), (2, 4)])  # same orbit twice


def test_orbit_forms_sharing_a_root_raise_the_preset_error():
    # both forms are unions of orbits of x -> -x and share the orbit {1, -1}
    h = standard_group("cyclic", 2)
    p = parse_hpoly("x^2 - y^2")
    q = p * parse_hpoly("x^2 - 4*y^2")
    with pytest.raises(DegenerateParamsError,
                       match="^orbit forms 1 and 2 share a root$"):
        build_embedding(h, orbit_polys=[p, q])


def test_tetrahedral_multiplicity_override():
    fam = preset_family("tetrahedral", None, [(1, 0)], require_squarefree=False)
    assert fam.certificate.ok
    assert fam.embedding.lambda_poly == parse_hpoly("x^5*y - x*y^5")


def test_preset_vs_generic_pipeline_cross_check():
    # same removed set, both construction paths pass all verifications
    lam = [pt(1), P1Point(W, 1), P1Point(W * W, 1)]
    h = standard_group("cyclic", 3)
    emb, cert = build_embedding(h, points=lam)
    assert cert.ok
    fam = preset_family("cyclic", 3, [(1, -1)])
    assert fam.certificate.ok
    assert fam.embedding.lambda_poly == emb.lambda_poly


def test_build_embedding_multi_orbit():
    h = standard_group("cyclic", 2)
    lam = [pt(1), pt(-1), P1Point(0, 1), INF, pt(2), pt(-2)]
    emb, cert = build_embedding(h, points=lam)
    assert cert.ok
    assert emb.lambda_poly.degree == 6


def test_corrupted_embedding_fails():
    fam = preset_family("cyclic", 2, [(1, -1)])
    emb = fam.embedding
    bad_nums = (emb.nums[0] + parse_hpoly("x^2"), emb.nums[1], emb.nums[2])
    broken = EmbeddingA3(emb.group, emb.lambda_poly,
                         bad_nums, emb.den, emb.orbit_dens, emb.reps,
                         emb.orbits, emb.selfmap)
    cert = verify_embedding(broken)
    assert not cert.ok
    assert any(cl.witness for cl in cert.clauses if not cl.ok)


def test_special_case_affine_line():
    tau, action, cert = affine_line_embedding()
    assert cert.ok
    with pytest.raises(DegenerateParamsError):
        action(0, 1)


def test_special_case_punctured_line():
    tau, scaling, inversion, cert = punctured_line_embedding()
    assert cert.ok
    # reference instances: scaling by 2 and the plain inversion
    t = tau[0]
    mapped = [f.substitute(tau) for f in scaling(2)]
    assert mapped[0] == 2 * t
    mapped = [f.substitute(tau) for f in inversion(1)]
    assert mapped[0] == 1 / t and mapped[1] == t


@st.composite
def _orbit_pairs(draw):
    """Pairs (c f1, c f2) over Q, Q(i) or Q(zeta_3) with a common factor c
    of degree 0 to 2; one component may be zero."""
    m = draw(st.sampled_from((1, 4, 3)))
    coeffs = st.lists(st.integers(-3, 3), min_size=euler_phi(m),
                      max_size=euler_phi(m)).map(
        lambda cs: CycNum.from_coeffs(m, [Fraction(v) for v in cs]))

    def form(degree):
        return HPoly2(degree, {i: draw(coeffs) for i in range(degree + 1)})

    d = draw(st.integers(0, 3))
    f1, f2 = form(d), form(d)
    c = form(draw(st.integers(0, 2)))
    assume(c)
    pair = EndoPair(f1 * c, f2 * c)
    assume(HPoly2.term(1, 1, 0) * pair.f2 != HPoly2.term(1, 0, 1) * pair.f1)
    return pair


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_orbit_pairs())
def test_orbit_term_matches_the_three_gcd_reference(pair):
    # the embedding keeps only the denominator of each orbit term
    got, want = _orbit_den(pair), orbit_term_three_gcds(pair)[3]
    assert got == want
    assert str(got) == str(want)


def _orbit_of(h, p):
    return sorted({g.apply(p) for g in h.elements}, key=str)


def test_points_and_orbit_polynomials_give_the_same_embedding():
    cases = [
        (standard_group("tetrahedral"), [P1Point(0, 1)]),
        (standard_group("dihedral", 3), [pt(2), P1Point(0, 1)]),
        (standard_group("cyclic", 4), [pt(1), pt(3), INF]),
    ]
    for h, seeds in cases:
        pts = [q for s in seeds for q in _orbit_of(h, s)]
        emb, cert = build_embedding(h, points=pts)
        polys = [orbit_polynomial(o) for o in orbit_decompose(h, pts)]
        emb2, cert2 = build_embedding(h, orbit_polys=polys)
        assert cert.ok and cert2.ok
        assert emb.nums == emb2.nums and emb.den == emb2.den
        assert emb.lambda_poly == emb2.lambda_poly
        assert cert.clauses == cert2.clauses


def test_tetrahedral_embedding_leaves_no_reference_cycles():
    # every intermediate table is freed by reference counting alone, so a
    # long run keeps no garbage waiting for the cyclic collector
    h = standard_group("tetrahedral")
    gc.collect()
    gc.disable()
    try:
        emb, cert = build_embedding(h, points=_orbit_of(h, P1Point(0, 1)))
        fam = preset_family("tetrahedral", None, [(0, 1)])
        assert cert.ok and fam.certificate.ok
        assert gc.collect() == 0
    finally:
        gc.enable()

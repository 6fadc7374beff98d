"""Group laws of the two 2x2 matrix kinds, Moebius (PGL(2)) and SL2Elem
(SL(2)), with entries from Q, Q(i) and Q(zeta_3): associativity, the
identity, inverses, equality and hash across stored conductors, and the
projection SL(2) -> PGL(2)."""
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from equicurve.cyclotomic import CycNum, euler_phi, root_of_unity
from equicurve.projline import Moebius, SL2Elem

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
# a common multiple of every conductor the entries can reach (3, 4 and 12)
BIG = 24


@st.composite
def scalars(draw, nonzero=False):
    m = draw(st.sampled_from((1, 4, 3)))
    cs = draw(st.lists(st.integers(-3, 3), min_size=euler_phi(m),
                       max_size=euler_phi(m)))
    v = CycNum.from_coeffs(m, [Fraction(c) for c in cs])
    return v if v or not nonzero else CycNum(1)


@st.composite
def moebius(draw):
    a, b, c, d = (draw(scalars()) for _ in range(4))
    assume(a * d - b * c)
    return Moebius(a, b, c, d)


@st.composite
def sl2(draw):
    """A product of unipotent and diagonal generators of SL(2)."""
    g = SL2Elem.identity()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("upper", "lower", "diagonal")))
        if kind == "diagonal":
            u = draw(scalars(nonzero=True))
            g = g * SL2Elem(u, 0, 0, u.inverse())
        else:
            t = draw(scalars())
            g = g * (SL2Elem(1, t, 0, 1) if kind == "upper" else
                     SL2Elem(1, 0, t, 1))
    return g


elements = st.one_of(moebius(), sl2())


def tuples_of_one_kind(n):
    return st.one_of(st.tuples(*[moebius()] * n), st.tuples(*[sl2()] * n))


@PROPERTY
@given(tuples_of_one_kind(3))
def test_product_is_associative(ghk):
    g, h, k = ghk
    assert (g * h) * k == g * (h * k)


@PROPERTY
@given(elements)
def test_identity_and_inverse(g):
    one = type(g).identity()
    assert one * g == g and g * one == g
    assert g * g.inverse() == one and g.inverse() * g == one
    assert g.inverse().inverse() == g


@PROPERTY
@given(tuples_of_one_kind(2))
def test_inverse_of_a_product(gh):
    g, h = gh
    assert (g * h).inverse() == h.inverse() * g.inverse()


@PROPERTY
@given(elements)
def test_equal_values_at_other_conductors_hash_equal(g):
    lifted = type(g)(*(v.embedded(BIG) for v in g.entries()))
    if isinstance(g, Moebius):
        # a leading 1 keeps the entries as given, so they stay at BIG
        assert all(v.m == BIG for v in lifted.entries())
    assert lifted == g and hash(lifted) == hash(g)
    assert len({g, lifted, g * g}) == (1 if g * g == g else 2)


@PROPERTY
@given(sl2(), sl2())
def test_projection_is_a_homomorphism(g, h):
    assert isinstance(g.project(), Moebius)
    assert (g * h).project() == g.project() * h.project()
    assert g.inverse().project() == g.project().inverse()
    assert -g != g and (-g).project() == g.project()


@PROPERTY
@given(sl2())
def test_minus_identity_is_central(g):
    minus = -SL2Elem.identity()
    assert minus.entries() == (-1, 0, 0, -1)
    assert minus * g == g * minus == -g != g
    assert minus * minus == SL2Elem.identity()
    assert minus.project() == Moebius.identity()


def test_moebius_rescaling_reduces_the_entries():
    # the first nonzero entry becomes 1, and a rescaled entry is stored over
    # its minimal conductor (unscaled ones keep theirs; see test_projline)
    i = root_of_unity(4)
    g = Moebius(0, i, 2 * i, 3 * i)
    assert g.entries() == (0, 1, 2, 3)
    assert [v.m for v in g.entries()] == [1, 1, 1, 1]

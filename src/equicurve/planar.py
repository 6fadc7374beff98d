"""Normalization of planar embeddings in A^3 and extension verification.

A planar embedding x -> (0, Q(x), R(x)) of the curve A^1 minus the roots
of a squarefree P is carried to the normal form x -> (x, 1/P(x), 0) by an
explicit chain of four automorphisms of A^3, each with an exact inverse.
The witnesses (bivariate polynomials expressing one generator of the
coordinate ring in terms of two others) are found by bounded-degree exact
linear algebra and re-verified independently of the solver.
"""
from __future__ import annotations

from itertools import zip_longest
from math import lcm

from .certificates import Certificate
from .cyclotomic import (_check_cap, _mul_rows, _normal, _widen, as_cyc,
                         euler_phi)
from .errors import (
    DegenerateParamsError,
    InputBoundError,
    PoleConditionError,
    WitnessNotFoundError,
    ZeroPolynomialError,
)
from .linalg import solve_linear
from .poly import (
    MPoly,
    UPoly,
    URatFun,
    HPoly2,
    POLY3_VARS,
    _over_common_denominator,
    poly3_compose,
    poly3_identity,
)
from .projline import Moebius

# bounds on substituting tau into a component of F with T terms, checked
# before any product: D bounds the degree of the numerator and the common
# denominator of the result, and of the residual whose gcd a failing check
# prints (at D = 120 the slowest input tried, a tau over Q(zeta_20) with
# 9-digit coefficients whose denominators share a quadratic, printed its
# residual in 2.4 s, and large-height rational or Q(zeta_5) tau in 1.0-1.3
# s, on a 2-vCPU VM, Python 3.11); T * D^2 estimates the coefficient
# products of the substitution
MAX_SUBSTITUTION_DEGREE = 120
MAX_SUBSTITUTION_WORK = 2 ** 18
# the largest witness degree cap: the search solves one linear system per
# degree up to the cap.  For (Q, R) = (x^2, x^3 + x^2), which cannot
# generate x, "planar-normalize --P x" took 0.12, 0.16 and 0.22 s at caps
# 12, 18 and 24, and 0.22, 0.59 and 1.5 s with Q = zeta_5 x^2 (medians of
# 3 whole commands on a 2-vCPU VM, Python 3.11)
MAX_WITNESS_DEGREE = 24


class Aut3:
    """Automorphism of A^3 with an explicit two-sided inverse witness.

    Construction evaluates forward o inverse and inverse o forward and
    compares both with the identity, so every Aut3 a caller receives has
    been checked both ways, once, when it was built.
    """

    __slots__ = ("forward", "inverse", "label")

    def __init__(self, forward: tuple[MPoly, MPoly, MPoly],
                 inverse: tuple[MPoly, MPoly, MPoly], label: str = ""):
        ident = poly3_identity()
        if not (poly3_compose(forward, inverse) == ident and
                poly3_compose(inverse, forward) == ident):
            raise DegenerateParamsError(
                f"forward and inverse are not mutually inverse ({label})")
        self.forward = forward
        self.inverse = inverse
        self.label = label

    def apply(self, triple):
        return poly3_compose(self.forward, triple)


def _compose(steps: list) -> Aut3:
    # steps are (forward, inverse, label) applied left to right; composites
    # of two-sided inverses are two-sided inverses, so no prefix is checked,
    # and the Aut3 built at the end checks the composite once
    forward, inverse = steps[0][:2] if steps else (poly3_identity(),) * 2
    for f, g, _ in steps[1:]:
        forward = poly3_compose(f, forward)
        inverse = poly3_compose(inverse, g)
    return Aut3(forward, inverse,
                " o ".join(label for *_, label in reversed(steps)) or "id")


def compose_chain(chain: list[Aut3]) -> Aut3:
    """Compose a chain applied left to right (chain[0] first).

    The mutual-inverse identity is evaluated once, on the composite
    returned (by :class:`Aut3`); each step was checked when it was built.
    """
    return _compose([(s.forward, s.inverse, s.label) for s in chain])


class PlanarEmbedding:
    """x -> (0, Q(x), R(x)) on the curve A^1 minus the roots of P.

    P must be squarefree and Q, R pole-free on the curve.  Whether (Q, R)
    generate the full coordinate ring is decided during normalization;
    failure there raises WitnessNotFoundError.
    """

    __slots__ = ("P", "Q", "R")

    def __init__(self, P: UPoly, Q: URatFun, R: URatFun):
        if P.is_zero():
            raise ZeroPolynomialError("P must be nonzero")
        if P.squarefree_part().degree != P.monic().degree:
            raise DegenerateParamsError(f"P = {P} is not squarefree")
        for name, f in (("Q", Q), ("R", R)):
            if f.den.degree > 0:
                sf = f.den.squarefree_part()
                if not (P % sf).is_zero():
                    raise DegenerateParamsError(
                        f"{name} has a pole away from the removed points")
        self.P = P
        self.Q = Q
        self.R = R

    def triple(self):
        return (URatFun.const(0), self.Q, self.R)


def subalgebra_witness(target: URatFun, gens: tuple[URatFun, URatFun],
                       degree_cap: int = 12,
                       variables: tuple[str, str] = ("Y", "Z")) -> MPoly | None:
    """Bivariate A with A(gens[0], gens[1]) = target, minimal total degree.

    For each degree the linear system from clearing denominators is solved
    exactly; free variables are zeroed, so the answer is deterministic.
    Each solution is re-checked by substituting it, independently of the
    solver, and only a witness that passes is returned.
    Returns None when the cap is reached, which signals either a too-small
    cap or a genuine subalgebra gap; a cap above ``MAX_WITNESS_DEGREE``
    raises :class:`InputBoundError` before any system is solved.
    """
    if degree_cap > MAX_WITNESS_DEGREE:
        raise InputBoundError(f"witness degree cap {degree_cap} exceeds "
                              f"{MAX_WITNESS_DEGREE}")
    q, r = gens
    bases = (q.num, q.den, r.num, r.den)   # one more power of each per degree
    powers = tuple([UPoly.const(1)] for _ in bases)
    q1_p, q2_p, r1_p, r2_p = powers
    for d in range(1, degree_cap + 1):
        for table, base in zip(powers, bases):
            table.append(table[-1] * base)
        monos = [(i, j) for tot in range(d + 1)
                 for i in range(tot + 1) for j in (tot - i,)]
        cols = [q1_p[i] * q2_p[d - i] * r1_p[j] * r2_p[d - j] * target.den
                for i, j in monos]
        rhs = target.num * q2_p[d] * r2_p[d]
        m = lcm(rhs.m, *(c.m for c in cols))
        _check_cap(m)   # no single product may have joined all the fields
        phi = euler_phi(m)
        # over Q(zeta_m) each unknown is written in the power basis: its
        # k-th rational coordinate multiplies the numerators of c * zeta^k
        units = [[int(i == k) for i in range(phi)] for k in range(phi)]
        expanded = [c.nums for c in cols] if phi == 1 else [
            _mul_rows(wide, phi, u, phi, m)
            for wide in (_widen(c.nums, c.m, m) for c in cols) for u in units]
        system = list(zip_longest(*expanded, _widen(rhs.nums, rhs.m, m),
                                  fillvalue=0))
        sol = solve_linear([r[:-1] for r in system], [r[-1] for r in system])
        if sol is None:
            continue
        # the coordinates solved for are over den(c) / den(rhs), so both
        # denominators fold into the one value built per unknown
        nums, den = sol
        witness = MPoly(variables, {
            mono: _normal(m if any(row[1:]) else 1,
                          [v * c.den for v in row], den * rhs.den)
            for mono, c, row in zip(monos, cols, zip(*[iter(nums)] * phi))})
        # soundness re-check, independently of the solver
        if witness.substitute((q, r)) == target:
            return witness
    return None


_AB_SAMPLES = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 3), (3, 2), (1, 2),
               (2, -1), (5, 7), (3, -4), (7, 2), (4, 9)]


def normalize_planar(e: PlanarEmbedding, degree_cap: int = 12):
    """The four-step chain carrying x -> (0, Q, R) onto x -> (x, 1/P, 0).

    Returns (chain, certificate).  The chain is applied left to right; the
    affine repositioning into the (0, Q, R) form is the caller's business.
    """
    X, Y, Z = poly3_identity()
    x = URatFun.x()
    cert = Certificate("planar normalization")

    # a witness is returned only once its substitution has been re-checked,
    # so each witness clause records the outcome of that one re-check
    A = subalgebra_witness(x, (e.Q, e.R), degree_cap, ("Y", "Z"))
    if not cert.check("witness A(Q, R) = x verified", A is not None):
        raise WitnessNotFoundError(
            f"no witness A(Q, R) = x within degree {degree_cap}: "
            f"(Q, R) may not generate the coordinate ring")
    a_poly3 = A.rename(POLY3_VARS, ("Y", "Z"))
    f2 = Aut3((X + a_poly3, Y, Z), (X - a_poly3, Y, Z), label="f2")

    # the divisibility that picks (a, b) is the value the clause records
    for (a, b) in _AB_SAMPLES:
        if a == 0:
            continue  # (X, aY+bZ, Z) must stay invertible
        qprime = as_cyc(a) * e.Q + as_cyc(b) * e.R
        poles = qprime.den.degree > 0 and (qprime.den % e.P.monic()).is_zero()
        if poles:
            break
    else:
        raise PoleConditionError(
            "no sampled (a, b) makes every root of P a pole of aQ + bR")
    a, b = as_cyc(a), as_cyc(b)
    ainv = a.inverse()
    f3 = Aut3((X, a * Y + b * Z, Z), (X, ainv * Y - ainv * b * Z, Z),
              label="f3")
    cert.check(f"pole condition holds for (a, b) = ({a}, {b})", poles)

    q1, q2 = qprime.num, qprime.den
    g, u, v = q1.xgcd(e.P.monic())
    cert.check("gcd(Q1, P) = 1 (Bezout identity verified)",
               g.degree == 0 and (u * q1 + v * e.P.monic()) == g)

    one_over_p = URatFun(UPoly.const(1), e.P)
    target_b = one_over_p - e.R
    B = subalgebra_witness(target_b, (x, qprime), degree_cap, ("X", "Y"))
    if not cert.check("witness B(x, Q') = 1/P - R verified", B is not None):
        raise WitnessNotFoundError(
            f"no witness B(x, Q') = 1/P - R within degree {degree_cap}")
    b_poly3 = B.rename(POLY3_VARS, ("X", "Y"))
    f4 = Aut3((X, Y, Z + b_poly3), (X, Y, Z - b_poly3), label="f4")

    C = subalgebra_witness(qprime, (x, one_over_p), degree_cap, ("X", "Z"))
    if not cert.check("witness C(x, 1/P) = Q' verified", C is not None):
        raise WitnessNotFoundError(
            f"no witness C(x, 1/P) = Q' within degree {degree_cap}")
    c_y = C.rename(POLY3_VARS, ("X", "Y"))
    c_z = C.rename(POLY3_VARS, ("X", "Z"))
    f5 = Aut3((X, Z, Y - c_z), (X, Z + c_y, Y), label="f5")

    chain = [f2, f3, f4, f5]
    final = e.triple()
    for step in chain:
        final = step.apply(final)
    normal = (x, one_over_p, URatFun.const(0))
    cert.check("chain lands on the normal form (x, 1/P, 0)",
               all(f == n for f, n in zip(final, normal)),
               witness="; ".join(str(f) for f in final))
    return chain, cert


def connect_planar(e1: PlanarEmbedding, e2: PlanarEmbedding,
                   degree_cap: int = 12):
    """An explicit automorphism of A^3 carrying e1 onto e2 (same curve).

    Composes chain(e1), then the steps of chain(e2) in reverse with forward
    and inverse swapped, as one chain: the mutual-inverse identity is
    evaluated once, on the composite returned.  Returns (automorphism,
    certificate).
    """
    if e1.P.monic() != e2.P.monic():
        raise DegenerateParamsError("the two embeddings remove different points")
    chain1, c1 = normalize_planar(e1, degree_cap)
    chain2, c2 = normalize_planar(e2, degree_cap)
    total = _compose([(s.forward, s.inverse, s.label) for s in chain1]
                     + [(s.inverse, s.forward, f"{s.label}^-1")
                        for s in reversed(chain2)])
    cert = Certificate("equivalence of two planar embeddings")
    cert.check("both normalizations succeeded", c1.ok and c2.ok)
    image = total.apply(e1.triple())
    cert.check("composite carries the first embedding onto the second",
               all(u == v for u, v in zip(image, e2.triple())))
    return total, cert


def verify_extension(forward: tuple[MPoly, MPoly, MPoly],
                     tau: tuple[URatFun, URatFun, URatFun],
                     phi: Moebius) -> Certificate:
    """Exact identity F(tau(phi(x))) = tau(x) for a curve automorphism phi.

    phi must preserve the pole set of tau on P^1 (checked through the
    squarefree pole form, so roots never need to be extracted).  Raises
    :class:`InputBoundError` before any product when the substitution would
    exceed ``MAX_SUBSTITUTION_DEGREE`` or ``MAX_SUBSTITUTION_WORK``.
    """
    # phi keeps the degree of each component of tau
    tau_degrees = [max(t.num.degree, t.den.degree, 0) for t in tau]
    for i, f in enumerate(forward):
        D = sum(k * deg for k, deg in zip(f.degrees(), tau_degrees))
        if (D > MAX_SUBSTITUTION_DEGREE
                or len(f.rows) * D * D > MAX_SUBSTITUTION_WORK):
            raise InputBoundError(
                f"substituting tau into component {i + 1} of F implies degree "
                f"D = {D} over T = {len(f.rows)} terms; the bounds are "
                f"D <= {MAX_SUBSTITUTION_DEGREE} and "
                f"T * D^2 <= {MAX_SUBSTITUTION_WORK}")
    cert = Certificate("extension identity F o tau o phi = tau")
    pole = UPoly.const(1)
    infinite_pole = False
    for comp in tau:
        if comp.den.degree > 0:
            pole = pole * pole.cofactors(comp.den)[2]
        if comp.num.degree > comp.den.degree:
            infinite_pole = True
    pole_sf = pole.squarefree_part()
    pole_form = HPoly2(pole_sf.degree, pole_sf)
    if infinite_pole:
        pole_form = pole_form * HPoly2.term(1, 0, 1)
    moved = pole_form.compose_matrix(phi.inverse().entries())
    cert.check("phi preserves the pole set of tau",
               moved.squarefree_decomp()[0].normalized()
               == pole_form.squarefree_decomp()[0].normalized(),
               witness=f"pole form {pole_form}")

    a, b, c, d = phi.entries()
    phi_rf = URatFun(UPoly([b, a]), UPoly([d, c]))
    tau_phi = tuple(comp.compose(phi_rf) for comp in tau)
    images = _over_common_denominator(forward, tau_phi)
    for i, ((num, den), v) in enumerate(zip(images, tau)):
        diff = URatFun(num * v.den - v.num * den, den * v.den)
        cert.check(f"component {i + 1} residual is zero", diff.is_zero(),
                   witness=f"residual {diff}")
    return cert


"""Sparse multivariate polynomials with named variables and CycNum
coefficients (polynomial maps of A^3, witness polynomials, identity
checking), and their evaluation at shared values: the one substitution
routine behind :meth:`MPoly.substitute`, :meth:`UPoly.compose` and
:meth:`URatFun.compose` at rational functions.  :mod:`poly` re-exports the
public names.
"""
from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycNum, _power, as_cyc
from .poly import _U1, UPoly, URatFun, _fmt_terms

_C0, _C1 = CycNum(0), CycNum(1)


class MPoly:
    """Sparse multivariate polynomial with named variables."""

    __slots__ = ("vars", "c")

    def __init__(self, variables: tuple[str, ...], coeffs: dict | None = None):
        self.vars = tuple(variables)
        n = len(self.vars)
        c = {}
        for e, v in (coeffs or {}).items():
            v = as_cyc(v)
            if v:
                if len(e) != n:
                    raise ValueError("exponent arity mismatch")
                c[tuple(e)] = v
        self.c = c

    @staticmethod
    def const(variables, v) -> "MPoly":
        z = tuple(0 for _ in variables)
        return MPoly(variables, {z: as_cyc(v)})

    @staticmethod
    def var(variables, name) -> "MPoly":
        e = tuple(1 if n == name else 0 for n in variables)
        if sum(e) != 1:
            raise ValueError(f"unknown variable {name}")
        return MPoly(variables, {e: _C1})

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.c), default=-1)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        if self.vars != other.vars or set(self.c) != set(other.c):
            return False
        return all(self.c[k] == other.c[k] for k in self.c)

    __hash__ = None

    def _check(self, other: "MPoly"):
        if self.vars != other.vars:
            raise ValueError("variable sets differ")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = MPoly.const(self.vars, other)
        self._check(other)
        out = dict(self.c)
        for e, v in other.c.items():
            s = out.get(e, _C0) + v
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = MPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return MPoly.const(self.vars, other) - self

    def __neg__(self):
        return MPoly(self.vars, {e: -v for e, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            s = as_cyc(other)
            return MPoly(self.vars, {e: v * s for e, v in self.c.items()})
        self._check(other)
        out: dict[tuple, CycNum] = {}
        for e1, a in self.c.items():
            for e2, b in other.c.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                s = out.get(e, _C0) + a * b
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, MPoly.const(self.vars, 1))

    def degrees(self) -> tuple[int, ...]:
        """The degree in each variable (0 throughout for the zero polynomial)."""
        return tuple(max((e[j] for e in self.c), default=0)
                     for j in range(len(self.vars)))

    def substitute(self, values):
        """Evaluate at ring elements (CycNum, URatFun, MPoly, ...).

        At URatFun values the terms are summed over the common denominator
        prod_j den_j^(k_j), k_j the degree in variable j, by polynomial
        products only, and the sum is reduced to lowest terms once: one gcd
        per call instead of one per term and per power.
        """
        return _evaluate((self,), values)[0]

    def __str__(self) -> str:
        return _fmt_terms((self.c[e], zip(self.vars, e))
                          for e in sorted(self.c, reverse=True))

    __repr__ = __str__


POLY3_VARS = ("X", "Y", "Z")


def poly3_var(name: str) -> MPoly:
    return MPoly.var(POLY3_VARS, name)


def poly3_compose(outer, inner):
    """Component-wise substitution of one A^3 polynomial triple in another."""
    return tuple(_evaluate(outer, inner))


def poly3_identity():
    return tuple(poly3_var(n) for n in POLY3_VARS)


def _times(a, b):
    # a * b, skipping the shared constant one of the power tables
    return b if a is _U1 else a if b is _U1 else a * b


def _evaluate(polys, values) -> list:
    """Each MPoly of ``polys`` at the shared ``values``.

    At URatFun values (scalars among them are read as constants) each
    polynomial is summed over its common denominator and reduced to lowest
    terms once, see :func:`_over_common_denominator`.  At other values
    (CycNum, MPoly, ...) the powers of each value are computed once for the
    whole tuple.
    """
    values = tuple(values)
    for f in polys:
        if len(f.vars) != len(values):
            raise ValueError("wrong number of substitution values")
    if any(isinstance(v, URatFun) for v in values):
        values = tuple(v if isinstance(v, URatFun) else URatFun.const(v)
                       for v in values)
        return [URatFun(num, den)
                for num, den in _over_common_denominator(polys, values)]
    one = values[0] ** 0 if values else _C1
    pows = []
    for j, v in enumerate(values):
        table = [one, v]
        for _ in range(max((e[j] for f in polys for e in f.c), default=0) - 1):
            table.append(table[-1] * v)
        pows.append(table)

    def monomial(e):
        value = one
        for j, k in enumerate(e):
            if k:
                value = pows[j][k] if value is one else value * pows[j][k]
        return value

    out = []
    for f in polys:
        if isinstance(one, MPoly):
            acc = {}
            for e in sorted(f.c):
                c = f.c[e]
                for m, v in monomial(e).c.items():
                    s = acc.get(m, _C0) + c * v
                    if s:
                        acc[m] = s
                    else:
                        acc.pop(m, None)
            out.append(MPoly(one.vars, acc))
        else:
            total = one * 0
            for e in sorted(f.c):
                total = total + monomial(e) * f.c[e]
            out.append(total)
    return out


def _over_common_denominator(polys, values) -> list[tuple[UPoly, UPoly]]:
    """(numerator, denominator) of each MPoly f of ``polys`` at the URatFun
    ``values``, unreduced: sum_e c_e prod_j num_j^(e_j) den_j^(k_j - e_j) over
    prod_j den_j^(k_j), k_j the degree of f in variable j.

    The work is polynomial products only, no gcd; the power tables and the
    products of their entries are shared by the tuple.
    """
    degrees = [f.degrees() for f in polys]
    nums, dens = [], []
    for j, v in enumerate(values):
        top = max((ks[j] for ks in degrees), default=0)
        n, d = [_U1], [_U1]
        for _ in range(top):
            n.append(_times(n[-1], v.num))
            d.append(d[-1] if v.is_poly() else _times(d[-1], v.den))
        nums.append(n)
        dens.append(d)
    prods = {}   # (exponent prefix, degree prefix) -> product of its factors
    out = []
    for f, ks in zip(polys, degrees):
        num = UPoly()
        for e in sorted(f.c):
            term = _U1
            for j, k in enumerate(ks):
                if k:
                    key = (e[:j + 1], ks[:j + 1])
                    if key not in prods:
                        prods[key] = _times(term, _times(nums[j][e[j]],
                                                         dens[j][k - e[j]]))
                    term = prods[key]
            num = num + term * f.c[e]
        den = _U1
        for j, k in enumerate(ks):
            den = _times(den, dens[j][k])
        out.append((num, den))
    return out

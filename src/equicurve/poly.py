"""Polynomial and rational-function arithmetic over the fields Q(zeta_m).

Four shapes cover everything the constructions need:

* :class:`UPoly` - dense univariate polynomials (curve data on A^1);
* :class:`URatFun` - reduced univariate rational functions;
* :class:`HPoly2` - homogeneous bivariate polynomials, a degree plus the
  dehomogenization as a UPoly (coefficient i belongs to ``x^i y^(d-i)``);
* :class:`MPoly` - sparse multivariate polynomials with named variables
  (polynomial maps of A^3, witness polynomials, identity checking), stored
  on integer rows as UPoly is (see :mod:`mpoly`).

A UPoly stores one field, one denominator and integer numerators, as
FLINT's ``fmpq_poly`` and ``nf_elem`` do: a conductor m, a common
denominator ``den`` > 0 and the flat tuple ``nums`` of the numerators of the
coefficients in the power basis of Q(zeta_m), phi(m) per coefficient,
lowest degree first; over Q one int per coefficient.  The form is normal:
no trailing zero coefficient, gcd(den, nums) = 1, and m = 1 when every
coefficient is rational.  Sums, scaling, products (schoolbook or one bigint
product by Kronecker substitution: von zur Gathen and Gerhard, Modern
Computer Algebra, 8.4), substitutions and the images of the modular gcd run
on these integers.  A CycNum is built only where a coefficient is read:
``lead``, ``eval``, printing, division and the read-only ``c`` view.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .cyclotomic import (CycNum, _check_cap, _lift, _mul_nums, _mul_rows,
                         _normal, _power, _quotient, _reduce, _unpack, _widen,
                         _width, as_cyc, euler_phi)
from .errors import DegreeMismatchError, ZeroPolynomialError
from .linalg import solve_linear

_C0 = CycNum(0)
_SCALARS = (int, Fraction, CycNum)
# forms of higher degree are substituted by divide and conquer (of 8, 12,
# 16, 24 and 32, 12 was fastest at degrees 32 and 48 and no slower below)
_SPLIT_MIN = 12


def _fmt_terms(terms) -> str:
    """Print (coefficient, ((variable, exponent), ...)) terms in the order
    given, skipping zero coefficients and zero exponents; "0" if none."""
    parts = []
    for c, powers in terms:
        if not c:
            continue
        s = str(c)
        neg = s.startswith("-") and not s.startswith("-c")  # plain negative rational
        if neg:
            s = s[1:]
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers if e)
        if mono:
            s = mono if s == "1" else f"{s}*{mono}"
        parts.append((" - " if neg else " + ") if parts else ("-" if neg else ""))
        parts.append(s)
    return "".join(parts) or "0"


# ---------------------------------------------------------------------------
# The stored form


def _make(m: int, nums: tuple, den: int = 1) -> "UPoly":
    # trusted constructor: (m, nums, den) must already be in normal form
    out = object.__new__(UPoly)
    out.m, out.nums, out.den = m, nums, den
    return out


def _poly(m: int, nums, den: int = 1) -> "UPoly":
    """The UPoly of the numerators nums over Q(zeta_m) and den > 0, brought
    to normal form: trailing zero coefficients dropped, the common factor
    of den and nums divided out, rational coefficients stored over Q."""
    phi = euler_phi(m)
    n = len(nums)
    while n and not any(nums[n - phi:n]):
        n -= phi
    if not n:
        return _U0
    if n != len(nums):
        nums = nums[:n]
    if phi > 1:
        consts = nums[::phi]
        if nums.count(0) - consts.count(0) == n - len(consts):
            m, nums = 1, consts
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [v // g for v in nums], den // g
    return _make(m, tuple(nums), den)


def _from_values(values) -> "UPoly":
    """The UPoly with the scalar coefficients ``values``, over the field of
    the non-rational ones and the lcm of the denominators: the one place
    where CycNums enter a polynomial."""
    vs = [as_cyc(v) for v in values]
    m = lcm(1, *[v.m for v in vs if any(v.nums[1:])])
    den = lcm(1, *[v.den for v in vs])
    if m == 1:
        return _poly(1, [v.nums[0] * (den // v.den) for v in vs], den)
    _check_cap(m)
    nums = []
    for v in vs:
        row = _lift(v.nums, v.m, m) if any(v.nums[1:]) else \
            _lift(v.nums[:1], 1, m)
        s = den // v.den
        nums.extend([x * s for x in row] if s != 1 else row)
    return _poly(m, nums, den)


def _join(ma: int, mb: int) -> int:
    # the field of two operands, checked against the cap where it is new
    m = lcm(ma, mb)
    if m != ma and m != mb:
        _check_cap(m)
    return m


def _mul(a: "UPoly", b: "UPoly") -> "UPoly":
    # a * b for nonzero a and b; a rational operand keeps one numerator per
    # coefficient, so that its products need no reduction
    m = _join(a.m, b.m)
    phi = euler_phi(m)
    wa, wb = (1 if a.m == 1 else phi), (1 if b.m == 1 else phi)
    fa = _widen(a.nums, a.m, m) if wa != 1 else a.nums
    fb = _widen(b.nums, b.m, m) if wb != 1 else b.nums
    return _poly(m, _mul_rows(fa, wa, fb, wb, m), a.den * b.den)


def _plus(a: "UPoly", b: "UPoly", sign: int) -> "UPoly":
    if not b.nums:
        return a
    if not a.nums:
        return b if sign > 0 else -b
    m = _join(a.m, b.m)
    g = gcd(a.den, b.den)
    sa, sb = b.den // g, sign * (a.den // g)
    return _poly(m, [u * sa + v * sb for u, v in zip_longest(
        _widen(a.nums, a.m, m), _widen(b.nums, b.m, m), fillvalue=0)],
        a.den * sa)


class UPoly:
    """Dense univariate polynomial over Q(zeta_m), ascending by degree: the
    conductor ``m``, the common denominator ``den`` and the numerators
    ``nums``, phi(m) per coefficient (see the module docstring)."""

    __slots__ = ("m", "nums", "den")

    def __init__(self, coeffs=()):
        p = _from_values(coeffs)
        self.m, self.nums, self.den = p.m, p.nums, p.den

    @staticmethod
    def const(v) -> "UPoly":
        v = as_cyc(v)   # its normal form is the polynomial's
        if not any(v.nums[1:]):
            if v.nums[0] == v.den:   # 1, like 0, is shared
                return _U1
            return _make(1, v.nums[:1], v.den) if v.nums[0] else _U0
        return _make(v.m, v.nums, v.den)

    @staticmethod
    def x() -> "UPoly":
        return _UX

    @staticmethod
    def from_roots(roots) -> "UPoly":
        out = _U1
        for r in roots:
            out = out * UPoly([-as_cyc(r), 1])
        return out

    @property
    def c(self) -> tuple:
        """The coefficients as CycNums, ascending by degree: a new tuple on
        each access, so read it once per use."""
        m, nums, den = self.m, self.nums, self.den
        if m == 1:
            return tuple([_quotient(v, den) for v in nums])
        return tuple([_normal(m, row, den) if any(row) else _C0
                      for row in zip(*[iter(nums)] * euler_phi(m))])

    @property
    def degree(self) -> int:
        return len(self.nums) // euler_phi(self.m) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def lead(self) -> CycNum:
        if not self.nums:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return _normal(self.m, self.nums[-euler_phi(self.m):], self.den)

    def __eq__(self, other):
        # the normal form's denominator does not depend on the conductor
        if not isinstance(other, UPoly) or self.den != other.den:
            return False
        if self.m == other.m:
            return self.nums == other.nums
        m = lcm(self.m, other.m)
        return list(_widen(self.nums, self.m, m)) == \
            list(_widen(other.nums, other.m, m))

    __hash__ = None

    def __add__(self, other):
        o = _as_upoly(other)
        return NotImplemented if o is None else _plus(self, o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_upoly(other)
        return NotImplemented if o is None else _plus(self, o, -1)

    def __rsub__(self, other):
        o = _as_upoly(other)
        return NotImplemented if o is None else _plus(o, self, -1)

    def __neg__(self):
        return _make(self.m, tuple([-v for v in self.nums]), self.den)

    def __mul__(self, other):
        other = _as_upoly(other)
        if other is None:
            return NotImplemented
        if not self.nums or not other.nums:
            return _U0
        # the shared 1 (a unit denominator, UPoly.const(1)) keeps the other
        # operand itself, so a rational function's denominator is shared
        if other is _U1:
            return self
        if self is _U1:
            return other
        return _mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, _U1)

    def divmod(self, other: "UPoly"):
        """(q, r) with self = q other + r and deg r < deg other, by long
        division on the CycNum coefficients."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, divisor = list(self.c), other.c
        db = len(divisor) - 1
        inv = divisor[-1].inverse()
        q = [_C0] * max(0, len(rem) - db)
        nz = [(j, bj) for j, bj in enumerate(divisor) if bj]
        for i in range(len(rem) - 1, db - 1, -1):
            if rem[i]:
                q[i - db] = f = rem[i] * inv
                for j, bj in nz:
                    rem[i - db + j] = rem[i - db + j] - f * bj
        return UPoly(q), UPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divexact(self, other: "UPoly") -> "UPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ZeroPolynomialError("inexact polynomial division")
        return q

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        inv = self.lead().inverse()
        return self if inv == 1 else self * inv

    def derivative(self) -> "UPoly":
        phi = euler_phi(self.m)
        return _poly(self.m, [v * (k // phi + 1) for k, v in
                              enumerate(self.nums[phi:])], self.den)

    def gcd(self, other: "UPoly") -> "UPoly":
        """The monic gcd (zero if both are), as :meth:`cofactors` finds it."""
        return self.cofactors(other)[0]

    def cofactors(self, other: "UPoly"):
        """(g, self/g, other/g), g the monic gcd, by
        :func:`modular.cofactors`."""
        from .modular import cofactors   # modular imports this module
        return cofactors(self, other)

    def xgcd(self, other: "UPoly"):
        """(g, u, v) with u*self + v*other = g, g monic, as Euclid gives
        them: for the cofactors a and b of g, the one (u, v) with
        u*a + v*b = 1, deg u < deg b and deg v < deg a, solved on the
        Sylvester columns; (0, 1, 0) if both are zero."""
        g, a, b = self.cofactors(other)
        if not other.nums:
            inv = self.lead().inverse() if self.nums else 1
            return g, UPoly.const(inv), _U0
        if not self.nums or a.degree == b.degree == 0:
            return g, _U0, UPoly.const(b.lead().inverse())
        m, rows, den = solve_columns(
            [a * _UX ** i for i in range(b.degree)]
            + [b * _UX ** j for j in range(a.degree)], _U1)
        flat, k = [n for row in rows for n in row], b.degree * euler_phi(m)
        return g, _poly(m, flat[:k], den), _poly(m, flat[k:], den)

    def squarefree_part(self) -> "UPoly":
        if self.is_zero():
            raise ZeroPolynomialError("squarefree part of zero")
        return self.cofactors(self.derivative())[1].monic()

    def eval(self, v: CycNum) -> CycNum:
        out = _C0
        for coeff in reversed(self.c):
            out = out * v + coeff
        return out

    def compose(self, inner):
        """Substitute ``inner`` (UPoly or URatFun) for the variable.

        At a URatFun num/den this is the one-variable case of
        :meth:`MPoly.substitute`: for self of degree n, sum_i c_i num^i
        den^(n - i) over den^n by polynomial products only, reduced to
        lowest terms once.
        """
        if isinstance(inner, URatFun):
            return _evaluate((_from_upoly(self),), (inner,))[0]
        out = _U0
        for coeff in reversed(self.c):
            out = out * inner + UPoly.const(coeff)
        return out

    def __str__(self) -> str:
        cs = self.c
        return _fmt_terms((cs[i], (("x", i),)) for i in range(len(cs) - 1, -1, -1))

    __repr__ = __str__


# 0, 1 and x are shared, as the values kept alive (inputs, results) hold
# them often; no operation changes a UPoly or URatFun in place
_U0, _U1, _UX = _make(1, ()), _make(1, (1,)), _make(1, (0, 1))


def solve_columns(cols: list, rhs: UPoly):
    """The x with sum_i x_i cols[i] = rhs over Q(zeta_m), m the joint field
    of the UPolys: (m, rows, den), for each unknown its phi(m) numerators
    over one den > 0, free unknowns zero; None if there is no solution.
    Over Q(zeta_m) each unknown is written in the power basis, its k-th
    rational coordinate multiplying the numerators of the column times
    zeta^k, and the system over Q goes to :func:`linalg.solve_linear`."""
    m = lcm(rhs.m, *(c.m for c in cols))
    _check_cap(m)   # no single product may have joined all the fields
    phi = euler_phi(m)
    units = [[int(i == k) for i in range(phi)] for k in range(phi)]
    expanded = [c.nums for c in cols] if phi == 1 else [
        _mul_rows(wide, phi, u, phi, m)
        for wide in (_widen(c.nums, c.m, m) for c in cols) for u in units]
    system = list(zip_longest(*expanded, _widen(rhs.nums, rhs.m, m),
                              fillvalue=0))
    sol = solve_linear([r[:-1] for r in system], [r[-1] for r in system])
    if sol is None:
        return None
    # the coordinates solved for are over den(c) / den(rhs), so each row
    # takes its column's denominator and all share den * den(rhs)
    nums, den = sol
    return m, [tuple([v * c.den for v in row]) for c, row in
               zip(cols, zip(*[iter(nums)] * phi))], den * rhs.den


def _as_upoly(v) -> UPoly | None:
    # a UPoly operand, or a scalar one as a constant; None for anything else
    if type(v) is UPoly:
        return v
    return UPoly.const(v) if isinstance(v, _SCALARS) else None


class URatFun:
    """Rational function num/den, gcd-reduced, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly | None = None):
        if den is None:
            den = UPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = _U0, _U1
            return
        _, num, den = num.cofactors(den)
        lead = den.lead()
        if lead != 1:   # most reduced denominators are monic already
            lead_inv = lead.inverse()
            num, den = num * lead_inv, den * lead_inv
        # a constant denominator is 1, shared by the values kept alive
        self.num, self.den = num, den if den.degree else _U1

    @staticmethod
    def const(v) -> "URatFun":
        return URatFun(UPoly.const(v))

    @staticmethod
    def x() -> "URatFun":
        return _RX

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other):
        other = _as_ratfun(other)
        return other is not None and self.num == other.num and self.den == other.den

    __hash__ = None

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return URatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        return URatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        return NotImplemented if other is None else other - self

    def __neg__(self):
        return URatFun(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return URatFun(self.num * as_cyc(other), self.den)
        if not isinstance(other, URatFun):
            return NotImplemented
        return URatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return URatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("inverse of zero")
            return URatFun(self.den, self.num) ** (-n)
        return _power(self, n, URatFun.const(1))

    def compose(self, inner: "URatFun") -> "URatFun":
        """num(inner) / den(inner), with num(inner) = a / da and den(inner)
        = b / db over common denominators, reduced once: (a db) / (b da)."""
        (a, da), (b, db) = _over_common_denominator(
            [_from_upoly(f) for f in (self.num, self.den)], (inner,))
        return URatFun(a * db, b * da)

    def eval(self, v: CycNum) -> CycNum:
        d = self.den.eval(v)
        if not d:
            raise ZeroDivisionError("pole at the evaluation point")
        return self.num.eval(v) / d

    def __str__(self) -> str:
        if self.is_poly():
            return str(self.num)
        num = str(self.num)
        if " " in num:
            num = f"({num})"
        den = str(self.den)
        if " " in den or "*" in den:
            den = f"({den})"
        return f"{num} / {den}"

    __repr__ = __str__


_RX = URatFun(_UX)


def _as_ratfun(v) -> URatFun | None:
    # a URatFun operand, or a scalar one as a constant; None for anything else
    if isinstance(v, URatFun):
        return v
    return URatFun.const(v) if isinstance(v, _SCALARS) else None


# ---------------------------------------------------------------------------


class HPoly2:
    """Homogeneous polynomial in x, y of degree ``d``, viewed through its
    dehomogenization ``u = f(x, 1)``: coefficient i of ``u`` belongs to
    ``x^i y^(d-i)``.

    The arithmetic is :class:`UPoly`'s; the view only keeps the degree.  The
    y-valuation is ``d - u.degree``.  The zero polynomial has degree -1.
    """

    __slots__ = ("d", "u")

    def __init__(self, d: int = -1, coeffs=None):
        """``coeffs``: the dehomogenization as a UPoly, or a map from
        x-exponent to coefficient."""
        if isinstance(coeffs, UPoly):
            u = coeffs
        elif not coeffs:
            u = _U0
        else:
            dense = [0] * (max(coeffs) + 1)
            for i, v in coeffs.items():
                dense[i] = v
            u = UPoly(dense)
        if not u.nums:
            d = -1
        elif u.degree > d:
            raise ValueError(f"x-degree {u.degree} exceeds the degree {d}")
        self.d = d
        self.u = u

    @staticmethod
    def zero() -> "HPoly2":
        return HPoly2()

    @staticmethod
    def term(coeff, i: int, j: int) -> "HPoly2":
        return HPoly2(i + j, {i: coeff})

    def is_zero(self) -> bool:
        return not self.u.nums

    def __bool__(self):
        return bool(self.u.nums)

    @property
    def degree(self) -> int:
        return self.d

    def y_valuation(self) -> int:
        if not self.u.nums:
            raise ZeroPolynomialError("valuation of zero")
        return self.d - self.u.degree

    def lead(self) -> CycNum:
        """Coefficient at the highest x-exponent."""
        return self.u.lead()

    def __eq__(self, other):
        if not isinstance(other, HPoly2):
            return NotImplemented
        return self.d == other.d and self.u == other.u

    __hash__ = None

    def _common_degree(self, other: "HPoly2") -> int:
        if self.d != other.d:
            raise DegreeMismatchError(
                f"cannot add homogeneous degrees {self.d} and {other.d}")
        return self.d

    def __add__(self, other: "HPoly2"):
        if not isinstance(other, HPoly2):
            return NotImplemented
        if not self.u.nums:
            return other
        if not other.u.nums:
            return self
        return HPoly2(self._common_degree(other), self.u + other.u)

    def __sub__(self, other: "HPoly2"):
        if not isinstance(other, HPoly2):
            return NotImplemented
        if not other.u.nums:
            return self
        if not self.u.nums:
            return -other
        return HPoly2(self._common_degree(other), self.u - other.u)

    def __neg__(self):
        return HPoly2(self.d, -self.u)

    def scale(self, s) -> "HPoly2":
        s = as_cyc(s)
        if not s or not self.u.nums:
            return HPoly2()
        return HPoly2(self.d, self.u * s)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not self.u.nums or not other.u.nums:
            return HPoly2()
        return HPoly2(self.d + other.d, self.u * other.u)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return HPoly2(self.d * n, self.u ** n)

    def eval(self, a, b) -> CycNum:
        a, b = as_cyc(a), as_cyc(b)
        out = _C0
        for i, v in enumerate(self.u.c):
            if v:
                out = out + v * a ** i * b ** (self.d - i)
        return out

    def compose_matrix(self, mat) -> "HPoly2":
        """Substitute (x, y) <- (m11 x + m12 y, m21 x + m22 y)."""
        return compose_matrix_many((self,), mat)[0]

    # -- divisibility and gcd ------------------------------------------------

    def dehomogenize(self) -> UPoly:
        """f(x, 1) as a univariate polynomial."""
        return self.u

    def divexact(self, other: "HPoly2") -> "HPoly2":
        """self / other, raising ZeroPolynomialError if other does not
        divide self.  By a monomial c x^k y^j this is a shift of the
        numerators by k coefficients and, unless c = 1, a scaling."""
        if not other.u.nums:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.u.nums:
            return HPoly2()
        if self.y_valuation() < other.y_valuation():
            raise ZeroPolynomialError("inexact homogeneous division")
        u, v = self.u, other.u
        if any(v.nums[:-euler_phi(v.m)]):
            return HPoly2(self.d - other.d, u.divexact(v))
        shift = v.degree * euler_phi(u.m)
        if any(u.nums[:shift]):   # the x-valuation of self is below k
            raise ZeroPolynomialError("inexact homogeneous division")
        q = _make(u.m, u.nums[shift:], u.den)
        c = v.lead()
        return HPoly2(self.d - other.d, q if c == 1 else q * c.inverse())

    def gcd(self, other: "HPoly2") -> "HPoly2":
        """Monic gcd; x^k and y^k factors included."""
        return self.cofactors(other)[0]

    def cofactors(self, other: "HPoly2"):
        """(g, self/g, other/g) for the monic gcd g: the gcd of the
        dehomogenizations by :meth:`UPoly.cofactors`, times the lesser
        y-valuation."""
        gu, a, b = self.u.cofactors(other.u)
        if not gu.nums:
            return (HPoly2(),) * 3
        g = HPoly2(gu.degree + min(p.d - p.u.degree for p in (self, other)
                                   if p.u.nums), gu)
        return g, HPoly2(self.d - g.d, a), HPoly2(other.d - g.d, b)

    def squarefree_decomp(self) -> tuple["HPoly2", "HPoly2"]:
        """(squarefree part, cofactor) with self = part * cofactor: with g
        the gcd of u = f(x, 1) and u', the part is u/g made monic and the
        cofactor g lead(u)."""
        g, q, _ = self.u.cofactors(self.u.derivative())
        sf = HPoly2(q.degree + min(self.y_valuation(), 1), q.monic())
        return sf, HPoly2(self.d - sf.d, g * self.u.lead())

    def normalized(self) -> "HPoly2":
        """Scale so the coefficient at the highest x-exponent is 1."""
        if not self.u.nums:
            return self
        return HPoly2(self.d, self.u.monic())

    def proportional_to(self, other: "HPoly2") -> CycNum | None:
        """Scalar s with self = s * other, or None."""
        if not self.u.nums:
            return _C0
        if (not other.u.nums or self.d != other.d
                or self.u.degree != other.u.degree):
            return None
        s = self.u.lead() / other.u.lead()
        return s if self.u == other.u * s else None

    def __str__(self) -> str:
        cs = self.u.c
        return _fmt_terms((cs[i], (("x", i), ("y", self.d - i)))
                          for i in range(len(cs) - 1, -1, -1))

    __repr__ = __str__


def _substitute(forms, d: int, a, b, m: int, pows=None) -> list:
    """Numerators over Q(zeta_m), phi(m) per coefficient, of f(A, B) for
    each form f = sum_i c_i x^i y^(d-i) of ``forms`` (its numerators, phi(m)
    per coefficient), with A = a[1] x + a[0] and B = b[1] x + b[0] (rows of
    numerators).

    Above degree _SPLIT_MIN, divide and conquer: with f = y^(d-h+1) g +
    x^h k, g of degree h - 1 and k of degree d - h, f(A, B) = B^(d-h+1)
    g(A, B) + A^h k(A, B), the powers of A and B memoized in ``pows``.
    Below, Horner's rule, S_k = S_(k+1) A + c_k B^(d-k), on integers: x =
    z^slot and zeta = z for z = 2^(8 width), where slot exceeds the degree
    in zeta of every product, so that f(A, B) unreduced is one integer,
    read back in digits of the exact width and reduced mod Phi_m once.
    """
    phi = euler_phi(m)
    if d > _SPLIT_MIN:
        pows = pows or ({1: a}, {1: b})
        h = (d + 1) // 2
        low = _substitute([cs[:h * phi] for cs in forms], h - 1, a, b, m, pows)
        high = _substitute([cs[h * phi:] for cs in forms], d - h, a, b, m, pows)
        bh, ah = _linear_power(pows, 1, d - h + 1, m), _linear_power(pows, 0, h, m)
        return [[x + y for x, y in zip(_mul_rows(bh, phi, g, phi, m),
                                       _mul_rows(ah, phi, k, phi, m))]
                for g, k in zip(low, high)]
    slot = (d + 1) * (phi - 1) + 1

    def norm(row):
        return sum(map(abs, row))

    width = _width(max(norm(a), norm(b)) ** d * max(map(norm, forms)))
    bits = 8 * width

    def at(row):   # the value at z of the numerators row
        return sum(v << bits * e for e, v in enumerate(row) if v)

    # n times A or B at z, as two short products: x = z^slot is a shift
    (a0, a1), (b0, b1) = ((at(v[:phi]), at(v[phi:])) for v in (a, b))
    shift = bits * slot
    bpow = [1]
    for _ in range(d):
        bpow.append(bpow[-1] * b0 + (bpow[-1] * b1 << shift))
    out = []
    for cs in forms:
        acc = 0
        for k in range(len(cs) // phi - 1, -1, -1):
            acc = acc * a0 + (acc * a1 << shift) + \
                at(cs[k * phi:(k + 1) * phi]) * bpow[d - k]
        out.append(_reduce(_unpack(acc, width, (d + 1) * slot), slot, m))
    return out


def _linear_power(pows, i: int, j: int, m: int) -> list:
    """Numerators of A^j (i = 0) or B^j (i = 1), memoized in ``pows[i]``
    from A or B at j = 1, as a product of halves."""
    table = pows[i]
    if j not in table:
        h, phi = j // 2, euler_phi(m)
        table[j] = _mul_rows(_linear_power(pows, i, h, m), phi,
                             _linear_power(pows, i, j - h, m), phi, m)
    return table[j]


def _monomial_images(forms, d: int, ea, eb, m: int) -> list:
    """For each form f = sum_i c_i x^i y^(d-i) of ``forms`` (numerators,
    phi(m) per coefficient), the rows c_i ea^i eb^(d-i), i = 0..d: f(ea x,
    eb y) coefficient by coefficient, the powers shared by the forms."""
    phi = euler_phi(m)
    one = [1] + [0] * (phi - 1)
    pa, pb = [one], [one]
    for _ in range(d):
        pa.append(_mul_nums(m, ea, pa[-1]))
        pb.append(_mul_nums(m, eb, pb[-1]))
    ws, out = {}, []   # ws: i -> ea^i eb^(d-i), for the exponents in use
    for cs in forms:
        rows = [[0] * phi] * (d + 1)
        for i in range(len(cs) // phi):
            c = cs[i * phi:(i + 1) * phi]
            if any(c):
                if i not in ws:
                    ws[i] = _mul_nums(m, pa[i], pb[d - i])
                rows[i] = _mul_nums(m, c, ws[i])
        out.append(rows)
    return out


def compose_matrix_many(polys, mat):
    """Substitute (x, y) <- (m11 x + m12 y, m21 x + m22 y) into each form.

    The forms are taken in groups of one degree d and one field: each group
    and the matrix are brought to Q(zeta_m), m the lcm of the group's
    conductor and the entries', within the conductor cap, the entries over
    one denominator D.  The image of a form f with numerators F over den is
    F(A, B) / (den D^d), where A = D (m11 x + m12 y) and B = D (m21 x + m22
    y) have integer numerators: by :func:`_substitute`, or under a diagonal
    or antidiagonal matrix by :func:`_monomial_images`, since then each
    monomial maps to a multiple of one monomial.  A constant is its own
    image, in any field.
    """
    groups = {}   # (degree, field) -> indices of the forms
    entries = None
    for k, p in enumerate(polys):
        if p.d > 0:
            if entries is None:
                entries = _from_values(mat)
            groups.setdefault((p.d, _join(entries.m, p.u.m)), []).append(k)
    out = list(polys)
    for (d, m), ks in groups.items():
        phi = euler_phi(m)
        e = [*_widen(entries.nums, entries.m, m), *[0] * (4 * phi)]
        e11, e12, e21, e22 = (e[k:k + phi] for k in range(0, 4 * phi, phi))
        forms = [_widen(polys[k].u.nums, polys[k].u.m, m) for k in ks]
        # the monomial images are kept for speed: without them, embed
        # rounds at seed 1 of bench/workloads.py took 1.16 times as long
        # (median of 10 alternating rounds in one process) and the dihedral
        # preset at n = 61 24 s, not 4 s (2-vCPU x86-64 VM)
        if not any(e12) and not any(e21):
            images = [[v for row in rows for v in row]
                      for rows in _monomial_images(forms, d, e11, e22, m)]
        elif not any(e11) and not any(e22):   # x^i y^(d-i) -> x^(d-i) y^i
            images = [[v for row in rows[::-1] for v in row]
                      for rows in _monomial_images(forms, d, e12, e21, m)]
        else:
            images = _substitute(forms, d, [*e12, *e11], [*e22, *e21], m)
        for k, nums in zip(ks, images):
            out[k] = HPoly2(d, _poly(m, nums, polys[k].u.den * entries.den ** d))
    return out


# the sparse multivariate polynomials live in their own module, which
# imports the names above
from .mpoly import (MPoly, POLY3_VARS, _evaluate,  # noqa: E402
                    _from_upoly, _over_common_denominator, poly3_compose,
                    poly3_identity, poly3_var)

"""Polynomial and rational-function arithmetic over CycNum coefficients.

Four shapes cover everything the constructions need:

* :class:`UPoly` - dense univariate polynomials (curve data on A^1);
* :class:`URatFun` - reduced univariate rational functions;
* :class:`HPoly2` - homogeneous bivariate polynomials, a degree plus the
  dehomogenization as a UPoly (coefficient i belongs to ``x^i y^(d-i)``);
* :class:`MPoly` - sparse multivariate polynomials with named variables
  (polynomial maps of A^3, witness polynomials, identity checking).
"""
from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import partial
from math import lcm

from .cyclotomic import (CycNum, _check_cap, _lift, _mul_nums, _normal,
                         _power, _power_rows, _within_cap, as_cyc, euler_phi)
from .errors import DegreeMismatchError, ZeroPolynomialError

_C0 = CycNum(0)
_C1 = CycNum(1)
# A UPoly product runs through the integer kernel, whose cost is about one
# coefficient product per output coefficient plus a fixed part, when its
# pairs of nonzero coefficients outnumber the sum of the operands' lengths
# by at least this much; through the pairwise loop otherwise (measured
# crossover; see the integer product kernel's entry in CHANGES.md)
_PACKED_EXTRA = 8
# forms with more coefficients are substituted by divide and conquer
_SPLIT_MIN = 8
_ORDER = sys.byteorder


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


def _upoly(cs: list) -> "UPoly":
    # trusted constructor: cs is a fresh list of CycNum
    while cs and not cs[-1]:
        cs.pop()
    out = object.__new__(UPoly)
    out.c = tuple(cs)
    return out


# ---------------------------------------------------------------------------
# The integer kernel: a polynomial over Q(zeta_m) as rows of integer
# numerators over one denominator, and a product of two of them as one
# bigint product (Kronecker substitution: von zur Gathen and Gerhard, Modern
# Computer Algebra, 8.4).

# array typecodes by item size, for digits of 1, 2, 4 and 8 bytes
_WORDS = {array(code).itemsize: code for code in "BHIQ"}


def _scan(cs) -> tuple[int, int]:
    """(m, den) of the CycNums cs: m is the lcm of the conductors of the
    non-rational entries and den the lcm of the denominators."""
    m = 1
    for v in cs:
        if v.m != m and any(v.nums[1:]):
            m = lcm(m, v.m)
    return m, lcm(*{v.den for v in cs})


def _numerators(cs, m: int, den: int, rational: bool) -> list:
    """The rows of numerators of the entries of cs over the denominator den
    in the power basis of Q(zeta_m), which contains them all; one numerator
    per row if ``rational``, when every entry is."""
    if rational:
        return [(v.nums[0] * (den // v.den),) for v in cs]
    rows = []
    for v in cs:
        nums = v.nums
        if v.m != m:
            nums = _lift(nums[:1], 1, m) if not any(nums[1:]) else \
                _lift(nums, v.m, m)
        s = den // v.den
        rows.append([x * s for x in nums] if s != 1 else nums)
    return rows


def _to_int(digits: list, width: int) -> int:
    # digits in [0, 2^(8 width)), least significant first
    code = _WORDS.get(width)
    data = array(code, digits).tobytes() if code else \
        b"".join([v.to_bytes(width, _ORDER) for v in digits])
    return int.from_bytes(data, _ORDER)


def _from_int(n: int, width: int, count: int) -> list:
    data = n.to_bytes(count * width, _ORDER)
    code = _WORDS.get(width)
    if code:
        return array(code, data).tolist()
    return [int.from_bytes(data[o:o + width], _ORDER)
            for o in range(0, count * width, width)]


def _kron_mul(a: list, b: list, m: int) -> list:
    """Rows of the product of the row polynomials a and b over Q(zeta_m).

    Each x-coefficient gets a slot of wa + wb - 1 digits (wa, wb the row
    lengths), each digit wide enough for the exact bound on a digit of the
    product and biased to be non-negative, so one bigint product holds every
    product of rows.  Each x-coefficient is then reduced mod Phi_m once, by
    the cached power rows.
    """
    wa, wb = len(a[0]), len(b[0])
    slot = wa + wb - 1

    def flat(rows, w):
        if w == slot:
            return [v for row in rows for v in row]
        pad = (0,) * (slot - w)
        return [v for row in rows for v in (*row, *pad)]

    fa, fb = flat(a, wa), flat(b, wb)
    top_a, top_b = max(max(fa), -min(fa)), max(max(fb), -min(fb))
    bound = max(min(len(a), len(b)) * min(wa, wb) * top_a * top_b, top_a, top_b)
    width = bound.bit_length() // 8 + 1   # a spare bit for the bias
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    half = 1 << 8 * width - 1
    biased = half.to_bytes(width, _ORDER)

    def pack(digits):
        return _to_int([v + half for v in digits], width) - \
            int.from_bytes(biased * len(digits), _ORDER)

    n = (len(a) + len(b) - 1) * slot
    prod = pack(fa) * pack(fb) + int.from_bytes(biased * n, _ORDER)
    digits = [v - half for v in _from_int(prod, width, n)]
    phi = euler_phi(m)
    cols = [digits[j::slot] for j in range(min(slot, phi))]
    for i, row in enumerate(_power_rows(m, 1, slot - phi, phi) if slot > phi
                            else ()):
        high = digits[phi + i::slot]
        for j, v in row:
            cols[j] = [x + v * h for x, h in zip(cols[j], high)]
    return list(zip(*cols))


def _values(rows, m: int, den: int) -> list:
    # the CycNums row/den of Q(zeta_m), the shared zero for a zero row
    return [_normal(m, row, den) if any(row) else _C0 for row in rows]


def _product(a, b) -> list | None:
    """Coefficients of (sum a_i x^i)(sum b_j x^j), stored over the field
    Q(zeta_m) that holds both operands.  None if that field is over the
    conductor cap, which the pairwise loop, working in the field of each
    pair, may never reach."""
    ma, da = _scan(a)
    mb, db = _scan(b)
    m = lcm(ma, mb)
    if not _within_cap(m):
        return None
    rows = _kron_mul(_numerators(a, m, da, ma == 1),
                     _numerators(b, m, db, mb == 1), m)
    return _values(rows, m, da * db)


# ---------------------------------------------------------------------------


class UPoly:
    """Dense univariate polynomial, coefficients ascending by degree."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        self.c = _upoly([as_cyc(v) for v in coeffs]).c

    @staticmethod
    def const(v) -> "UPoly":
        return UPoly([as_cyc(v)])

    @staticmethod
    def x() -> "UPoly":
        return UPoly([0, 1])

    @staticmethod
    def from_roots(roots) -> "UPoly":
        out = UPoly.const(1)
        for r in roots:
            out = out * UPoly([-as_cyc(r), _C1])
        return out

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def lead(self) -> CycNum:
        if not self.c:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.c[-1]

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.c == other.c

    __hash__ = None

    def __add__(self, other):
        a, b = self.c, other.c
        n = max(len(a), len(b))
        return _upoly([(a[i] if i < len(a) else _C0) + (b[i] if i < len(b) else _C0)
                       for i in range(n)])

    def __sub__(self, other):
        a, b = self.c, other.c
        n = max(len(a), len(b))
        return _upoly([(a[i] if i < len(a) else _C0) - (b[i] if i < len(b) else _C0)
                       for i in range(n)])

    def __neg__(self):
        return _upoly([-v for v in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            s = as_cyc(other)
            return _upoly([v * s if v else v for v in self.c])
        a, b = self.c, other.c
        if not a or not b:
            return UPoly()
        na = [(i, ai) for i, ai in enumerate(a) if ai]
        nb = [(j, bj) for j, bj in enumerate(b) if bj]
        if len(na) * len(nb) >= len(a) + len(b) + _PACKED_EXTRA:
            out = _product(a, b)
            if out is not None:
                return _upoly(out)
        out = [_C0] * (len(a) + len(b) - 1)
        for i, ai in na:
            for j, bj in nb:
                out[i + j] = out[i + j] + ai * bj
        return _upoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, UPoly.const(1))

    def divmod(self, other: "UPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        db = other.degree
        inv = other.lead().inverse()
        q = [_C0] * max(0, len(rem) - db)
        nz = [(j, bj) for j, bj in enumerate(other.c) if bj]
        for i in range(len(rem) - 1, db - 1, -1):
            if rem[i]:
                f = rem[i] * inv
                q[i - db] = f
                for j, bj in nz:
                    rem[i - db + j] = rem[i - db + j] - f * bj
        return _upoly(q), _upoly(rem)

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
        return _upoly([v * inv for v in self.c])

    def derivative(self) -> "UPoly":
        return UPoly([self.c[i] * i for i in range(1, len(self.c))])

    def gcd(self, other: "UPoly") -> "UPoly":
        """The monic gcd (zero if both are), as :meth:`cofactors` finds it."""
        return self.cofactors(other)[0]

    def cofactors(self, other: "UPoly"):
        """(g, self/g, other/g), g the monic gcd, by
        :func:`modular.cofactors`."""
        from .modular import cofactors   # modular imports this module
        return cofactors(self, other)

    def xgcd(self, other: "UPoly"):
        """(g, u, v) with u*self + v*other = g, g monic."""
        r0, r1 = self, other
        u0, u1 = UPoly.const(1), UPoly()
        v0, v1 = UPoly(), UPoly.const(1)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            u0, u1 = u1, u0 - q * u1
            v0, v1 = v1, v0 - q * v1
        if r0.is_zero():
            return r0, u0, v0
        inv = r0.lead().inverse()
        return r0.monic(), u0 * inv, v0 * inv

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
            f = MPoly(("x",), {(i,): v for i, v in enumerate(self.c)})
            return _evaluate((f,), (inner,))[0]
        out = UPoly()
        for coeff in reversed(self.c):
            out = out * inner + UPoly.const(coeff)
        return out

    def __str__(self) -> str:
        return _fmt_terms((self.c[i], (("x", i),))
                          for i in range(self.degree, -1, -1))

    __repr__ = __str__


class URatFun:
    """Rational function num/den, gcd-reduced, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly | None = None):
        if den is None:
            den = UPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = UPoly(), UPoly.const(1)
            return
        _, num, den = num.cofactors(den)
        lead_inv = den.lead().inverse()
        self.num, self.den = num * lead_inv, den * lead_inv

    @staticmethod
    def const(v) -> "URatFun":
        return URatFun(UPoly.const(v))

    @staticmethod
    def x() -> "URatFun":
        return URatFun(UPoly.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = URatFun.const(other)
        return isinstance(other, URatFun) and self.num == other.num and self.den == other.den

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = URatFun.const(other)
        return URatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = URatFun.const(other)
        return URatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return URatFun.const(other) - self

    def __neg__(self):
        return URatFun(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return URatFun(self.num * as_cyc(other), self.den)
        return URatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = URatFun.const(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return URatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return URatFun.const(other) / self

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
            [MPoly(("x",), {(i,): v for i, v in enumerate(f.c)})
             for f in (self.num, self.den)], (inner,))
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
        else:
            coeffs = coeffs or {}
            dense = [_C0] * (max(coeffs, default=-1) + 1)
            for i, v in coeffs.items():
                v = as_cyc(v)
                if v:
                    dense[i] = v
            u = UPoly(dense)
        if not u.c:
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
        return not self.u.c

    def __bool__(self):
        return bool(self.u.c)

    @property
    def degree(self) -> int:
        return self.d

    def y_valuation(self) -> int:
        if not self.u.c:
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
        if not self.u.c:
            return other
        if not other.u.c:
            return self
        return HPoly2(self._common_degree(other), self.u + other.u)

    def __sub__(self, other: "HPoly2"):
        if not other.u.c:
            return self
        if not self.u.c:
            return -other
        return HPoly2(self._common_degree(other), self.u - other.u)

    def __neg__(self):
        return HPoly2(self.d, -self.u)

    def scale(self, s) -> "HPoly2":
        s = as_cyc(s)
        if not s or not self.u.c:
            return HPoly2()
        return HPoly2(self.d, self.u * s)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        if not self.u.c or not other.u.c:
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
        if not other.u.c:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.u.c:
            return HPoly2()
        if self.y_valuation() < other.y_valuation():
            raise ZeroPolynomialError("inexact homogeneous division")
        return HPoly2(self.d - other.d, self.u.divexact(other.u))

    def gcd(self, other: "HPoly2") -> "HPoly2":
        """Monic gcd; x^k and y^k factors included."""
        return self.cofactors(other)[0]

    def cofactors(self, other: "HPoly2"):
        """(g, self/g, other/g) for the monic gcd g: the gcd of the
        dehomogenizations by :meth:`UPoly.cofactors`, times the lesser
        y-valuation."""
        gu, a, b = self.u.cofactors(other.u)
        if not gu.c:
            return (HPoly2(),) * 3
        g = HPoly2(gu.degree + min(p.d - p.u.degree for p in (self, other)
                                   if p.u.c), gu)
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
        if not self.u.c:
            return self
        return HPoly2(self.d, self.u.monic())

    def proportional_to(self, other: "HPoly2") -> CycNum | None:
        """Scalar s with self = s * other, or None."""
        if not self.u.c:
            return _C0
        if (not other.u.c or self.d != other.d
                or self.u.degree != other.u.degree):
            return None
        s = self.u.lead() / other.u.lead()
        return s if self.u == other.u * s else None

    def __str__(self) -> str:
        return _fmt_terms((self.u.c[i], (("x", i), ("y", self.d - i)))
                          for i in range(self.u.degree, -1, -1))

    __repr__ = __str__


def _scaled(row, c, m: int) -> list:
    """row times c over Q(zeta_m): c an integer, or a row of numerators."""
    return [x * c for x in row] if type(c) is int else _mul_nums(m, row, c)


def _times_linear(cs: list, c0, c1, m: int) -> list:
    """Rows of (sum_i cs[i] x^i) * (c1 x + c0) over Q(zeta_m)."""
    zero = [0] * len(cs[0])
    low = [_scaled(v, c0, m) for v in cs] + [zero]
    high = [zero] + [_scaled(v, c1, m) for v in cs]
    return [[x + y for x, y in zip(u, v)] for u, v in zip(low, high)]


def _substitute(cs: list, d: int, a: tuple, power, m: int) -> list:
    """Rows of f(A, B) over Q(zeta_m), for the form f = sum_i cs[i] x^i
    y^(d-i) (cs as scalars for ``_scaled``), A = a[1] x + a[0] and
    ``power(i, j)`` the rows of A^j (i = 0) or B^j (i = 1).

    Up to ``_SPLIT_MIN`` coefficients, Horner's rule: S_t = c_t B^(d-t) and
    S_k = S_(k+1) A + c_k B^(d-k), t the highest x-exponent.  Above, divide
    and conquer: with f = y^(d-h+1) g + x^h k, g of degree h - 1 and k of
    degree d - h, f(A, B) = B^(d-h+1) g(A, B) + A^h k(A, B), the two
    products packed.
    """
    if not any(cs):
        return [[0] * len(power(1, 0)[0])] * (d + 1)
    top = len(cs) - 1
    if top < _SPLIT_MIN:
        acc = [_scaled(v, cs[top], m) for v in power(1, d - top)]
        for k in range(top - 1, -1, -1):
            acc = _times_linear(acc, a[0], a[1], m)
            c = cs[k]
            if c:
                for j, v in enumerate(power(1, d - k)):
                    acc[j] = [x + y for x, y in zip(acc[j], _scaled(v, c, m))]
        return acc
    h = len(cs) // 2
    g = _substitute(cs[:h], h - 1, a, power, m)
    k = _substitute(cs[h:], d - h, a, power, m)
    out = _kron_mul(power(1, d - h + 1), g, m)
    high = _kron_mul(power(0, h), k, m)
    for i, v in enumerate(high):
        out[i] = [x + y for x, y in zip(out[i], v)]
    return out


def _linear_power(pows, linears, m: int, i: int, j: int) -> list:
    """Rows of the j-th power of the linear form ``linears[i]``, memoized in
    ``pows[i]``: one step up from j - 1 while Horner's rule reads them in
    turn, else a packed product of halves.  A module function, not a
    closure, so that the tables form no reference cycle."""
    table = pows[i]
    if j not in table:
        if j <= _SPLIT_MIN or j - 1 in table:
            below = _linear_power(pows, linears, m, i, j - 1)
            table[j] = _times_linear(below, *linears[i], m)
        else:
            h = j // 2
            table[j] = _kron_mul(_linear_power(pows, linears, m, i, h),
                                 _linear_power(pows, linears, m, i, j - h), m)
    return table[j]


def compose_matrix_many(polys, mat):
    """Substitute (x, y) <- (m11 x + m12 y, m21 x + m22 y) into each form.

    The forms of one degree d and the matrix are brought to one conductor,
    with one denominator per form and one, D, for the matrix.  The image of
    a form f is f(A, B) / (den(f) D^d), where A = D (m11 x + m12 y) and
    B = D (m21 x + m22 y) have integer numerators, and f(A, B) is computed
    in integer numerator rows by :func:`_substitute`: Horner's rule at low
    degree (about 1.5 d^2 products of rows per form), divide and conquer on
    packed products above.  The powers of A and B are shared by the forms,
    and a rational scalar scales a row instead of multiplying it.  Each
    image coefficient is stored over that one field Q(zeta_m), which must
    be within the conductor cap.  Forms of mixed degrees, or in different
    fields once the matrix's entries are adjoined, are substituted one at a
    time.
    Under a diagonal or antidiagonal matrix each monomial maps to a multiple
    of one monomial.
    """
    degs = {p.d for p in polys if p.u.c}
    if degs <= {0}:   # a constant is its own image, in any field
        return list(polys)
    if len(degs) != 1:
        return [compose_matrix_many((p,), mat)[0] for p in polys]
    d = degs.pop()
    entries = tuple(as_cyc(v) for v in mat)
    m11, m12, m21, m22 = entries
    diagonal = not m12 and not m21
    # kept for speed: without it one embed round of bench/workloads.py at
    # seed 1 took 0.64 s of CPU, not 0.43 s (min of 13, 2-vCPU x86-64 VM)
    if diagonal or (not m11 and not m22):
        ca, cb = (m11, m22) if diagonal else (m12, m21)
        pa, pb = [_C1], [_C1]
        for _ in range(d):
            pa.append(pa[-1] * ca)
            pb.append(pb[-1] * cb)
        out = []
        for p in polys:
            if not p.u.c:
                out.append(p)
                continue
            cs = [v * pa[i] * pb[d - i] if v else _C0
                  for i, v in enumerate(p.u.c)]
            if not diagonal:   # x^i y^(d-i) -> x^(d-i) y^i
                cs = [_C0] * (d + 1 - len(cs)) + cs[::-1]
            out.append(HPoly2(d, _upoly(cs)))
        return out
    scans = [_scan(p.u.c) if p.u.c else None for p in polys]
    m, den = _scan(entries)
    fields = {lcm(m, s[0]) for s in scans if s}
    if len(fields) != 1:
        # rows at the lcm of every form's field would cost more than
        # the powers of A and B they share
        return [compose_matrix_many((p,), mat)[0] for p in polys]
    m = fields.pop()
    _check_cap(m)

    def scalars(rows):
        return [r[0] if not any(r[1:]) else r for r in rows]

    e11, e12, e21, e22 = scalars(_numerators(entries, m, den, m == 1))
    a, b = (e12, e11), (e22, e21)   # A = e11 x + e12, B = e21 x + e22
    one = [1] + [0] * (euler_phi(m) - 1)
    power = partial(_linear_power, ({0: [one]}, {0: [one]}), (a, b), m)
    out = []
    for p, scan in zip(polys, scans):
        if not scan:
            out.append(p)
            continue
        f_den = scan[1]
        rows = _substitute(scalars(_numerators(p.u.c, m, f_den, m == 1)),
                           d, a, power, m)
        out.append(HPoly2(d, _upoly(_values(rows, m, f_den * den ** d))))
    return out


# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# evaluation of polynomial maps

_U1 = UPoly.const(1)


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

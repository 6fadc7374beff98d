"""Exact arithmetic in Q and in the cyclotomic fields Q(zeta_m).

A value of Q(zeta_m) is its residue modulo the cyclotomic polynomial Phi_m
in the power basis 1, zeta, ..., zeta^(phi(m)-1), stored as integer
numerators over one shared denominator (FLINT's ``nf_elem`` layout) with
``den > 0`` and ``gcd(content(nums), den) = 1``.  That form is unique per
conductor, so same-conductor equality is a tuple comparison.  Arithmetic,
inversion and subfield descent are integer-only; ``Fraction`` appears only
where values enter or leave (construction, ``as_fraction``, ``key_under``,
printing).  Values of Q (conductor 1) are computed as one numerator over one
denominator with at most one gcd: the degree-1 case beside the closed form
used for the degree-2 fields (phi(m) = 2).  The same integers carry
polynomials: vectors of numerators, phi(m) per coefficient, are lifted
between fields, multiplied and reduced mod Phi_m here for :mod:`poly`.

Conductors are kept normalized: m = 2 mod 4 never occurs, since
Q(zeta_2k) = Q(zeta_k) for odd k.  Mixed-conductor arithmetic unifies into
Q(zeta_lcm) automatically; growth past a configurable degree cap raises
:class:`ConductorCapError`.  The stored conductor is the one the arithmetic
produced.  ``reduced()`` finds the minimal one lazily; ``hash`` and printing
use it, so equal values hash equal and print alike across conductors.
"""
from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import ConductorCapError
from .linalg import eliminate

_conductor_cap = 256


def set_conductor_cap(max_degree: int) -> int:
    """Set the maximal allowed field degree phi(m); default 256.

    Returns the cap it replaced, so that a caller can put it back.
    """
    global _conductor_cap
    if max_degree < 1:
        raise ValueError("conductor cap must be positive")
    previous, _conductor_cap = _conductor_cap, max_degree
    return previous


def _over_cap(m: int) -> ConductorCapError:
    return ConductorCapError(f"conductor {m} needs a field degree above cap "
                             f"{_conductor_cap}; raise it with set_conductor_cap()")


def _within_cap(m: int) -> bool:
    # phi(m) >= sqrt(m / 2), so a conductor above 2 cap^2 is over the cap
    # and is rejected before it is factored
    return m <= 2 * _conductor_cap ** 2 and euler_phi(m) <= _conductor_cap


def _check_cap(m: int) -> None:
    if not _within_cap(m):
        raise _over_cap(m)


def _trial_division(n: int) -> tuple[list[tuple[int, int]], int]:
    """The prime powers (p, e) of n > 0 found by the divisors d <= cap + 1,
    and the cofactor left: 1, or a number whose prime factors all exceed
    cap + 1.  A conductor within the cap has none of those, since a prime p
    dividing it has p - 1 <= phi <= cap."""
    found, d = [], 2
    while d * d <= n:
        if d > _conductor_cap + 1:
            return found, n
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            found.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        found.append((n, 1))
    return found, 1


@lru_cache(maxsize=None)
def _prime_factors(m: int) -> tuple[int, ...]:
    found, rest = _trial_division(m)
    if rest > 1:  # raised, so never cached
        raise _over_cap(m)
    return tuple(p for p, _ in found)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    out = m
    for p in _prime_factors(m):
        out = out // p * (p - 1)
    return out


def _normal_conductor(m: int) -> int:
    # Q(zeta_2k) = Q(zeta_k) for odd k
    return m // 2 if m % 4 == 2 else m


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("integer polynomial division is not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree, monic."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _int_poly_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_vector(m: int, e: int) -> tuple[int, ...]:
    """x^e mod Phi_m as an integer coefficient tuple of length phi(m)."""
    phi = euler_phi(m)
    e %= m
    if e < phi:
        return tuple(1 if i == e else 0 for i in range(phi))
    phim = cyclotomic_polynomial(m)
    # x^e = x * x^(e-1), reduced
    prev = _power_vector(m, e - 1)
    shifted = [0] + list(prev)
    top = shifted.pop()
    if top:
        for j in range(phi):
            shifted[j] -= top * phim[j]
    return tuple(shifted)


def _sparse(vec) -> tuple[tuple[int, int], ...]:
    return tuple((j, v) for j, v in enumerate(vec) if v)


@lru_cache(maxsize=None)
def _power_rows(m: int, step: int, count: int, start: int = 0) -> tuple:
    """x^(start + i*step) mod Phi_m for i < count, as sparse (index, coeff) rows.

    These rows reduce a product (start = phi(m), step 1), embed Q(zeta_m')
    into Q(zeta_m) (step m/m') and apply the automorphism zeta -> zeta^step.
    """
    return tuple(_sparse(_power_vector(m, start + i * step)) for i in range(count))


def _lincomb(coeffs, rows, out: list[int]) -> list[int]:
    """Add sum_i coeffs[i] * rows[i] into ``out``; rows from ``_power_rows``."""
    for c, row in zip(coeffs, rows):
        if c:
            for j, v in row:
                out[j] += c * v
    return out


def _embed(nums: tuple[int, ...], m: int, big: int) -> tuple[int, ...]:
    if m == big:
        return nums
    _check_cap(big)
    return _lift(nums, m, big)


def _lift(nums, m: int, big: int) -> tuple[int, ...]:
    """Numerators of Q(zeta_m) rewritten over Q(zeta_big), big a multiple
    of m; no cap check."""
    if m == big:
        return tuple(nums)
    if m == 1:
        return tuple(nums) + (0,) * (euler_phi(big) - 1)
    return tuple(_lincomb(nums, _power_rows(big, big // m, len(nums)),
                          [0] * euler_phi(big)))


def _mul_nums(m: int, a, b) -> list[int]:
    """Product of two numerator vectors of Q(zeta_m), reduced mod Phi_m."""
    phi = len(a)
    if phi == 1:
        return [a[0] * b[0]]
    if phi == 2:
        # Phi_m = x^2 + p x + q
        q, p, _ = cyclotomic_polynomial(m)
        t = a[1] * b[1]
        return [a[0] * b[0] - q * t, a[0] * b[1] + a[1] * b[0] - p * t]
    raw = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                raw[k] += ai * bj
    return _lincomb(raw[phi:], _power_rows(m, 1, phi - 1, phi), raw[:phi])


# ---------------------------------------------------------------------------
# Vectors of numerators: a polynomial over Q(zeta_m) as w numerators per
# coefficient, w = 1 (rational coefficients) or phi(m), lowest degree first.
# A product of vectors with wa and wb per coefficient has wa + wb - 1 (a
# slot) per coefficient before it is reduced mod Phi_m.

_ORDER = sys.byteorder
# array typecodes by item size, for digits of 1, 2, 4 and 8 bytes
_WORDS = {array(code).itemsize: code for code in "BHIQ"}
# A product with at most this many pairs of nonzero numerators runs by
# schoolbook, a larger one by one packed product: the packed product was
# faster from about 150 to 700 pairs, by shape, for 1 to 60 coefficients
# over Q, Q(i), Q(zeta_12) and Q(zeta_61)
_PAIRS = 256


def _widen(nums, mp: int, m: int):
    """A vector over Q(zeta_mp), phi(mp) per coefficient, rewritten over
    Q(zeta_m), m a multiple of mp."""
    if mp == m:
        return nums
    phi_p, phi = euler_phi(mp), euler_phi(m)
    out = [0] * (len(nums) // phi_p * phi)
    for j, row in enumerate(_power_rows(m, m // mp, phi_p)):
        col = nums[j::phi_p]
        for k, v in row:
            out[k::phi] = [x + v * y for x, y in zip(out[k::phi], col)]
    return out


def _reduce(raw: list, slot: int, m: int) -> list:
    """A vector with slot numerators per coefficient, for the powers of
    zeta below slot, reduced mod Phi_m to phi(m) per coefficient: one
    column of all coefficients at a time, by the cached power rows."""
    phi = euler_phi(m)
    if slot == phi:
        return raw
    cols = [raw[j::slot] for j in range(phi)]
    for i, row in enumerate(_power_rows(m, 1, slot - phi, phi)):
        high = raw[phi + i::slot]
        if any(high):
            for j, v in row:
                cols[j] = [x + v * h for x, h in zip(cols[j], high)]
    out = [0] * (len(raw) // slot * phi)
    for j, col in enumerate(cols):
        out[j::phi] = col
    return out


def _width(bound: int) -> int:
    # bytes per digit for signed digits up to bound in absolute value, with
    # a spare bit for the sign: 1, 2, 4 or 8 where an array type serves
    width = bound.bit_length() // 8 + 1
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _offset(width: int, count: int) -> int:
    # the bias: the integer whose count digits are each half their range
    return int.from_bytes((1 << 8 * width - 1).to_bytes(width, _ORDER) * count,
                          _ORDER)


def _pack(digits, width: int) -> int:
    """The integer with the signed digits (least significant first) in base
    2^(8 width), each below half of it in absolute value."""
    half = 1 << 8 * width - 1
    biased, code = [v + half for v in digits], _WORDS.get(width)
    data = array(code, biased).tobytes() if code else \
        b"".join([v.to_bytes(width, _ORDER) for v in biased])
    return int.from_bytes(data, _ORDER) - _offset(width, len(digits))


def _unpack(n: int, width: int, count: int) -> list:
    """The count signed digits of n, as :func:`_pack` packs them."""
    data = (n + _offset(width, count)).to_bytes(count * width, _ORDER)
    code, half = _WORDS.get(width), 1 << 8 * width - 1
    digits = array(code, data).tolist() if code else \
        [int.from_bytes(data[o:o + width], _ORDER)
         for o in range(0, len(data), width)]
    return [v - half for v in digits]


def _kron_mul(fa, wa: int, fb, wb: int) -> list:
    """The unreduced product of the vectors fa and fb by one bigint product
    (Kronecker substitution): each coefficient gets a slot, each digit the
    width of the exact bound on a digit of the product."""
    slot = wa + wb - 1
    na, nb = len(fa) // wa, len(fb) // wb
    top_a, top_b = max(max(fa), -min(fa)), max(max(fb), -min(fb))
    width = _width(max(min(na, nb) * min(wa, wb) * top_a * top_b, top_a, top_b))

    def spread(digits, w):   # each coefficient padded to its slot
        if w == slot:
            return digits
        out = [0] * (len(digits) // w * slot)
        for s in range(w):
            out[s::slot] = digits[s::w]
        return out

    return _unpack(_pack(spread(fa, wa), width) * _pack(spread(fb, wb), width),
                   width, (na + nb - 1) * slot)


def _mul_rows(fa, wa: int, fb, wb: int, m: int) -> list:
    """The product over Q(zeta_m) of the vectors fa and fb, phi(m)
    numerators per coefficient (one if wa = wb = 1): by schoolbook, one
    product per pair of nonzero digits, up to _PAIRS pairs, else packed."""
    za, zb = len(fa) - fa.count(0), len(fb) - fb.count(0)
    if za * zb > _PAIRS:
        return _reduce(_kron_mul(fa, wa, fb, wb), wa + wb - 1, m)
    if za < zb:
        fa, wa, fb, wb = fb, wb, fa, wa
    slot = wa + wb - 1
    raw = [0] * ((len(fa) // wa + len(fb) // wb - 1) * slot)
    pa = [(q // wa * slot + q % wa, x) for q, x in enumerate(fa) if x]
    for q, y in enumerate(fb):
        if y:
            base = q // wb * slot + q % wb
            for p, x in pa:
                raw[base + p] += x * y
    return _reduce(raw, slot, m)


def _normal(m: int, nums, den: int) -> "CycNum":
    if m == 1:
        return _quotient(nums[0], den)
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    if g != 1:
        nums = [v // g for v in nums]
        den //= g
    return _make(m, tuple(nums), den)


def _power(base, n: int, one):
    """base ** n by repeated squaring, for n >= 0."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class CycNum:
    """Exact element of a cyclotomic field Q(zeta_m).

    ``m`` is the stored conductor, ``nums`` the integer numerators of the
    power-basis coefficients and ``den`` their shared positive denominator,
    coprime to the content of ``nums``.  Immutable; mixing conductors
    unifies into the least common one.  Values that are equal hash equal
    and print alike whatever their stored conductor: the hash is taken of
    the form over the minimal conductor (``reduced()``), and of the
    ``Fraction`` for a rational value, and ``str`` prints that form.
    """

    __slots__ = ("m", "nums", "den")

    def __new__(cls, value=0):
        v = cls._coerce(value)
        return v if v is not None else cls._coerce(Fraction(value))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycNum is immutable")

    @staticmethod
    def from_coeffs(m: int, coeffs) -> "CycNum":
        """Build from a residue coefficient sequence of length phi(m)."""
        m = _normal_conductor(m)
        _check_cap(m)
        cs = [Fraction(v) for v in coeffs]
        if len(cs) > euler_phi(m):
            raise ValueError(f"expected at most {euler_phi(m)} coefficients")
        den = lcm(*(q.denominator for q in cs))
        nums = [q.numerator * (den // q.denominator) for q in cs]
        return _normal(m, nums + [0] * (euler_phi(m) - len(cs)), den)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, CycNum):
            return v
        if isinstance(v, int):
            return _rational(v)
        if isinstance(v, Fraction):
            return _rational(v.numerator, v.denominator)
        return None

    def _with(self, other: "CycNum"):
        if self.m == other.m:
            return self.m, self.nums, other.nums
        big = lcm(self.m, other.m)
        _check_cap(big)
        return big, _lift(self.nums, self.m, big), _lift(other.nums, other.m, big)

    def _plus(self, other, sign: int):
        o = other if type(other) is CycNum else self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if self.m == 1 == o.m:
            if o is _ZERO:
                return self
            if self is _ZERO and sign > 0:
                return o
            b = o.nums[0] if sign > 0 else -o.nums[0]
            return _quotient(self.nums[0] * db + b * da, da * db)
        # adding zero keeps a value and its conductor unless lcm grows it
        if not any(o.nums) and self.m % o.m == 0:
            return self
        if sign > 0 and not any(self.nums) and o.m % self.m == 0:
            return o
        m, a, b = self._with(o)
        if da == db:
            nums = [x + y for x, y in zip(a, b)] if sign > 0 else \
                [x - y for x, y in zip(a, b)]
            return _normal(m, nums, da)
        g = gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        return _normal(m, [x * sa + y * sb for x, y in zip(a, b)], da * sa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        if self.m == 1:   # the shared small integers stay shared
            return _rational(-self.nums[0], self.den)
        return _make(self.m, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other):
        o = other if type(other) is CycNum else self._coerce(other)
        if o is None:
            return NotImplemented
        if self.m == 1 == o.m:
            # shared 0 and 1, about half of all rational factors, cost no gcd
            if o is _ONE or self is _ZERO:
                return self
            if self is _ONE or o is _ZERO:
                return o
            return _quotient(self.nums[0] * o.nums[0], self.den * o.den)
        if not any(o.nums[1:]):
            a, q = self, o
        elif not any(self.nums[1:]):
            a, q = o, self
        else:
            m, a, b = self._with(o)
            return _normal(m, _mul_nums(m, a, b), self.den * o.den)
        p = q.nums[0]
        if not p:
            return _rational(0)
        if p == 1 == q.den:
            return a
        return _normal(a.m, [x * p for x in a.nums], a.den * q.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        m, nums, den = self.m, self.nums, self.den
        if not any(nums):
            raise ZeroDivisionError("inverse of zero")
        if not any(nums[1:]):
            # gcd(nums[0], den) = 1 already, so only the sign moves
            n = nums[0]
            return _rational(den, n) if n > 0 else _rational(-den, -n)
        if len(nums) == 2:
            # degree-2 field: conjugate over Phi = x^2 + p x + q
            q, p, _ = cyclotomic_polynomial(m)
            a, b = nums
            norm = a * a - a * b * p + b * b * q
            return _normal(m, ((a - b * p) * den, -b * den), norm)
        # 1/x = (product of the other Galois conjugates) / N(x), N(x) in Z
        phi = len(nums)
        conj = None
        for k in range(2, m):
            if gcd(k, m) == 1:
                s = _lincomb(nums, _power_rows(m, k, phi), [0] * phi)
                conj = s if conj is None else _mul_nums(m, conj, s)
        norm = _mul_nums(m, nums, conj)[0]
        return _normal(m, [v * den for v in conj], norm)

    def __truediv__(self, other):
        o = other if type(other) is CycNum else self._coerce(other)
        if o is None:
            return NotImplemented
        if self.m == 1 == o.m:
            if not o.nums[0]:
                raise ZeroDivisionError("division by zero")
            return _quotient(self.nums[0] * o.den, self.den * o.nums[0])
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, _rational(1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # the normal form's denominator does not depend on the conductor
        if self.den != o.den:
            return False
        if self.m == o.m:
            return self.nums == o.nums
        _, a, b = self._with(o)
        return a == b

    def __hash__(self):
        r = self.reduced()
        return hash(Fraction(r.nums[0], r.den) if r.m == 1 else (r.m, r.nums, r.den))

    # -- structure ----------------------------------------------------------

    def as_monomial(self):
        """Return (q, k) with self = q * zeta_m^k and q rational, else None."""
        if self.is_rational():
            return self.as_fraction(), 0
        for k in range(1, self.m):
            t = self * _root_in(self.m, self.m - k)
            if t.is_rational():
                return t.as_fraction(), k
        return None

    def key_under(self, big: int) -> tuple:
        """Coefficient tuple inside Q(zeta_big); for deterministic sorting."""
        return tuple(Fraction(v, self.den) for v in _embed(self.nums, self.m, big))

    def embedded(self, big: int) -> "CycNum":
        """The same value rewritten over Q(zeta_big); big must be a multiple."""
        big = _normal_conductor(big)
        if big % self.m:
            raise ValueError(f"{big} is not a multiple of conductor {self.m}")
        return _make(big, _embed(self.nums, self.m, big), self.den)

    def reduced(self) -> "CycNum":
        """Rewrite over the smallest cyclotomic subfield containing the value."""
        x = self
        while x.m > 1:
            m = x.m
            if not any(x.nums[1:]):
                return _rational(x.nums[0], x.den)
            cands = {_normal_conductor(m // p) for p in _prime_factors(m)}
            cands.discard(m)
            if cands <= {1}:
                break  # no proper subfield above Q; nothing to try
            for m2 in sorted(cands):
                solve, checks, scale = _descent_solver(m, m2)
                c = x.nums
                if not any(sum(v * c[j] for j, v in row) for row in checks):
                    x = _normal(m2, [sum(v * c[j] for j, v in row)
                                     for row in solve], scale * x.den)
                    break
            else:
                break
        return x

    # -- output -------------------------------------------------------------

    def __str__(self) -> str:
        x = self.reduced()   # equal values print alike, whatever the path
        if x.m == 1:
            return str(Fraction(x.nums[0], x.den))
        return f"cyc({x.m}; " + ", ".join(
            str(Fraction(v, x.den)) for v in x.nums) + ")"

    __repr__ = __str__


_set_m = CycNum.m.__set__
_set_nums = CycNum.nums.__set__
_set_den = CycNum.den.__set__


def _make(m: int, nums: tuple[int, ...], den: int) -> CycNum:
    # trusted constructor: (nums, den) must already be in normal form
    self = object.__new__(CycNum)
    _set_m(self, m)
    _set_nums(self, nums)
    _set_den(self, den)
    return self


_SMALL = 64
_SMALL_INTS = tuple(_make(1, (n,), 1) for n in range(-_SMALL, _SMALL + 1))
_ZERO, _ONE = _SMALL_INTS[_SMALL], _SMALL_INTS[_SMALL + 1]


def _rational(n: int, d: int = 1) -> CycNum:
    # n/d in lowest terms.  The integers up to 64 in absolute value, most
    # entries of group elements and of polynomial coefficients, are shared,
    # so that values kept alive (results, inputs) do not each hold a copy
    if d == 1 and -_SMALL <= n <= _SMALL:
        return _SMALL_INTS[n + _SMALL]
    return _make(1, (n,), d)


def _quotient(n: int, d: int) -> CycNum:
    # n/d for d != 0, brought to lowest terms over a positive denominator:
    # the one place where a computed rational reaches its normal form
    g = gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n //= g
        d //= g
    return _rational(n, d)


@lru_cache(maxsize=None)
def _descent_solver(m: int, m2: int):
    """``(solve, checks, scale)``: numerators ``c`` of Q(zeta_m) lie in
    Q(zeta_m2) iff every sparse ``checks`` row annihilates them; the subfield
    numerators are then ``solve @ c`` over ``scale`` times the denominator.

    Elimination of [E | I], the columns of E embedding the power basis of
    Q(zeta_m2): the embedding is injective, so each is a pivot column.
    """
    rows, ncol = euler_phi(m), euler_phi(m2)
    emb = [_power_vector(m, j * (m // m2)) for j in range(ncol)]
    aug = [[e[i] for e in emb] + [int(i == k) for k in range(rows)]
           for i in range(rows)]
    eliminate(aug, ncol)
    scale = lcm(*(aug[i][i] for i in range(ncol)))
    solve = tuple(_sparse([v * (scale // aug[i][i]) for v in aug[i][ncol:]])
                  for i in range(ncol))
    checks = tuple(_sparse(aug[i][ncol:]) for i in range(ncol, rows))
    return solve, checks, scale


# ---------------------------------------------------------------------------
# roots of unity and bounded square roots

def _root_in(m: int, e: int) -> CycNum:
    return _make(m, _power_vector(m, e % m), 1)


def root_of_unity(m: int, k: int = 1) -> CycNum:
    """zeta_m^k, stored over the smallest conductor that contains it."""
    if m < 1:
        raise ValueError("m must be positive")
    k %= m
    g = gcd(m, k) if k else m
    order = m // g
    k = k // g
    if order == 1:
        return _rational(1)
    if order == 2:
        return _rational(-1)
    if order % 4 == 2:
        # zeta_order = -zeta_(order/2)^((order/2 + 1)/2)
        half = order // 2
        sign = -1 if k % 2 else 1
        e = (k * ((half + 1) // 2)) % half
        v = _root_in(half, e)
        return _make(half, tuple(sign * x for x in v.nums), 1)
    _check_cap(order)
    return _root_in(order, k)


def _split_square(n: int) -> tuple[int, int]:
    """n = base^2 * rem with rem squarefree (n > 0).  The square root of a
    prime above cap + 1 needs a conductor above the cap, so a cofactor of
    such primes that is not a square raises ConductorCapError."""
    found, rest = _trial_division(n)
    base, rem = isqrt(rest), 1
    if base * base != rest:
        raise ConductorCapError(f"the square root of {n} needs a conductor "
                                f"above cap {_conductor_cap}")
    for p, e in found:
        base *= p ** (e // 2)
        if e % 2:
            rem *= p
    return base, rem


def _sqrt_prime(p: int) -> CycNum:
    """A square root of the odd prime p (quadratic Gauss sum), or of 2.
    The cap is checked on every call; only the root is cached."""
    _check_cap(8 if p == 2 else p if p % 4 == 1 else 4 * p)
    return _gauss_sum(p)


@lru_cache(maxsize=None)
def _gauss_sum(p: int) -> CycNum:
    if p == 2:
        return CycNum.from_coeffs(8, [0, 1, 0, -1])  # zeta_8 - zeta_8^3
    legendre = [0] * p
    for t in range(1, p):
        legendre[(t * t) % p] = 1
    acc = CycNum(0)
    for t in range(1, p):
        term = root_of_unity(p, t)
        acc = acc + term if legendre[t] else acc - term
    if p % 4 == 3:
        acc = acc * root_of_unity(4, 1)  # gauss^2 = -p, fix with i
    return acc


def _sqrt_rational(q: Fraction) -> CycNum:
    if not q:
        return CycNum(0)
    n, d = q.numerator, q.denominator
    base, rem = _split_square(abs(n) * d)
    s = CycNum(Fraction(base, d))
    for p in _prime_factors(rem):
        s = s * _sqrt_prime(p)
    if n < 0:
        s = s * root_of_unity(4, 1)
    return s


def try_sqrt(a) -> CycNum | None:
    """Search for s with s*s = a.

    Strategy: rational values via integer factorization (Gauss sums supply
    square roots of squarefree parts); otherwise monomial values q*zeta^k.
    ``None`` only means the bounded search failed, not that a is a
    non-square.  Non-rational results are tie-broken to the candidate with
    the lexicographically smaller coefficient tuple.
    """
    a = CycNum(a) if not isinstance(a, CycNum) else a
    if not a:
        return CycNum(0)
    try:
        if a.is_rational():
            s = _sqrt_rational(a.as_fraction())
        else:
            mono = a.as_monomial()
            if mono is None:
                return None
            q, k = mono
            m = a.m
            if k % 2 == 0:
                root = root_of_unity(m, k // 2)
            elif m % 2 == 1:
                root = root_of_unity(m, (k + m) // 2)
            else:
                root = root_of_unity(2 * m, k)
            s = _sqrt_rational(q) * root
        if s * s != a:
            raise ArithmeticError(f"square root self-check failed for {a}")
    except ConductorCapError:
        return None
    if s.is_rational():
        return s if s.as_fraction() > 0 else -s
    s = s.reduced()
    # s and -s share one positive denominator, so numerators order them
    return s if s.nums <= (-s).nums else -s


def torsion_order(u: CycNum) -> int | None:
    """Multiplicative order of u if it is a root of unity, else None."""
    if not u:
        return None
    bound = u.m if u.m % 2 == 0 else 2 * u.m
    if u ** bound != 1:
        return None
    order = bound
    for p in _prime_factors(bound):
        while order % p == 0 and u ** (order // p) == 1:
            order //= p
    return order


def as_cyc(v) -> CycNum:
    """Coerce an int, Fraction or CycNum into a CycNum."""
    o = CycNum._coerce(v)
    return CycNum(v) if o is None else o

"""The gcd of two polynomials over Q(zeta_m), with its cofactors, from
images in F_p[x].

A polynomial over Q(zeta_m) enters as rows of integer numerators in the
power basis of Q(zeta_m).  For a prime p = 1 (mod m), Phi_m splits into
phi(m) linear factors mod p, and each of its roots r maps Z[zeta_m] onto
F_p (zeta -> r).  Euclid runs in F_p[x] on Python ints at each root; the
monic gcd and both cofactors are lifted back to the power basis by the
inverse Vandermonde matrix of the roots (in closed form, by Lagrange
interpolation), combined over primes by the CRT and read as rationals by
rational reconstruction (Encarnacion, J. Symb. Comp. 20 (1995); Langemyr
and McCallum, J. Symb. Comp. 8 (1989); von zur Gathen and Gerhard, Modern
Computer Algebra, 5.10 and ch. 6).  This module runs no elimination; the
library's divisibility tests and Bezout coefficients (``UPoly.xgcd``) are
read from the cofactors it returns.

An image is good when p divides neither denominator and both leading
coefficients are nonzero at the root.  Then the image of the gcd over
Q(zeta_m) divides the gcd of the images with the same degree (Gauss's
lemma at the prime), so a good image of degree 0 proves the operands
coprime.  Any other answer is only a candidate, accepted after exact
products.  Every pair of nonconstant operands takes this path; a zero or
constant operand is answered directly.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd as igcd, isqrt, lcm

from .cyclotomic import _check_cap, _prime_factors, _widen, euler_phi
from .poly import UPoly, _U1, _poly

# primes below 2^30, so that every residue is a one-digit Python int
_TOP = 1 << 30
# spare bits of a residue read as a numerator over a known denominator
_MARGIN = 20
_PRIMES: dict = {}   # m -> [(p, powers of the roots of Phi_m mod p)]


def _is_prime(n: int) -> bool:
    # Miller-Rabin with the bases 2, 3, 5, 7: exact below 3.2e9
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes(m: int):
    """The pairs (p, V) for Q(zeta_m), made once and cached: the primes p = 1
    (mod m) below 2^30 in descending order, and the Vandermonde matrix V mod
    p of the phi(m) roots r of Phi_m mod p, one row r^j (j < phi(m)) per
    root."""
    found = _PRIMES.setdefault(m, [])
    yield from found
    p = found[-1][0] if found else _TOP - _TOP % m + 1
    while p > m + 1:
        p -= m
        if not _is_prime(p):
            continue
        for g in range(2, p):
            w = pow(g, (p - 1) // m, p)
            if all(pow(w, m // q, p) != 1 for q in _prime_factors(m)):
                break
        roots = [pow(w, e, p) for e in range(1, m + 1) if igcd(e, m) == 1]
        found.append((p, [[pow(r, j, p) for j in range(len(roots))]
                          for r in roots]))
        yield found[-1]


@lru_cache(maxsize=None)
def _inverse_vandermonde(m: int, p: int) -> list:
    """The inverse mod p of the Vandermonde matrix that :func:`primes`
    pairs with p, in closed form (Lagrange): column i is the quotient
    Phi_m(x) / (x - r_i) over its value Phi_m'(r_i) at the root r_i, both
    by synthetic division.  Only a reconstruction needs it."""
    rows = next(vdm for q, vdm in _PRIMES[m] if q == p)
    roots = [row[1] for row in rows] if len(rows) > 1 else [1]
    phi_m = [1]   # Phi_m mod p, descending
    for r in roots:
        phi_m = [(x - r * y) % p for x, y in zip(phi_m + [0], [0] + phi_m)]
    cols = []
    for r in roots:
        q = _divmod(phi_m, [1, p - r], p)[0]
        s = pow(_divmod(q, [1, p - r], p)[1][0], -1, p)
        cols.append([c * s % p for c in reversed(q)])
    return [list(row) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# F_p[x]: coefficient lists in descending order, leading coefficient first

def _combine(ws: list, vectors: list, p: int) -> list:
    """sum_j ws[j] * vectors[j] mod p, entrywise."""
    acc = vectors[0] if ws[0] == 1 else [ws[0] * v for v in vectors[0]]
    for w, vec in zip(ws[1:], vectors[1:]):
        acc = [x + w * y for x, y in zip(acc, vec)]
    return [x % p for x in acc]


def _divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by b.  Entries are reduced mod p only
    where they are read: as a quotient digit, or at the end."""
    a, n, tail, q = list(a), len(b), b[1:], []
    inv = pow(b[0], -1, p)
    for i in range(len(a) - n + 1):
        c = a[i] * inv % p
        q.append(c)
        if c:
            a[i + 1:i + n] = [x - c * y for x, y in zip(a[i + 1:i + n], tail)]
    r = [x % p for x in a[len(q):]]
    while r and not r[0]:
        del r[0]
    return q, r


def _gcd(a: list, b: list, p: int) -> list:
    """The monic gcd of a and b, both nonzero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[0], -1, p)
    return [v * inv % p for v in a]


# ---------------------------------------------------------------------------
# rational reconstruction

def _rational(u: int, mod: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = u d (mod mod), |n| <= bound, 0 < d <= bound."""
    r0, r1, s0, s1 = mod, u % mod, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _reconstruct(residues, mod: int, bound: int) -> tuple[list, int] | None:
    """Numerators over one denominator D <= bound, or None.

    The running denominator D is tried first: a residue u is taken as t/D
    when t = u D (mod mod) has |t| D below mod / 2^_MARGIN, which a random
    residue passes with probability about 2^-_MARGIN.  So an integer
    coefficient needs _MARGIN bits above its size, not twice its size, as
    rational reconstruction (the fallback) does."""
    nums, den, half = [], 1, mod >> 1
    for u in residues:
        t = u * den % mod
        if t > half:
            t -= mod
        if abs(t) * den > mod >> _MARGIN:
            nd = _rational(t, mod, bound)
            if nd is None or den * nd[1] > bound:
                return None
            t, d = nd
            den *= d
            nums = [v * d for v in nums]
        nums.append(t)
    return nums, den


def cofactors(a, b):
    """(g, a/g, b/g) for the UPolys a and b, g the monic gcd: one if a or b
    is a nonzero constant, the other operand made monic if one is zero (zero
    if both are), else from images.  Their joint field must be within the
    conductor cap, else ConductorCapError.

    Coprime as soon as one good image is.  Otherwise each good prime whose
    images at all roots have the least degree so far adds its images to the
    CRT, and a candidate reconstructed from them is returned only if
    g * (a/g) = a and g * (b/g) = b hold exactly; then its degree, the least
    of a good image, is at least that of the gcd, so g is the gcd.  A
    candidate that fails, or none yet, adds a prime: only finitely many
    primes are unlucky, and the CRT modulus outgrows the coefficients of g,
    a/g and b/g.
    """
    if a.degree == 0 or b.degree == 0:
        return _U1, a, b
    if not a.nums:
        return (b.monic(), a, UPoly.const(b.lead())) if b.nums else (a, a, a)
    if not b.nums:
        return a.monic(), UPoly.const(a.lead()), b
    m = lcm(a.m, b.m)
    _check_cap(m)
    ra, rb = _widen(a.nums, a.m, m), _widen(b.nums, b.m, m)
    da, db = a.den, b.den
    phi = euler_phi(m)
    least, mod, acc = len(ra) + len(rb), 1, None
    for p, vdm in primes(m):
        if da % p == 0 or db % p == 0:
            continue
        # the numerators mod p, one list per power of zeta
        cols = [[[v % p for v in rows[j::phi]] for j in range(phi)]
                for rows in (ra, rb)]
        images = []
        for powers in vdm:
            ia, ib = (_combine(powers, c, p)[::-1] for c in cols)
            if not ia[0] or not ib[0]:
                break
            g = _gcd(ia, ib, p)
            if len(g) == 1:
                return _U1, a, b
            images.append((g, _divmod(ia, g, p)[0], _divmod(ib, g, p)[0]))
        else:
            degs = {len(g) for g, _, _ in images}
            if min(degs) < least:
                least, mod, acc = min(degs), 1, None
            if len(degs) != 1 or least not in degs:
                continue   # an unlucky prime, or roots that disagree
            # the coordinates mod p of g, a/g and b/g: for each coefficient,
            # ascending, its phi coordinates in the power basis
            values = [g[::-1] + ca[::-1] + cb[::-1] for g, ca, cb in images]
            flat = [v for coords in zip(*[_combine(row, values, p) for row in
                                          _inverse_vandermonde(m, p)])
                    for v in coords]
            if acc is None:
                acc, mod = flat, p
            else:
                inv = pow(mod, -1, p)
                acc = [x + mod * ((y - x) * inv % p) for x, y in zip(acc, flat)]
                mod *= p
            found, start, bound = [], 0, isqrt(mod >> 1)
            for im in images[0]:
                size = len(im) * phi
                rec = _reconstruct(acc[start:start + size], mod, bound)
                if rec is None:
                    break
                found.append(rec)
                start += size
            else:
                (g, dg), (ca, dca), (cb, dcb) = found
                g = _poly(m, g, dg)
                ca, cb = _poly(m, ca, dca * da), _poly(m, cb, dcb * db)
                if g * ca == a and g * cb == b:
                    return g, ca, cb
    raise ArithmeticError(f"the primes p = 1 (mod {m}) below 2^30 ran out "
                          "before a gcd was certified")

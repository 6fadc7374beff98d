"""Sparse multivariate polynomials with named variables (polynomial maps of
A^3, witness polynomials, identity checking), and their evaluation at
shared values: the one substitution routine behind :meth:`MPoly.substitute`,
:func:`poly3_compose`, :meth:`UPoly.compose` and :meth:`URatFun.compose` at
rational functions.  :mod:`poly` re-exports the public names.

An MPoly is stored as a UPoly is, sparsely: one field Q(zeta_m), one common
denominator and, per exponent tuple, the row of integer numerators of its
coefficient in the power basis, as FLINT's ``fmpq_mpoly`` stores content
times an integer polynomial.  Sums, scaling, products, powers, comparison
and evaluation at polynomials, rational functions and scalars run on these
integers, the products on :mod:`cyclotomic`'s row kernel; a CycNum is built
only where a coefficient is read (the ``c`` view, printing) or a scalar
value is returned.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import add

from .cyclotomic import (_mul_rows, _normal, _power, _quotient, _reduce,
                         _widen, as_cyc, euler_phi)
from .poly import (_SCALARS, _U1, UPoly, URatFun, _fmt_terms, _from_values,
                   _join, _poly)


def _make(variables: tuple, m: int, den: int, rows: dict) -> "MPoly":
    # trusted constructor: (m, den, rows) must already be in normal form
    out = object.__new__(MPoly)
    out.vars, out.m, out.den, out.rows = variables, m, den, rows
    return out


def _mpoly(variables: tuple, m: int, rows: dict, den: int) -> "MPoly":
    """The MPoly of the numerator rows (tuples) over Q(zeta_m) and den > 0,
    brought to normal form: zero rows dropped, the common factor of den and
    the numerators divided out, rational coefficients stored over Q."""
    rows = {e: r for e, r in rows.items() if any(r)}
    if not rows:
        return _make(variables, 1, 1, rows)
    if m != 1 and not any(any(r[1:]) for r in rows.values()):
        m, rows = 1, {e: r[:1] for e, r in rows.items()}
    if den != 1:
        g = gcd(den, *[v for r in rows.values() for v in r])
        if g != 1:
            den //= g
            rows = {e: tuple([v // g for v in r]) for e, r in rows.items()}
    return _make(variables, m, den, rows)


def _rows_at(p: "MPoly", m: int) -> dict:
    """The rows of p rewritten over Q(zeta_m), m a multiple of p.m."""
    if p.m == m:
        return p.rows
    phi = euler_phi(m)
    flat = _widen([v for r in p.rows.values() for v in r], p.m, m)
    return {e: tuple(flat[k * phi:(k + 1) * phi])
            for k, e in enumerate(p.rows)}


def _accumulate(acc: dict, x, rows: dict, shift, slot: int) -> None:
    """acc[e + shift] += x y for each row y at the exponent e of ``rows``
    (at e itself if shift is None), unreduced: a product of rows of wx and
    wy numerators has slot = wx + wy - 1 numerators; over Q (slot 1) the
    entries of acc are ints."""
    if slot == 1:
        x = x[0]
        for e, (y,) in rows.items():
            if shift:
                e = tuple(map(add, e, shift))
            acc[e] = acc.get(e, 0) + x * y
        return
    xs = [(i, v) for i, v in enumerate(x) if v]
    for e, y in rows.items():
        if shift:
            e = tuple(map(add, e, shift))
        raw = acc.get(e)
        if raw is None:
            raw = acc[e] = [0] * slot
        for j, b in enumerate(y):
            if b:
                for i, a in xs:
                    raw[i + j] += a * b


def _collect(variables: tuple, acc: dict, slot: int, m: int,
             den: int) -> "MPoly":
    # the MPoly of the sums of _accumulate over den, reduced mod Phi_m once
    if slot == 1:
        return _mpoly(variables, 1, {e: (v,) for e, v in acc.items()}, den)
    phi = euler_phi(m)
    flat = _reduce([v for raw in acc.values() for v in raw], slot, m)
    return _mpoly(variables, m, {e: tuple(flat[k * phi:(k + 1) * phi])
                                 for k, e in enumerate(acc)}, den)


def _widths(m: int, *fields) -> list[int]:
    # numerators per row of an operand over each field, rewritten over
    # Q(zeta_m): one for a rational operand, else phi(m)
    phi = euler_phi(m)
    return [1 if f == 1 else phi for f in fields]


def _frame(f: "MPoly", terms) -> tuple[int, int, int, int]:
    """(m, common, wf, wt) for the sum of c_e t_e over the terms t_e of f
    (MPoly or UPoly): their field Q(zeta_m) with f's, checked against the
    cap, the lcm of the terms' denominators, and the numerators per row of
    f and of the terms over Q(zeta_m)."""
    m, fields = f.m, {t.m for t in terms}
    for field in fields:
        m = _join(m, field)
    return (m, lcm(1, *[t.den for t in terms]),
            *_widths(m, f.m, lcm(1, *fields)))


def _mul(a: "MPoly", b: "MPoly") -> "MPoly":
    # a * b; a rational operand keeps one numerator per row
    if len(a.rows) > len(b.rows):
        a, b = b, a
    m = _join(a.m, b.m)
    wa, wb = _widths(m, a.m, b.m)
    rb = b.rows if wb == 1 else _rows_at(b, m)
    acc, slot = {}, wa + wb - 1
    for e, x in (a.rows if wa == 1 else _rows_at(a, m)).items():
        _accumulate(acc, x, rb, e, slot)
    return _collect(a.vars, acc, slot, m, a.den * b.den)


def _plus(a: "MPoly", b: "MPoly", sign: int) -> "MPoly":
    if not b.rows:
        return a
    if not a.rows:
        return b if sign > 0 else -b
    m = _join(a.m, b.m)
    g = gcd(a.den, b.den)
    sa, sb = b.den // g, sign * (a.den // g)
    ra = _rows_at(a, m)
    out = dict(ra) if sa == 1 else \
        {e: tuple([v * sa for v in r]) for e, r in ra.items()}
    for e, r in _rows_at(b, m).items():
        q = out.get(e)
        out[e] = tuple([v * sb for v in r]) if q is None else \
            tuple([x + y * sb for x, y in zip(q, r)])
    return _mpoly(a.vars, m, out, a.den * sa)


class MPoly:
    """Sparse multivariate polynomial with named variables over Q(zeta_m).

    Stored as the conductor ``m``, a common denominator ``den`` > 0 and
    ``rows``, a dict from exponent tuples to the integer numerators of
    their coefficients in the power basis of Q(zeta_m), phi(m) per row (one
    over Q).  The form is normal: no zero row, gcd(den, numerators) = 1,
    and m = 1 when every coefficient is rational.  ``c`` is a read-only
    view of the coefficients as CycNums.
    """

    __slots__ = ("vars", "m", "den", "rows")

    def __init__(self, variables: tuple[str, ...], coeffs: dict | None = None):
        self.vars = tuple(variables)
        n = len(self.vars)
        values = {}
        for e, v in (coeffs or {}).items():
            v = as_cyc(v)
            if v:
                if len(e) != n:
                    raise ValueError("exponent arity mismatch")
                values[tuple(e)] = v
        # the coefficients as one UPoly: its field, denominator and rows
        p = _from_values(values.values())
        phi = euler_phi(p.m)
        self.m, self.den = p.m, p.den
        self.rows = {e: p.nums[k * phi:(k + 1) * phi]
                     for k, e in enumerate(values)}

    @staticmethod
    def const(variables, v) -> "MPoly":
        v, variables = as_cyc(v), tuple(variables)   # v's normal form is ours
        if not v:
            return _make(variables, 1, 1, {})
        e = (0,) * len(variables)
        if not any(v.nums[1:]):
            return _make(variables, 1, v.den, {e: v.nums[:1]})
        return _make(variables, v.m, v.den, {e: v.nums})

    @staticmethod
    def var(variables, name) -> "MPoly":
        e = tuple(1 if n == name else 0 for n in variables)
        if sum(e) != 1:
            raise ValueError(f"unknown variable {name}")
        return _make(tuple(variables), 1, 1, {e: (1,)})

    @property
    def c(self) -> dict:
        """The coefficients as CycNums by exponent: a new dict on each
        access, so read it once per use."""
        m, den = self.m, self.den
        if m == 1:
            return {e: _quotient(r[0], den) for e, r in self.rows.items()}
        return {e: _normal(m, r, den) for e, r in self.rows.items()}

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self):
        return bool(self.rows)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.rows), default=-1)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        # the normal form's denominator does not depend on the conductor
        if (self.vars != other.vars or self.den != other.den
                or self.rows.keys() != other.rows.keys()):
            return False
        if self.m == other.m:
            return self.rows == other.rows
        m = lcm(self.m, other.m)
        return _rows_at(self, m) == _rows_at(other, m)

    __hash__ = None

    def _coerce(self, other):
        # the other operand as an MPoly in these variables; None if it is
        # neither an MPoly nor a scalar
        if isinstance(other, MPoly):
            if self.vars != other.vars:
                raise ValueError("variable sets differ")
            return other
        return MPoly.const(self.vars, other) \
            if isinstance(other, _SCALARS) else None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _plus(self, o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _plus(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _plus(o, self, -1)

    def __neg__(self):
        return _make(self.vars, self.m, self.den,
                     {e: tuple([-v for v in r]) for e, r in self.rows.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.rows or not o.rows:
            return _make(self.vars, 1, 1, {})
        return _mul(self, o)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, MPoly.const(self.vars, 1))

    def degrees(self) -> tuple[int, ...]:
        """The degree in each variable (0 throughout for the zero polynomial)."""
        return tuple(max((e[j] for e in self.rows), default=0)
                     for j in range(len(self.vars)))

    def rename(self, variables, names) -> "MPoly":
        """This polynomial in ``variables``, its own variables read as the
        distinct ``names`` among them, one per variable in order."""
        variables = tuple(variables)
        at = [variables.index(name) for name in names]
        if len(at) != len(self.vars) or len(set(at)) != len(at):
            raise ValueError("one distinct name per variable is needed")
        rows = {}
        for e, r in self.rows.items():
            k = [0] * len(variables)
            for i, x in zip(at, e):
                k[i] = x
            rows[tuple(k)] = r
        return _make(variables, self.m, self.den, rows)

    def substitute(self, values):
        """Evaluate at ring elements (CycNum, URatFun, MPoly, ...).

        At URatFun values the terms are summed over the common denominator
        prod_j den_j^(k_j), k_j the degree in variable j, by polynomial
        products only, and the sum is reduced to lowest terms once: one gcd
        per call instead of one per term and per power.
        """
        return _evaluate((self,), values)[0]

    def __str__(self) -> str:
        c = self.c
        return _fmt_terms((c[e], zip(self.vars, e))
                          for e in sorted(c, reverse=True))

    __repr__ = __str__


def _from_upoly(u: UPoly) -> MPoly:
    """The UPoly u as an MPoly in the one variable x, on the same rows."""
    phi = euler_phi(u.m)
    rows = {}
    for i in range(0, len(u.nums), phi):
        row = u.nums[i:i + phi]
        if any(row):
            rows[(i // phi,)] = row
    return _make(("x",), u.m, u.den, rows)


POLY3_VARS = ("X", "Y", "Z")


def poly3_var(name: str) -> MPoly:
    return MPoly.var(POLY3_VARS, name)


def poly3_compose(outer, inner):
    """Component-wise substitution of one A^3 polynomial triple in another."""
    return tuple(_evaluate(outer, inner))


def poly3_identity():
    return tuple(poly3_var(n) for n in POLY3_VARS)


def _evaluate(polys, values) -> list:
    """Each MPoly of ``polys`` at the shared ``values``.

    At URatFun values (scalars among them are read as constants) each
    polynomial is summed over its common denominator and reduced to lowest
    terms once, see :func:`_over_common_denominator`.  At MPoly values
    (scalars among them are read as constants) and at scalar values (read
    as constants in no variables) see :func:`_at_polynomials`.
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
    variables = next((v.vars for v in values if isinstance(v, MPoly)), None)
    if variables is not None:
        return _at_polynomials(polys, [
            v if isinstance(v, MPoly) else MPoly.const(variables, v)
            for v in values], variables)
    images = _at_polynomials(polys, [MPoly.const((), v) for v in values], ())
    return [p.c.get((), as_cyc(0)) for p in images]


def _at_polynomials(polys, values, variables) -> list[MPoly]:
    """Each MPoly f of ``polys`` at the MPoly ``values`` in ``variables``:
    sum_e c_e M_e, M_e the product of the values' powers for the exponent
    e, over the common denominator den(f) lcm_e den(M_e) by integer
    multiply-adds.  The power tables and the monomials are shared by the
    tuple."""
    if any(v.vars != variables for v in values):
        raise ValueError("variable sets differ")
    one = MPoly.const(variables, 1)
    tops = [max(col) for col in zip(*[e for f in polys for e in f.rows])]
    pows = []
    for v, top in zip(values, tops):
        table = [one, v]
        for _ in range(top - 1):
            table.append(_mul(table[-1], v))
        pows.append(table)
    monos = {}

    def monomial(e):
        if e not in monos:
            value = one
            for j, k in enumerate(e):
                if k:
                    value = pows[j][k] if value is one else \
                        _mul(value, pows[j][k])
            monos[e] = value
        return monos[e]

    out = []
    for f in polys:
        terms = [monomial(e) for e in f.rows]
        m, common, wf, wt = _frame(f, terms)
        acc, slot = {}, wf + wt - 1
        for c, t in zip((f.rows if wf == 1 else _rows_at(f, m)).values(),
                        terms):
            s = common // t.den
            _accumulate(acc, c if s == 1 else [v * s for v in c],
                        t.rows if wt == 1 else _rows_at(t, m), None, slot)
        out.append(_collect(variables, acc, slot, m, f.den * common))
    return out


def _over_common_denominator(polys, values) -> list[tuple[UPoly, UPoly]]:
    """(numerator, denominator) of each MPoly f of ``polys`` at the URatFun
    ``values``, unreduced: sum_e c_e prod_j num_j^(e_j) den_j^(k_j - e_j) over
    prod_j den_j^(k_j), k_j the degree of f in variable j.

    The work is polynomial products only, no gcd; the power tables and the
    products of their entries are shared by the tuple.  The terms are
    scaled by the coefficient rows and summed over one common denominator,
    into which den(f) is folded.
    """
    degrees = [f.degrees() for f in polys]
    nums, dens = [], []
    for j, v in enumerate(values):
        top = max((ks[j] for ks in degrees), default=0)
        n, d = [_U1], [_U1]
        for _ in range(top):
            n.append(n[-1] * v.num)
            d.append(d[-1] if v.is_poly() else d[-1] * v.den)
        nums.append(n)
        dens.append(d)
    prods = {}   # (exponent prefix, degree prefix) -> product of its factors
    out = []
    for f, ks in zip(polys, degrees):
        terms = []
        for e in f.rows:
            term = _U1
            for j, k in enumerate(ks):
                if k:
                    key = (e[:j + 1], ks[:j + 1])
                    if key not in prods:
                        prods[key] = term * (nums[j][e[j]] * dens[j][k - e[j]])
                    term = prods[key]
            terms.append(term)
        m, common, wf, wt = _frame(f, terms)
        acc = []
        for c, t in zip((f.rows if wf == 1 else _rows_at(f, m)).values(),
                        terms):
            s = common // t.den
            tn = t.nums if wt == 1 else _widen(t.nums, t.m, m)
            if wf == wt == 1:
                k = c[0] * s
                prod = [k * v for v in tn]
            else:
                prod = _mul_rows([v * s for v in c], wf, tn, wt, m)
            if len(prod) > len(acc):
                acc.extend([0] * (len(prod) - len(acc)))
            acc[:len(prod)] = map(add, acc, prod)
        den = _U1
        for j, k in enumerate(ks):
            den = den * dens[j][k]
        out.append((_poly(m, acc, f.den * common), den))
    return out

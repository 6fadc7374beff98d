"""Parsers for the textual input grammars.

Coefficient atoms are rationals ``p/q`` and cyclotomic literals
``cyc(m; c0, c1, ...)``.  Polynomials use ``+ - * / ^`` with explicit
multiplication, variables ``x, y`` (homogeneous pairs), ``x`` (univariate)
and ``X, Y, Z`` (space maps).  Points are ``[expr : expr]``, 2x2 matrices
``[[a, b], [c, d]]``.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .cyclotomic import CycNum
from .errors import InputBoundError, ParseError
from .poly import MPoly, UPoly, URatFun, HPoly2, POLY3_VARS

# the largest product of the exponents applied to any subexpression, through
# ``^`` chains and parenthesized nesting; checked before any power
MAX_EXPONENT = 64
# the largest number of terms a product or power of multivariate
# polynomials may have; its upper bound is checked before it is computed
MAX_TERMS = 2048


class _Tok:
    __slots__ = ("kind", "val", "pos")

    def __init__(self, kind, val, pos):
        self.kind, self.val, self.pos = kind, val, pos


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()[]:,;=":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    toks.append(_Tok("end", None, n))
    return toks


def _check_exponents(toks) -> None:
    """Bound the product of the exponents applied to any subexpression.

    ``a^e1^e2`` is ``(a^e1)^e2`` and ``(... a^e1 ...)^e2`` contains
    ``a^(e1*e2)``, so chained and nested exponents multiply.  The check runs
    on the tokens, before any power is computed; malformed input is left to
    the parser.
    """
    groups = [1]   # per open parenthesis: the largest product inside so far
    last = 1       # product applied to the operand that ends here
    for k, t in enumerate(toks):
        if t.kind == "(":
            groups.append(1)
        elif t.kind == ")" and len(groups) > 1:
            last = groups.pop()
            groups[-1] = max(groups[-1], last)
        elif t.kind == "^" and toks[k + 1].kind == "num":
            e = toks[k + 1].val
            last *= e
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} at position {toks[k + 1].pos} "
                                 f"exceeds {MAX_EXPONENT}")
            if last > MAX_EXPONENT:
                raise ParseError(f"exponent product {last} at position "
                                 f"{toks[k + 1].pos} exceeds {MAX_EXPONENT}")
            groups[-1] = max(groups[-1], last)
        elif t.kind in ("num", "name") and toks[k - 1].kind != "^":
            last = 1


def _check_terms(v: MPoly, count: int, degree: int, what: str) -> None:
    """Raise if a product may have more than MAX_TERMS terms.

    Its term count is at most ``count``, and at most the number of monomials
    of total degree ``degree`` or less in the variables of ``v``.
    """
    k = len(v.vars)
    bound = min(count, comb(degree + k, k)) if degree >= 0 else 0
    if bound > MAX_TERMS:
        raise InputBoundError(f"{what} may have {bound} terms, "
                              f"more than {MAX_TERMS}")


class _Parser:
    """Recursive-descent expression parser over a coefficient environment.

    ``env`` maps variable names to ring values.  Division is delegated to
    ``divide`` so each target ring can allow or reject it.
    """

    def __init__(self, text: str, env: dict, const, divide):
        self.text = text
        self.toks = _tokenize(text)
        _check_exponents(self.toks)
        self.i = 0
        self.env = env
        self.const = const
        self.divide = divide

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.kind!r} "
                             f"at position {t.pos} in {self.text!r}")
        self.i += 1
        return t

    def done(self):
        if self.peek().kind != "end":
            t = self.peek()
            raise ParseError(f"trailing input at position {t.pos} in {self.text!r}")

    def expr(self):
        t = self.peek()
        if t.kind in "+-":
            self.take()
            v = self.term()
            v = -v if t.kind == "-" else v
        else:
            v = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self):
        v = self.power()
        while self.peek().kind in "*/":
            op = self.take()
            rhs = self.power()
            if op.kind == "/":
                v = self.divide(v, rhs)
                continue
            if isinstance(v, MPoly):
                _check_terms(v, len(v.c) * len(rhs.c),
                             v.total_degree() + rhs.total_degree(),
                             f"product at position {op.pos}")
            v = v * rhs
        return v

    def power(self):
        v = self.atom()
        while self.peek().kind == "^":
            self.take()
            e = self.take("num")
            if isinstance(v, MPoly) and v.c:
                # a term of v^e is a multiset of e terms of v
                _check_terms(v, comb(len(v.c) + e.val - 1, e.val),
                             e.val * v.total_degree(),
                             f"power at position {e.pos}")
            v = v ** e.val
        return v

    def atom(self):
        t = self.take()
        if t.kind == "num":
            return self.const(Fraction(t.val))
        if t.kind == "(":
            v = self.expr()
            self.take(")")
            return v
        if t.kind == "name":
            if t.val == "cyc":
                return self.const(self.cyc_literal())
            if t.val in self.env:
                return self.env[t.val]
            raise ParseError(f"unknown variable {t.val!r} at position {t.pos}")
        raise ParseError(f"unexpected token {t.kind!r} at position {t.pos}")

    def signed_rational(self) -> Fraction:
        sign = 1
        while self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -sign
        num = self.take("num").val
        den = 1
        if self.peek().kind == "/":
            self.take()
            den = self.take("num").val
        return Fraction(sign * num, den)

    def cyc_literal(self) -> CycNum:
        self.take("(")
        m = self.take("num").val
        if m < 1:
            raise ParseError("cyclotomic conductor must be positive")
        self.take(";")
        coeffs = [self.signed_rational()]
        while self.peek().kind == ",":
            self.take()
            coeffs.append(self.signed_rational())
        self.take(")")
        # from_coeffs checks the conductor cap before it counts coefficients
        try:
            return CycNum.from_coeffs(m, coeffs)
        except ValueError as e:
            raise ParseError(f"cyc({m}; ...): {e}") from None


def _div_generic(a, b):
    try:
        return a / b
    except ZeroDivisionError as e:
        raise ParseError(str(e)) from e


def _div_mpoly(a: MPoly, b: MPoly):
    if not b.is_zero() and b.total_degree() == 0:
        inv = next(iter(b.c.values())).inverse()
        return a * inv
    raise ParseError("division by a non-constant is not allowed here")


def parse_constant(text: str) -> CycNum:
    p = _Parser(text, {}, lambda q: CycNum(q), _div_generic)
    v = p.expr()
    p.done()
    return v


def parse_ratfun(text: str) -> URatFun:
    env = {"x": URatFun.x(), "t": URatFun.x()}
    p = _Parser(text, env, URatFun.const, _div_generic)
    v = p.expr()
    p.done()
    return v


def parse_upoly(text: str) -> UPoly:
    v = parse_ratfun(text)
    if not v.is_poly():
        raise ParseError(f"{text!r} is not a polynomial")
    return v.num  # denominator is monic constant 1 after reduction


def _parse_mpoly(text: str, variables) -> MPoly:
    env = {name: MPoly.var(variables, name) for name in variables}
    p = _Parser(text, env, lambda q: MPoly.const(variables, q), _div_mpoly)
    v = p.expr()
    p.done()
    return v


def parse_poly3(text: str) -> MPoly:
    return _parse_mpoly(text, POLY3_VARS)


def parse_hpoly(text: str) -> HPoly2:
    mp = _parse_mpoly(text, ("x", "y"))
    if mp.is_zero():
        return HPoly2.zero()
    degrees = {i + j for (i, j) in mp.c}
    if len(degrees) != 1:
        raise ParseError(f"{text!r} is not homogeneous")
    d = degrees.pop()
    return HPoly2(d, {i: v for (i, j), v in mp.c.items()})


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _items(text: str, sep: str) -> list[str]:
    """The nonempty top-level items of a ``sep``-separated list."""
    return [part for part in _split_top(text.strip(), sep) if part]


def _two_entries(text: str, shape: str, sep: str, what: str) -> list[str]:
    """The two entries of a bracketed pair written like ``shape``, such as
    ``[a : b]``, split at ``sep``."""
    text = text.strip()
    if not (text.startswith(shape[0]) and text.endswith(shape[-1])):
        raise ParseError(f"{what} must look like {shape}, got {text!r}")
    parts = _split_top(text[1:-1], sep)
    if len(parts) != 2:
        raise ParseError(f"{what} needs two entries: {text!r}")
    return parts


def parse_point(text: str) -> tuple[CycNum, CycNum]:
    a, b = _two_entries(text, "[a : b]", ":", "point")
    return parse_constant(a), parse_constant(b)


def parse_points(text: str) -> list[tuple[CycNum, CycNum]]:
    """Points separated by commas; commas inside a point sit in brackets."""
    out = [parse_point(chunk) for chunk in _items(text, ",")]
    if not out:
        raise ParseError("empty point list")
    return out


def parse_matrix2(text: str) -> tuple[CycNum, CycNum, CycNum, CycNum]:
    rows = _two_entries(text, "[[a, b], [c, d]]", ",", "matrix")
    return tuple(parse_constant(entry) for row in rows
                 for entry in _two_entries(row, "[a, b]", ",", "matrix row"))


def parse_generators(text: str) -> list[tuple[CycNum, CycNum, CycNum, CycNum]]:
    """2x2 matrices separated by ';'."""
    out = [parse_matrix2(chunk) for chunk in _items(text, ";")]
    if not out:
        raise ParseError("empty generator list")
    return out


def parse_pairs(text: str) -> list[tuple[CycNum, CycNum]]:
    """Parameter pairs ``(a, b); (c, d); ...``."""
    return [tuple(parse_constant(entry) for entry in
                  _two_entries(chunk, "(a, b)", ",", "parameter pair"))
            for chunk in _items(text, ";")]


def parse_constants(text: str) -> list[CycNum]:
    """Constants separated by commas."""
    return [parse_constant(chunk) for chunk in _items(text, ",")]


def parse_poly3_triple(text: str) -> tuple[MPoly, MPoly, MPoly]:
    parts = _split_top(text.strip(), ";")
    if len(parts) != 3:
        raise ParseError("expected three components separated by ';'")
    return tuple(parse_poly3(p) for p in parts)


def parse_ratfun_triple(text: str) -> tuple[URatFun, URatFun, URatFun]:
    parts = _split_top(text.strip(), ";")
    if len(parts) != 3:
        raise ParseError("expected three components separated by ';'")
    return tuple(parse_ratfun(p) for p in parts)

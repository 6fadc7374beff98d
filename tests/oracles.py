"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own code paths wherever a value is
being cross-checked: the stabilizer search uses a different base triple and
enumeration order, square roots are verified by squaring, and polynomial
identities are evaluated pointwise at many rational points.
"""
from __future__ import annotations

from fractions import Fraction

from equicurve.cyclotomic import CycNum
from equicurve.equivariant import EndoPair, act_on_pair, contract
from equicurve.errors import PNotInvariantError
from equicurve.poly import HPoly2
from equicurve.projline import (
    FinSubgroupG,
    FinSubgroupH,
    Moebius,
    P1Point,
    aut_of_lambda,
)


def stabilizer_oracle(points: list[P1Point], cap: int = 120) -> FinSubgroupH:
    """Exhaustive triple search with the last three points as base triple
    and reversed enumeration order."""
    n = len(points)
    return aut_of_lambda(points, cap=cap, base=(n - 1, n - 2, n - 3),
                         reverse=True)


def same_group(h1: FinSubgroupH, h2: FinSubgroupH) -> bool:
    if h1.order != h2.order:
        return False
    return all(any(g == e for e in h2.elements) for g in h1.elements)


def eval_equal(f: HPoly2, g: HPoly2, samples: int = 12) -> bool:
    """Pointwise comparison at deterministic rational points; an oracle for
    polynomial equality that does not share code with HPoly2.__eq__."""
    pts = [(Fraction(i, 1), Fraction(1, 1)) for i in range(-3, 4)]
    pts += [(Fraction(1, 1), Fraction(0, 1)), (Fraction(2, 3), Fraction(5, 7)),
            (Fraction(-7, 2), Fraction(1, 3)), (Fraction(11, 5), Fraction(-2, 9)),
            (Fraction(1, 13), Fraction(17, 4))]
    for a, b in pts[:samples]:
        va = f.eval(CycNum(a), CycNum(b)) if not f.is_zero() else CycNum(0)
        vb = g.eval(CycNum(a), CycNum(b)) if not g.is_zero() else CycNum(0)
        if va != vb:
            return False
    return True


def brute_force_orbit(g_list: list[Moebius], p: P1Point) -> list[P1Point]:
    out = [p]
    changed = True
    while changed:
        changed = False
        for g in g_list:
            for q in list(out):
                r = g.apply(q)
                if not any(r == t for t in out):
                    out.append(r)
                    changed = True
    return out


def reynolds_average_full_group(pair: EndoPair, G: FinSubgroupG) -> EndoPair:
    """Reynolds average summed over every element of G, -I included; the
    library sums over one lift per element of H instead."""
    P = contract(pair)
    for g in G.generators:
        if P.compose_matrix(g.entries()) != P:
            raise PNotInvariantError(
                "contraction is not fixed by the group; cannot average")
    acc1, acc2 = HPoly2.zero(), HPoly2.zero()
    for g in G.elements:
        moved = act_on_pair(g, pair)
        acc1 = moved.f1 if acc1.is_zero() else (
            acc1 if moved.f1.is_zero() else acc1 + moved.f1)
        acc2 = moved.f2 if acc2.is_zero() else (
            acc2 if moved.f2.is_zero() else acc2 + moved.f2)
    s = CycNum(Fraction(1, len(G.elements)))
    return EndoPair(acc1.scale(s), acc2.scale(s))

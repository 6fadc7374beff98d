"""The one Gaussian elimination: fraction-free on integer rows (Bareiss,
Math. Comp. 22, 1968), each updated row divided by its gcd.  It serves the
witness searches, whose systems over Q(zeta_m) are written over Q in the
power basis, and the subfield descent of :mod:`cyclotomic`.
"""
from __future__ import annotations

from math import gcd, lcm


def _combine(p: int, row: list[int], f: int, piv: list[int]) -> list[int]:
    out = [p * a - f * b for a, b in zip(row, piv)]
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def eliminate(aug: list[list[int]], ncol: int) -> list[int]:
    """Gauss-Jordan on the first ``ncol`` columns of the rows ``aug``, in
    place; returns the pivot columns, ascending.

    The rows from the rank on end zero in the first ``ncol`` columns.  The
    back pass works only on what a caller reads, so each row i < rank is
    replaced by its entries in the pivot columns, in order, followed by its
    columns from ``ncol`` on: its pivot is entry i, and the entries of the
    other pivot columns are zero.
    """
    n, pivots = len(aug), []
    for col in range(ncol):
        r = len(pivots)
        sel = next((i for i in range(r, n) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        piv = aug[r][col:]
        for row in aug[r + 1:]:
            if row[col]:
                row[col:] = _combine(piv[0], row[col:], row[col], piv)
        pivots.append(col)
    rank = len(pivots)
    aug[:rank] = [[a[j] for j in pivots] + a[ncol:] for a in aug[:rank]]
    for r in range(rank - 1, 0, -1):
        piv = aug[r]
        for i in range(r):
            if aug[i][r]:
                aug[i] = _combine(piv[r], aug[i], aug[i][r], piv)
    return pivots


def solve_linear(rows: list[list[int]], rhs: list[int]):
    """The canonical solution ``(nums, den)`` of rows @ x = rhs over Q, for
    integer rows: x = nums / den with den > 0 minimal, every free variable
    zero and columns in input order; None when the system is inconsistent.
    """
    ncol = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = eliminate(aug, ncol)
    rank = len(pivots)
    if any(a[ncol] for a in aug[rank:]):
        return None
    den = lcm(1, *(abs(a[i]) // gcd(a[i], a[rank])
                   for i, a in enumerate(aug[:rank])))
    nums = [0] * ncol
    for i, c in enumerate(pivots):
        nums[c] = aug[i][rank] * den // aug[i][i]
    return nums, den

"""The integer elimination against the CycNum Gauss-Jordan oracle."""
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from equicurve.cyclotomic import CycNum
from equicurve.linalg import eliminate, solve_linear

from oracles import _rank, solve_linear_field

entries = st.integers(-9, 9)


@st.composite
def systems(draw):
    """(rows, rhs): n x ncol integer rows of rank at most k, some columns
    and rows forced to zero, and a right-hand side that is either a random
    vector (often inconsistent) or the image of a random vector."""
    n, ncol = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    k = draw(st.integers(0, min(n, ncol)))
    basis = [draw(st.lists(entries, min_size=ncol, max_size=ncol))
             for _ in range(k)]
    rows = []
    for _ in range(n):
        mix = draw(st.lists(entries, min_size=k, max_size=k))
        rows.append([sum(c * b[j] for c, b in zip(mix, basis))
                     for j in range(ncol)])
    zero_cols = draw(st.sets(st.integers(0, max(ncol - 1, 0)), max_size=2))
    zero_rows = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
    rows = [[0 if j in zero_cols or i in zero_rows else v
             for j, v in enumerate(r)] for i, r in enumerate(rows)]
    if draw(st.booleans()):
        rhs = draw(st.lists(entries, min_size=n, max_size=n))
    else:
        x = draw(st.lists(entries, min_size=ncol, max_size=ncol))
        rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_linear_agrees_with_the_field_oracle(system):
    rows, rhs = system
    got, want = solve_linear(rows, rhs), solve_linear_field(rows, rhs)
    if want is None:
        assert got is None
        return
    nums, den = got
    assert den > 0 and gcd(den, *nums) == 1
    assert [Fraction(v, den) for v in nums] == [w.as_fraction() for w in want]


def test_solve_linear_edge_cases():
    assert solve_linear([], []) == ([], 1)
    assert solve_linear([[], []], [0, 0]) == ([], 1)
    assert solve_linear([[], []], [0, 3]) is None
    assert solve_linear([[0, 0], [0, 0]], [0, 0]) == ([0, 0], 1)
    # free variables are zero and columns keep their order
    assert solve_linear([[0, 2, 4]], [3]) == ([0, 3, 0], 2)
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_linear([[-4], [6]], [2, -3]) == ([-1], 2)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_eliminate_invariants(system):
    """On [A | I], the rows below the rank annihilate A, and the pivot row i,
    kept as its pivot columns then its identity part, is its pivot times
    the i-th unit vector, both as kept and as the combination of A's rows
    on the pivot columns that its identity part records."""
    rows, _ = system
    n = len(rows)
    ncol = len(rows[0]) if rows else 0
    aug = [list(r) + [int(i == k) for k in range(n)]
           for i, r in enumerate(rows)]
    pivots = eliminate(aug, ncol)
    rank = len(pivots)
    assert pivots == sorted(set(pivots))
    assert rank == _rank([[CycNum(v) for v in r] for r in rows])
    for i, row in enumerate(aug):
        if i >= rank:
            image = [sum(t * r[j] for t, r in zip(row[ncol:], rows))
                     for j in range(ncol)]
            assert not any(row[:ncol])
            assert not any(image) and any(row[ncol:])
            continue
        assert len(row) == rank + n and row[i]
        for k, c in enumerate(pivots):
            assert row[k] == (row[i] if k == i else 0)
            assert sum(t * r[c] for t, r in zip(row[rank:], rows)) == row[k]

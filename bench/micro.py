"""Warm single-operation timings for the cyclotomic, poly and projline layers.

Operands are drawn from the run's seed.  Each operation is warmed once, then
timed in batches; the reported figure is the median batch time per call.
Cold-process costs are measured elsewhere (``setup_s``, ``cli.import_s``).
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

CONDUCTORS = (1, 3, 4, 5, 8, 12, 20)
DEGREES = (6, 12, 24)
POINT_COUNTS = (6, 8, 10, 12)
BATCHES = 5
BATCH_S = 0.01


def per_call_s(fn, operands) -> float:
    """Median over batches of the time of one call of ``fn(*operand)``."""
    for op in operands:
        fn(*op)
    t0 = time.perf_counter()
    fn(*operands[0])
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(BATCH_S / once))
    samples = []
    for b in range(BATCHES):
        ops = [operands[(b + k) % len(operands)] for k in range(reps)]
        t0 = time.perf_counter()
        for op in ops:
            fn(*op)
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def _rand_cyc(rng, m):
    from equicurve.cyclotomic import CycNum, euler_phi
    return CycNum.from_coeffs(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                  for _ in range(euler_phi(m))])


def cyclotomic_metrics(rng) -> dict:
    out = {}
    for m in CONDUCTORS:
        vals = [_rand_cyc(rng, m) for _ in range(8)]
        vals = [v for v in vals if v] or [_rand_cyc(rng, 1) + 1]
        pairs = [(vals[i], vals[(i + 1) % len(vals)]) for i in range(len(vals))]
        singles = [(v,) for v in vals]
        out[f"cyclotomic.mul_us.m{m}"] = 1e6 * per_call_s(lambda a, b: a * b, pairs)
        out[f"cyclotomic.inverse_us.m{m}"] = 1e6 * per_call_s(
            lambda a: a.inverse(), singles)
        out[f"cyclotomic.reduced_us.m{m}"] = 1e6 * per_call_s(
            lambda a: a.reduced(), singles)
    return out


def _rand_hpoly(rng, d):
    # Gaussian-rational coefficients, the field of the tetrahedral and
    # octahedral pullbacks
    from equicurve.cyclotomic import CycNum, root_of_unity
    from equicurve.poly import HPoly2
    i = root_of_unity(4)
    coeffs = {k: CycNum(rng.randint(-5, 5)) + rng.randint(-3, 3) * i
              for k in range(d + 1)}
    coeffs[d] = CycNum(1)
    return HPoly2(d, coeffs)


def poly_metrics(rng) -> dict:
    from equicurve.cyclotomic import root_of_unity
    from equicurve.poly import compose_matrix_many
    i = root_of_unity(4)
    out = {}
    for d in DEGREES:
        polys = [_rand_hpoly(rng, d) for _ in range(4)]
        mats = [(rng.randint(1, 3) * i, rng.randint(-2, 2), 1,
                 rng.randint(1, 3) + i) for _ in range(4)]
        half = [_rand_hpoly(rng, d // 2) for _ in range(6)]
        gcd_ops = [(half[k] * half[(k + 1) % 6], half[(k + 2) % 6] * half[(k + 1) % 6])
                   for k in range(3)]
        out[f"poly.hpoly_mul_us.d{d}"] = 1e6 * per_call_s(
            lambda p, q: p * q, [(polys[k], polys[k - 1]) for k in range(4)])
        out[f"poly.compose_matrix_many_us.d{d}"] = 1e6 * per_call_s(
            lambda p, q, m: compose_matrix_many((p, q), m),
            [(polys[k], polys[k - 1], mats[k]) for k in range(4)])
        out[f"poly.hpoly_gcd_us.d{d}"] = 1e6 * per_call_s(
            lambda p, q: p.gcd(q), gcd_ops)
    return out


def projline_metrics(rng, failures: list) -> dict:
    """One warm ``aut_of_lambda`` call on the n-th roots of unity, rescaled
    by a seeded rational: the r-scaling curve of the stabilizer search."""
    from equicurve.cyclotomic import CycNum, root_of_unity
    from equicurve.projline import P1Point, aut_of_lambda
    out = {}
    for n in POINT_COUNTS:
        c = CycNum(Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 3])))
        pts = [P1Point(c * root_of_unity(n, k), 1) for k in range(n)]
        aut_of_lambda(pts[:3])
        t0 = time.perf_counter()
        h = aut_of_lambda(pts)
        out[f"projline.aut_of_lambda_s.r{n}"] = time.perf_counter() - t0
        if h.order != 2 * n:
            failures.append(f"roots of unity n={n}: stabilizer order {h.order}, "
                            f"expected {2 * n}")
    return out


def all_metrics(seed: int, failures: list) -> dict:
    """Every micro metric; wrong results are appended to ``failures``."""
    rng = random.Random(seed)
    out = cyclotomic_metrics(rng)
    out.update(poly_metrics(rng))
    out.update(projline_metrics(rng, failures))
    return out

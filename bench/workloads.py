"""Seeded inputs, jobs and reference checks for the four benchmark workloads.

A workload is an endless stream of rounds; a round is a list of jobs in
seeded order, generated only when the previous round has been used up.
Every round draws fresh inputs from the same fixed composition of cells
(input size, field, group), so the cost of a round barely depends on the
seed while the inputs themselves do.  A job runs one construction with all
of its certificates; its check (run outside the timed region) compares the
result with a reference that does not come from the construction itself.

Library functions are always reached through their module (``projline.
aut_of_lambda``), so the tracer in ``tracer.py`` sees every call.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

WORKLOADS = ("stabilizer", "embed", "planar", "cli")


@dataclass
class Job:
    name: str                          # cell label, e.g. "aut rand r=7 k3=2"
    key: str                           # canonical text of the inputs
    run: Callable[[], object]          # construction plus certificates
    check: Callable[[object], str | None]   # None when the result is right
    argv: list[str] | None = None      # cli jobs: the command line and the
    env: dict | None = None            # environment of the child process


def import_library():
    """Put ``src`` and ``tests`` on the path and import the library."""
    if not (SRC / "equicurve" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {SRC}")
    for p in (str(TESTS), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import equicurve  # noqa: F401


def _cert_failure(cert) -> str | None:
    if not cert.clauses:
        return "certificate has no clauses"
    bad = [cl.claim for cl in cert.clauses if not cl.ok]
    return f"non-PASS clause in {cert.title}: {bad[0]}" if bad else None


# ---------------------------------------------------------------------------
# stabilizer: aut_of_lambda on hand-known symmetric sets and random sets

def _stabilizer_rounds(seed: int) -> Iterator[list[Job]]:
    from equicurve import projline
    from equicurve.cyclotomic import CycNum, root_of_unity
    from equicurve.embed3 import standard_group
    P1Point = projline.P1Point
    w, i4 = root_of_unity(3), root_of_unity(4)
    # the pool of acceptance criterion 9, split by field
    rational = [0, 1, -1, 2, -2, 3, 5, Fraction(1, 2)]
    zeta3 = [w, w * w, 2 * w, 1 + w]
    gauss = [i4, -i4]
    scales = [1, 2, -1, Fraction(1, 2), 3, -2]

    octa = standard_group("octahedral")
    order3 = next(g for g in octa.elements if g.order() == 3)
    face_orbit = _orbit(octa.elements, projline.fixed_points(order3)[0])

    def roots(n, with_poles):
        pts = [P1Point(root_of_unity(n, k), 1) for k in range(n)]
        return pts + [P1Point(0, 1), P1Point(1, 0)] if with_poles else pts

    # (label, points, expected kind, expected order); rescaling by x -> c x
    # conjugates the stabilizer, so kind and order stay as written here
    # roots n=8 (about 1.4 s) is left to projline.aut_of_lambda_s.r8: with
    # it the 11th-largest job time sat on a gap between job sizes
    known = [(f"roots n={n}", roots(n, False), f"Dihedral({n})", 2 * n)
             for n in (3, 4, 5, 6)]
    known += [(f"roots n={n} with 0, oo", roots(n, True),
               "Octahedral" if n == 4 else f"Dihedral({n})",
               24 if n == 4 else 2 * n) for n in (3, 4, 5, 6)]
    known.append(("octahedral 8-point orbit", face_orbit, "Octahedral", 24))

    cells = [(r, k3, k4) for r in range(3, 10)
             for (k3, k4) in ((0, 0), (2, 0), (0, 2), (1, 1))
             if not (k3 == k4 == 1 and r > 7)]
    rng = random.Random(seed)
    while True:
        jobs = []
        for label, pts, kind, order in known:
            c = CycNum(rng.choice(scales))
            scaled = [P1Point(c * p.a, p.b) for p in pts]
            jobs.append(_aut_job(f"aut {label}", scaled,
                                 _expect_kind(kind, order)))
        for r, k3, k4 in cells:
            inf = (r + k3) % 2
            vals = (rng.sample(zeta3, k3) + rng.sample(gauss, k4)
                    + rng.sample(rational, r - k3 - k4 - inf))
            pts = [P1Point(CycNum(v), 1) for v in vals]
            if inf:
                pts.append(P1Point.infinity())
            rng.shuffle(pts)
            jobs.append(_aut_job(f"aut rand r={r} k3={k3} k4={k4}", pts,
                                 _expect_oracle(pts)))
        rng.shuffle(jobs)
        yield jobs


def _orbit(elements, p):
    out = []
    for g in elements:
        q = g.apply(p)
        if not any(q == t for t in out):
            out.append(q)
    return out


def _aut_job(name, pts, check) -> Job:
    from equicurve import certificates, projline

    def run():
        h = projline.aut_of_lambda(pts)
        cert = certificates.Certificate("stabilizer checks")
        for g in h.elements:
            cert.check(f"{g} preserves the set",
                       all(any(g.apply(p) == q for q in pts) for p in pts))
        return h, cert

    return Job(name, "aut " + ",".join(map(str, pts)), run, check)


def _expect_kind(kind: str, order: int):
    def check(result):
        h, cert = result
        if (str(h.kind), h.order) != (kind, order):
            return f"stabilizer {h.kind} of order {h.order}, expected {kind}"
        return _cert_failure(cert)
    return check


def _expect_oracle(pts):
    oracle = []   # computed once; the traced run checks each job three times

    def check(result):
        from oracles import same_group, stabilizer_oracle
        h, cert = result
        if not oracle:
            oracle.append(stabilizer_oracle(pts))
        if not same_group(h, oracle[0]):
            return f"stabilizer {h.kind} differs from the oracle's"
        return _cert_failure(cert)
    return check


# ---------------------------------------------------------------------------
# embed: equivariant A^3 embeddings and closed-form preset families

def _embed_rounds(seed: int) -> Iterator[list[Job]]:
    from equicurve import projline
    from equicurve.cyclotomic import CycNum, root_of_unity
    from equicurve.embed3 import closed_form_pair
    Moebius, P1Point = projline.Moebius, projline.P1Point
    i4, z8 = root_of_unity(4), root_of_unity(8)

    def gens(kind, n):
        # the generators a CLI user passes with --gens
        if kind == "cyclic":
            return [Moebius(root_of_unity(n), 0, 0, 1)]
        if kind == "dihedral":
            return [Moebius(root_of_unity(n), 0, 0, 1), Moebius(0, 1, 1, 0)]
        if kind == "tetrahedral":
            return [Moebius(i4, i4, 1, -1), Moebius(1, 0, 0, -1)]
        return [Moebius(i4, i4, 1, -1), Moebius(i4, 0, 0, 1)]

    orders = {"tetrahedral": 12, "octahedral": 24}
    elements = {}
    for kind, ns in (("cyclic", (2, 3, 4, 5, 6)), ("dihedral", (2, 3, 4)),
                     ("tetrahedral", (None,)), ("octahedral", (None,))):
        for n in ns:
            elements[kind, n] = projline.group_closure(gens(kind, n)).elements
    generic = [2, 3, 5, 7, -2, -3, Fraction(1, 2), Fraction(3, 2),
               Fraction(-1, 3), Fraction(5, 2), 1 + i4, 2 * i4]
    special = {"tetrahedral": [P1Point(0, 1), P1Point(z8, 1)],
               "octahedral": [P1Point(0, 1)]}
    # cells: (kind, n, number of generic orbits, special orbit seeds)
    cells = [("cyclic", n, k, ()) for n in (2, 3, 4, 5, 6) for k in (1, 2, 3)]
    cells += [("dihedral", n, k, ()) for n in (2, 3, 4) for k in (1, 2, 3)]
    cells += [("tetrahedral", None, 1, ()),
              ("tetrahedral", None, 1, (0,)),
              ("tetrahedral", None, 0, (0, 1)),
              ("octahedral", None, 0, (0,)),
              ("octahedral", None, 1, ())]
    presets = [("cyclic", n, 2) for n in (2, 3, 5)]
    presets += [("dihedral", n, 2) for n in (2, 3)] + [("tetrahedral", None, 1)]
    pair_pool = [1, 2, -1, 3, Fraction(1, 2), Fraction(-2, 3), 5, 7,
                 Fraction(3, 4), -4, i4, 1 + i4, -i4]

    rng = random.Random(seed)
    while True:
        jobs = []
        for kind, n, k, sp in cells:
            pts = []
            for s in sp:
                pts += _orbit(elements[kind, n], special[kind][s])
            while k:
                orb = _orbit(elements[kind, n],
                             P1Point(CycNum(rng.choice(generic)), 1))
                if any(any(p == q for q in pts) for p in orb):
                    continue
                pts += orb
                k -= 1
            order = orders.get(kind) or (n if kind == "cyclic" else 2 * n)
            jobs.append(_embed_job(kind, n, gens(kind, n), pts, order))
        for kind, n, count in presets:
            polys, pairs = [], []
            while len(pairs) < count:
                a, b = (CycNum(rng.choice(pair_pool)) for _ in range(2))
                p, _, _ = closed_form_pair(kind, n, a, b)
                if p.squarefree_decomp()[0].degree != p.degree:
                    continue
                if any(p.gcd(q).degree > 0 for q in polys):
                    continue
                polys.append(p)
                pairs.append((a, b))
            jobs.append(_preset_job(kind, n, pairs))
        rng.shuffle(jobs)
        yield jobs


def _embed_job(kind, n, gens, pts, order) -> Job:
    from equicurve import embed3, projline

    def run():
        h = projline.group_closure(gens)
        G = projline.sl2_pullback(h)
        return h, embed3.build_embedding(h, points=pts, G=G)[1]

    def check(result):
        h, cert = result
        if h.order != order:
            return f"group of order {h.order}, expected {order}"
        return _cert_failure(cert)

    label = f"embed {kind}" + (f"({n})" if n else "") + f" r={len(pts)}"
    return Job(label, f"{label} " + ",".join(map(str, pts)), run, check)


def _preset_job(kind, n, pairs) -> Job:
    from equicurve import embed3

    def run():
        return embed3.preset_family(kind, n, pairs).certificate

    label = f"preset {kind}" + (f"({n})" if n else "") + f" x{len(pairs)}"
    key = f"{label} " + ";".join(f"({a}, {b})" for a, b in pairs)
    return Job(label, key, run, _cert_failure)


# ---------------------------------------------------------------------------
# planar: rational-only planar normalization, plane decisions, extensions

def _planar_rounds(seed: int) -> Iterator[list[Job]]:
    from equicurve.poly import UPoly, URatFun
    rng = random.Random(seed)

    def embedding(P, s_len, tp_len):
        # the random family of acceptance criterion 7, with P of degree 1-3
        s = UPoly([rng.randint(-2, 2) for _ in range(s_len)])
        q = URatFun(UPoly.const(1), P) + URatFun(s)
        tp = UPoly([rng.randint(-2, 2) for _ in range(tp_len)])
        r = URatFun.x() + (tp.compose(q) if not tp.is_zero()
                           else URatFun.const(0))
        return P, q, r

    def new_P(deg):
        return UPoly.from_roots(rng.sample(range(-3, 4), deg))

    while True:
        jobs = []
        for deg in (1, 2, 3):
            # (s, tp) coefficient counts of the two sides.  A quadratic tp on
            # both sides composes to the heavy tail (3 s to 19 s per job) and
            # is left out; one quadratic side is the top tier of the mix.
            for shape in (((1, 1), (2, 2)), ((2, 2), (3, 2)),
                          ((3, 1), (1, 3)), ((2, 3), (1, 2))):
                if rng.random() < 0.5:
                    shape = shape[::-1]
                P = new_P(deg)
                jobs.append(_connect_job(embedding(P, *shape[0]),
                                         embedding(P, *shape[1])))
            for tp_len in (2, 3):
                jobs.append(_normalize_job(embedding(new_P(deg), 2, tp_len)))
        for _ in range(4):
            vals = rng.sample(range(2, 10), rng.randint(1, 3))
            jobs.append(_involution_job(vals))
            mu = rng.choice([2, 3, 5, -2, -3, 7, Fraction(1, 2),
                             Fraction(2, 3), Fraction(-3, 2), Fraction(5, 3)])
            jobs.append(_affine_job(mu, rng.random() < 0.5))
        for _ in range(3):
            a = Fraction(rng.choice([1, 2, 3, -1, -2, 5]), rng.choice([1, 2]))
            b = Fraction(rng.choice([1, 2, 3, -1, -3, 4]), rng.choice([1, 3]))
            jobs.append(_extension_job(a, b))
        rng.shuffle(jobs)
        yield jobs


def _connect_job(e1, e2) -> Job:
    from equicurve import planar

    def run():
        return planar.connect_planar(planar.PlanarEmbedding(*e1),
                                     planar.PlanarEmbedding(*e2),
                                     degree_cap=12)[1]

    key = "connect " + " | ".join(map(str, e1 + e2))
    return Job(f"connect_planar deg P={e1[0].degree}", key, run,
               _cert_failure)


def _normalize_job(e) -> Job:
    from equicurve import planar

    def run():
        return planar.normalize_planar(planar.PlanarEmbedding(*e),
                                       degree_cap=12)[1]

    return Job(f"normalize_planar deg P={e[0].degree}",
               "normalize " + " | ".join(map(str, e)), run,
               _cert_failure)


def _verdict_check(result):
    from equicurve import plane
    if not isinstance(result, plane.Extendable):
        return f"verdict {type(result).__name__}, expected Extendable"
    return _cert_failure(result.certificate)


def _involution_job(vals) -> Job:
    from equicurve import plane, projline

    def run():
        # x -> -x on {+-v}: no removed point is fixed, both fixed points
        # 0 and oo lie on the curve, order 2: extendable by the involution
        # construction
        pts = [projline.P1Point(s * v, 1) for v in vals for s in (1, -1)]
        aut = plane.CurveAut(pts, projline.Moebius(-1, 0, 0, 1))
        return plane.decide_extendability(aut)

    return Job("decide involution", f"involution {vals}", run, _verdict_check)


def _affine_job(mu, with_inf) -> Job:
    from equicurve import plane, projline

    def run():
        # x -> mu x fixes 0 and oo; with both removed (or 0 removed) at
        # most one fixed point lies on the curve: extendable
        pts = [projline.P1Point(0, 1)]
        if with_inf:
            pts.append(projline.P1Point.infinity())
        aut = plane.CurveAut(pts, projline.Moebius(mu, 0, 0, 1))
        return plane.decide_extendability(aut)

    return Job("decide affine", f"affine {mu} {with_inf}", run, _verdict_check)


def _extension_job(a, b) -> Job:
    from equicurve import parsing, planar, poly, projline

    def run():
        # the five-map chain of acceptance criterion 6 at (a, b), ab != 0
        from equicurve.cyclotomic import CycNum
        A, B = CycNum(a), CycNum(b)
        X, Y, Z = (poly.poly3_var(v) for v in "XYZ")
        one = poly.MPoly.const(poly.POLY3_VARS, 1)
        inner = ((B + (A - B) * X) * (Y - A * X + 2 * A)
                 - (A - B) * (A - B) * one)
        steps = [(X + Y + 2 - Y * Z * Z, Y, Z),
                 (X, A * Y + B * Z, Z),
                 (X, Y, Z - (A * B).inverse() * (inner * (1 + X))),
                 (X, Z, Y - A * X + 2 * A + A * Z + (B - A) * X * Z)]
        F = (Z, Y, X)
        for step in steps:
            F = tuple(g.substitute(F) for g in step)
        tau = parsing.parse_ratfun_triple("x; 1/(x^2 - x); 0")
        return planar.verify_extension(F, tau, projline.Moebius(0, 1, -1, 1))

    return Job("verify_extension chain", f"chain {a} {b}", run,
               _cert_failure)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m equicurve.cli` process per job

# the job lists of acceptance criterion 10 and of test_determinism.py
CLI_JOBS = [
    ["aut", "--lambda", "[0:1],[1:1],[1:0]"],
    ["delta", "--lambda", "[1:1],[-1:1]", "--gens", "[[-1,0],[0,1]]",
     "--certificate"],
    ["embed", "--lambda", "[1:1],[-1:1]", "--gens", "[[-1,0],[0,1]]",
     "--certificate"],
    ["embed", "--lambda", "[0:1],[1:1],[-1:1],[1:0]", "--format", "json"],
    ["preset", "--kind", "cyclic", "--n", "3", "--pairs", "(1, -1)",
     "--certificate"],
    ["preset", "--kind", "tetrahedral", "--pairs", "(0, 1)",
     "--format", "json"],
    ["planar-normalize", "--P", "x", "--Q", "1/x", "--R", "x + 1/x",
     "--certificate"],
    ["verify-extension", "--F", "X; Y; Z", "--tau", "x; 1/(x^2 - x); 0",
     "--phi", "[[1,0],[0,1]]"],
    ["plane-extend", "--lambda", "[0:1],[1:1],[1:0]", "--g",
     "[[0,1],[-1,1]]", "--format", "json"],
    ["plane-extend", "--lambda", "[2:1],[-2:1]", "--g", "[[-1,0],[0,1]]",
     "--certificate"],
    ["cor25", "--k", "3", "--a", "1, 2, 5", "--format", "json"],
    ["aut", "--lambda", "[0:1],[1:1],[1:0],[2:1]"],
    ["preset", "--kind", "dihedral", "--n", "3", "--pairs",
     "(1, 2);(1, -3)", "--format", "json"],
    ["plane-extend", "--lambda", "[2:1],[-2:1],[3:1],[-3:1]",
     "--g", "[[-1,0],[0,1]]", "--certificate"],
]

# documented input defects; their contract is exit 2 or 3 with a one-line
# message and no traceback
CLI_DEFECTS = [
    ["aut", "--lambda", "[0:1],[1:1],[1:0],[2:1],[3:1]", "--group-cap", "1"],
    ["aut", "--lambda", "[0:1],[1:1],[1:0],[2:1],[3:1]",
     "--conductor-cap", "0"],
]


def cli_env(hash_seed) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def digest(status: int, stdout: bytes) -> str:
    return f"{status}:{hashlib.sha256(stdout).hexdigest()}"


def _cli_rounds(seed: int) -> Iterator[list[Job]]:
    expected = _cli_digests()
    rng = random.Random(seed)
    hash_seeds = rng.sample(range(1, 2 ** 16), 2)
    for r in itertools.count():
        order = list(CLI_JOBS)
        rng.shuffle(order)
        # alternate the two hash seeds so each job runs under both
        jobs = [_cli_job(argv, hash_seeds[(r + i) % 2],
                         expected.get(" ".join(argv)))
                for i, argv in enumerate(order)]
        yield jobs


def _cli_job(argv, hash_seed, expected) -> Job:
    env = cli_env(hash_seed)
    cmd = [sys.executable, "-m", "equicurve.cli", *argv]

    def run():
        return run_cli(cmd, env)

    def check(result):
        status, out, err, _ = result
        got = digest(status, out)
        if got != expected:
            return (f"exit/stdout digest {got[:20]} differs from the stored "
                    f"{str(expected)[:20]} (PYTHONHASHSEED={hash_seed})")
        return None

    return Job(f"cli {argv[0]}", " ".join(argv), run, check, argv, env)


def run_cli(cmd, env, timeout=120.0):
    """One CLI child; returns (status, stdout, stderr, peak RSS in MB).

    The child is reaped with wait4 so that its own peak RSS is known.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                left = None
            for key, _ in sel.select(left):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    for f in chunks:
        f.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, b"".join(chunks[proc.stdout]),
            b"".join(chunks[proc.stderr]), usage.ru_maxrss / 1024)


def defect_contract(status: int, out: bytes, err: bytes) -> str | None:
    """The CLI input contract: exit 2 or 3, one line of message, no traceback."""
    text = (out + err).decode(errors="replace").strip()
    if status not in (2, 3):
        return f"exit {status}, expected 2 or 3"
    if "Traceback" in text or len(text.splitlines()) != 1:
        return "message is not one line without a traceback"
    return None


# ---------------------------------------------------------------------------

GENERATORS = {
    "stabilizer": _stabilizer_rounds,
    "embed": _embed_rounds,
    "planar": _planar_rounds,
    "cli": _cli_rounds,
}


def make_rounds(workload: str, seed: int) -> Iterator[list[Job]]:
    return GENERATORS[workload](seed)

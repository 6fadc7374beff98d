import ast
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from equicurve.cyclotomic import CycNum, root_of_unity
from equicurve.parsing import parse_constant, parse_hpoly, parse_ratfun
from equicurve.poly import HPoly2


JOBS = [
    ["aut", "--lambda", "[0:1],[1:1],[1:0],[2:1]"],
    ["embed", "--lambda", "[1:1],[-1:1]", "--gens", "[[-1,0],[0,1]]",
     "--certificate"],
    ["preset", "--kind", "dihedral", "--n", "3", "--pairs",
     "(1, 2);(1, -3)", "--format", "json"],
    ["plane-extend", "--lambda", "[2:1],[-2:1],[3:1],[-3:1]",
     "--g", "[[-1,0],[0,1]]", "--certificate"],
]


def _run_with_seed(job, seed, *flags):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "equicurve.cli", *job],
        capture_output=True, env=env, timeout=300)
    return proc.returncode, proc.stdout


def test_reports_stable_under_hash_randomization():
    for job in JOBS:
        a = _run_with_seed(job, 0)
        b = _run_with_seed(job, 4242)
        assert a == b, job
        assert a[0] == 0, job


def test_reports_identical_under_python_optimize():
    # python -O strips asserts; no check the reports depend on may live there
    for job in JOBS[:2]:
        assert _run_with_seed(job, 0, "-O") == _run_with_seed(job, 0), job


def _library_nodes():
    """(file name, node) for every syntax node of the library source."""
    src = Path(__file__).resolve().parents[1] / "src" / "equicurve"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_library_has_no_assert_statements():
    # python -O strips asserts silently, so the library raises instead
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_does_not_import_dataclasses():
    # dataclasses loads inspect, ast and dis and generates methods through
    # exec() at import, which every CLI process would pay for
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Import)
             and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and node.module == "dataclasses"]
    assert found == []


# the benchmark's CLI job list, run function and frozen exit+stdout digests
_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads   # dataclasses look the module up
_spec.loader.exec_module(workloads)
CLI_DIGESTS = json.loads(workloads.DIGESTS.read_text())
CYC_LITERAL = re.compile(r"cyc\((\d+);[^)]*\)")


def assert_least_conductors(out: bytes):
    # each coefficient literal prints over the least conductor of its value
    for lit in CYC_LITERAL.finditer(out.decode()):
        assert parse_constant(lit[0]).reduced().m == int(lit[1]), lit[0]


@pytest.mark.parametrize("index", range(len(workloads.CLI_JOBS)), ids=[
    f"{i}-{argv[0]}" for i, argv in enumerate(workloads.CLI_JOBS)])
def test_cli_report_matches_frozen_digest(index):
    # half of the jobs under each hash seed, so both seeds are covered
    argv = workloads.CLI_JOBS[index]
    env = workloads.cli_env((11, 4242)[index % 2])
    status, out, err, _ = workloads.run_cli(
        [sys.executable, "-m", "equicurve.cli", *argv], env)
    assert err == b"", err.decode()
    assert workloads.digest(status, out) == CLI_DIGESTS[" ".join(argv)], argv
    assert_least_conductors(out)


# embed and delta over Q(i), Q(zeta_3) and Q(zeta_5), with the group and
# the points in different fields, so that coefficients are computed at mixed
# conductors and printed at the least one, digests frozen from the
# closed-form orbit pairs; and
# planar-normalize, verify-extension and plane-extend over the same fields,
# digests frozen from the term-by-term evaluation at rational functions
MIXED_FIELD_JOBS = json.loads(
    (Path(__file__).resolve().parent / "mixed_field_digests.json").read_text())


@pytest.mark.parametrize("index", range(len(MIXED_FIELD_JOBS)), ids=[
    f"{i}-{job['argv'][0]}" for i, job in enumerate(MIXED_FIELD_JOBS)])
def test_mixed_field_report_matches_frozen_digest(index):
    job = MIXED_FIELD_JOBS[index]
    env = workloads.cli_env((11, 4242)[index % 2])
    status, out, err, _ = workloads.run_cli(
        [sys.executable, "-m", "equicurve.cli", *job["argv"]], env)
    assert err == b"", err.decode()
    assert workloads.digest(status, out) == job["digest"], job["argv"]
    assert_least_conductors(out)


def rand_cyc(rng, m):
    from equicurve.cyclotomic import euler_phi
    from fractions import Fraction
    return CycNum.from_coeffs(
        m, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(euler_phi(m))])


def test_constant_print_parse_round_trip():
    rng = random.Random(1234)
    for m in (1, 3, 4, 5, 8, 12, 15):
        for _ in range(10):
            v = rand_cyc(rng, m)
            assert parse_constant(str(v)) == v


def test_hpoly_print_parse_round_trip():
    rng = random.Random(4321)
    for _ in range(25):
        d = rng.randint(0, 6)
        coeffs = {}
        for i in range(d + 1):
            if rng.random() < 0.6:
                coeffs[i] = rand_cyc(rng, rng.choice([1, 1, 3, 4]))
        p = HPoly2(d, coeffs)
        if p.is_zero():
            continue
        assert parse_hpoly(str(p)) == p


def test_ratfun_print_parse_round_trip():
    for text in ("1/x", "(x^2 + 1) / x", "x^3 - 2*x + 1/2",
                 "(3*x - 1) / (x^2 - x)", "cyc(4;0,1)*x / (x - cyc(3;0,1))"):
        v = parse_ratfun(text)
        assert parse_ratfun(str(v)) == v


def test_root_of_unity_str_round_trip():
    for m in (3, 4, 5, 8, 12):
        for k in range(m):
            v = root_of_unity(m, k)
            assert parse_constant(str(v)) == v

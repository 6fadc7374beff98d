"""Tests of the benchmark itself: ``python3 -m pytest bench``."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, WORKLOADS, Job  # noqa: E402

workloads.import_library()

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_round_keys(workload, seed):
    return [job.key for job in next(workloads.make_rounds(workload, seed))]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert first_round_keys(workload, 5) == first_round_keys(workload, 5)
    assert first_round_keys(workload, 5) != first_round_keys(workload, 6)


TRACE_COUNTS = """
import json, sys
sys.path.insert(0, {here!r})
import run
run.workloads.import_library()
from tracer import Tracer
jobs = run.traced_jobs({workload!r}, 3)[:4]
tracer = Tracer().install()
try:
    results = [run.run_job(job) for job in jobs]
finally:
    tracer.uninstall()
snap = tracer.snapshot()
print(json.dumps({{"calls": snap["calls"], "counts": snap["counts"],
                  "errors": [r[2] for r in results]}}, sort_keys=True))
"""


@pytest.mark.parametrize("workload", ("stabilizer", "planar"))
def test_traced_counts_repeat_exactly(workload):
    code = TRACE_COUNTS.format(here=str(HERE), workload=workload)
    outs = [subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                           capture_output=True, text=True, timeout=300).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    data = json.loads(outs[0])
    assert data["errors"] == [None] * 4
    assert data["counts"]["certificates.clauses_checked"] > 0


def test_a_raising_job_is_counted_and_the_run_goes_on():
    def boom():
        raise ZeroDivisionError("inverse of zero")

    jobs = [Job("boom", "boom", boom, lambda r: None),
            Job("ok", "ok", lambda: 1, lambda r: None if r == 1 else "wrong")]
    records, _ = run.timed_loop(iter([jobs] * 1000), 0.001, [])
    names = [r[0].name for r in records]
    assert names[:2] == ["boom", "ok"]
    reasons = [run.check_job(job, result, error)
               for job, _, result, error, _ in records]
    assert reasons[0].startswith("ZeroDivisionError")
    assert reasons[1] is None


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ("0", "1"))
def test_every_metric_of_benchmark_json_is_emitted(trace):
    out = run_bench("--workload", "planar", "--seed", "2", "--seconds", "1",
                    "--trace", trace)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(last["metrics"]) == [m["name"] for m in CONFIG[kind]]
    for m in CONFIG[kind]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(last["metrics"][m["name"]]["value"], (int, float))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "planar", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""

"""The equicurve benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload stabilizer --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's seeded job mix
runs in a closed loop (one job at a time, in this process; one child process
at a time for ``cli``) for ``--seconds``, then every result is checked
against its reference outside the timed region.  ``--trace 1`` is the
separate traced run: warm micro timings per layer, then round 0 of the
workload run plain, under the tracer and plain again, which gives exact
call counts, maxima and self times per layer and the tracing overhead.

Every metric is printed by name with its unit, then one ``record:`` line
(machine, Python, commit, seed, sample counts, calibration, ``src/`` line
count, reference-check failures and known-defect probes), and last one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload untraced and traced, each in its own
process.  ``--out FILE`` saves the results; ``--compare FILE`` prints the
change of every metric against such a saved file.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
SETUP_PROBES = 9
CALIB_EVERY_S = 0.15
# End-to-end times are scaled to a reference host speed: each job's (and
# each set-up probe's) wall time is multiplied by CALIB_REF_S over the mean
# of the calibration samples taken just before and just after it.  The
# calibration kernel uses no library code, so the scaling cancels how fast
# the shared host runs at that moment (on a 2-vCPU cloud VM the same job's
# time swung by up to 1.8x within seconds) without hiding any change to
# the library.  Unscaled values are in the record.
CALIB_REF_S = 0.02
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# measurement helpers

def calib_kernel() -> float:
    """A fixed stdlib Fraction kernel; a control that no change should move."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, 1500):
        x = Fraction(i % 97 + 1, i % 89 + 2)
        y = x * x + x / 3 - Fraction(1, i)
        acc += y.numerator % 7
    dt = time.perf_counter() - t0
    if acc != 4949:
        raise RuntimeError(f"calibration kernel gave {acc}")
    return dt


def host_scaled(dt: float, calib: list, i: int) -> float:
    """``dt`` scaled to the reference host speed by the two calibration
    samples around it, ``calib[i]`` before and ``calib[i + 1]`` after."""
    return dt * 2 * CALIB_REF_S / (calib[i] + calib[i + 1])


def setup_probe(workload: str, seed: int, calib: list) -> tuple:
    """Wall time from a fresh interpreter to generated inputs, as (seconds,
    index of the calibration sample taken just before it; another follows)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    calib.append(calib_kernel())
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                   stdout=subprocess.DEVNULL)
    out = (time.perf_counter() - t0, len(calib) - 1)
    calib.append(calib_kernel())
    return out


def import_seconds() -> float:
    """Median time of ``import equicurve.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import equicurve.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             cwd=ROOT, env=workloads.cli_env(0), timeout=120,
                             capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times)


def run_job(job):
    """(seconds, result, error) of one job; an exception is a failed job."""
    t0 = time.perf_counter()
    try:
        result, error = job.run(), None
    except Exception as e:  # a failing job is counted, not fatal
        result, error = None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, result, error


def check_job(job, result, error) -> str | None:
    if error is not None:
        return error
    try:
        return job.check(result)
    except Exception as e:  # a reference check that cannot run is a failure
        return f"check raised {type(e).__name__}: {e}"


def timed_loop(rounds, seconds: float, calib: list, probe=None):
    """Closed loop over the round stream until ``seconds`` of job time.

    Returns the per-job records (job, seconds, result, error, index of the
    calibration sample before the job), and the results of ``probe()``,
    called SETUP_PROBES times spread evenly between the jobs so that the
    set-up figure does not rest on one moment of the host.  Calibration
    samples, taken between jobs at least every CALIB_EVERY_S and once at
    the end, go to ``calib``.  Only job time is counted, so generating the
    next round, calibrating and probing do not enter the job figures.
    """
    records, probes = [], []
    busy = 0.0
    since = CALIB_EVERY_S
    for job in itertools.chain.from_iterable(rounds):
        if probe and len(probes) < SETUP_PROBES \
                and len(probes) * seconds <= busy * SETUP_PROBES:
            probes.append(probe())
            since = 0.0    # the probe ends with a calibration sample
        if since >= CALIB_EVERY_S:
            calib.append(calib_kernel())
            since = 0.0
        dt, result, error = run_job(job)
        records.append((job, dt, result, error, len(calib) - 1))
        busy += dt
        since += dt
        if busy >= seconds:
            calib.append(calib_kernel())
            while probe and len(probes) < SETUP_PROBES:
                probes.append(probe())
            return records, probes
    raise AssertionError("the round stream is endless")


def tail(durations) -> tuple[float, float]:
    """The highest order statistic with TAIL_BEYOND samples above it, and
    its percentile; the maximum when there are too few samples."""
    d = sorted(durations)
    k = max(len(d) - TAIL_BEYOND - 1, 0) if len(d) > TAIL_BEYOND else len(d) - 1
    return d[k], 100.0 * (k + 1) / len(d)


# ---------------------------------------------------------------------------
# known-defect and known-failure probes (untimed, outside the job mix)

def run_probes(workload: str) -> list[dict]:
    out = []
    if workload == "cli":
        for argv in workloads.CLI_DEFECTS:
            status, so, se, _ = workloads.run_cli(
                [sys.executable, "-m", "equicurve.cli", *argv],
                workloads.cli_env(0))
            out.append({"probe": " ".join(argv), "exit": status,
                        "violation": workloads.defect_contract(status, so, se),
                        "counted": True})
    if workload == "embed":
        from equicurve import embed3, projline
        try:
            projline.sl2_pullback(embed3.standard_group("icosahedral"))
            outcome = None
        except Exception as e:  # the expected outcome today
            outcome = f"{type(e).__name__}: {str(e)[:120]}"
        out.append({"probe": "sl2_pullback(icosahedral)", "violation": outcome,
                    "counted": False})
    return out


# ---------------------------------------------------------------------------
# the two kinds of run

def untraced_run(workload: str, seed: int, seconds: float) -> dict:
    calib: list[float] = []
    rounds = workloads.make_rounds(workload, seed)
    records, setup = timed_loop(
        rounds, seconds, calib, lambda: setup_probe(workload, seed, calib))
    if workload == "cli":
        rss = max((r[2][3] for r in records if r[2] is not None), default=0.0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = []
    for job, _, result, error, _ in records:
        reason = check_job(job, result, error)
        if reason:
            failures.append(f"{job.name}: {reason}")
    passed = len(records) - len(failures)
    raw = [r[1] for r in records]
    scaled = [host_scaled(r[1], calib, r[4]) for r in records]
    setup_scaled = [host_scaled(t, calib, i) for t, i in setup]
    tail_s, tail_pct = tail(scaled)
    metrics = {
        "jobs_per_s": (passed / sum(scaled), len(records)),
        "job_p50_s": (statistics.median(scaled), len(records)),
        "job_tail_s": (tail_s, len(records)),
        "peak_rss_mb": (rss, 1),
        "setup_s": (statistics.median(setup_scaled), len(setup)),
    }
    unscaled = {"jobs_per_s": passed / sum(raw),
                "job_p50_s": statistics.median(raw),
                "job_tail_s": tail(raw)[0],
                "setup_s": statistics.median(t for t, _ in setup)}
    return {"metrics": metrics, "attempted": len(records),
            "failures": failures, "calib": calib,
            "extra": {"job_tail_percentile": tail_pct,
                      "unscaled": unscaled}}


def traced_jobs(workload: str, seed: int):
    """The jobs of the traced run: round 0 of the workload."""
    return next(workloads.make_rounds(workload, seed))


def traced_run(workload: str, seed: int) -> dict:
    import micro
    from tracer import Tracer, layer_metrics, merge
    failures: list[str] = []
    calib = [calib_kernel() for _ in range(3)]
    metrics = {k: (v, 1) for k, v in micro.all_metrics(seed, failures).items()}
    metrics["cli.import_s"] = (import_seconds(), 3)
    jobs = traced_jobs(workload, seed)

    # a plain pass warms the caches, then a traced pass and a second plain
    # pass; the overhead compares the last two, each host-scaled
    passes, snaps = [], []
    for kind in ("warm", "traced", "plain"):
        calib.append(calib_kernel())
        if kind != "traced":
            passes.append([run_job(job) for job in jobs])
        elif workload == "cli":
            passes.append([cli_traced(job, snaps) for job in jobs])
        else:
            tracer = Tracer().install()
            try:
                passes.append([run_job(job) for job in jobs])
            finally:
                tracer.uninstall()
            snaps.append(tracer.snapshot())
    calib.append(calib_kernel())
    for results in passes:
        for job, (_, result, error) in zip(jobs, results):
            reason = check_job(job, result, error)
            if reason:
                failures.append(f"{job.name}: {reason}")
    if workload == "cli" and len(snaps) != len(jobs):
        failures.append("a traced CLI child gave no trace")
    snap = merge(snaps)
    for name, value in layer_metrics(snap).items():
        metrics[name] = (value, 1)
    t_traced, t_plain = (host_scaled(sum(r[0] for r in passes[k]), calib, 3 + k)
                         for k in (1, 2))
    metrics["trace.overhead_frac"] = (t_traced / t_plain - 1, 1)
    metrics["host.calib_s"] = (statistics.median(calib), len(calib))
    return {"metrics": metrics, "attempted": 3 * len(jobs),
            "failures": failures, "calib": calib,
            "extra": {"traced_jobs": [job.key for job in jobs],
                      "trace_counts": dict(snap["counts"]),
                      "trace_calls": dict(snap["calls"]),
                      "plain_s": t_plain, "traced_s": t_traced}}


def cli_traced(job, snaps: list):
    """A CLI job in a child that installs the tracer first; the child's
    trace snapshot arrives as the last line of its stderr and is appended
    to ``snaps``.  Returns what ``run_job`` returns."""
    cmd = [sys.executable, str(HERE / "cli_child.py"), *job.argv]
    t0 = time.perf_counter()
    status, out, err, rss = workloads.run_cli(cmd, job.env)
    dt = time.perf_counter() - t0
    lines = err.decode(errors="replace").strip().splitlines()
    if lines and lines[-1].startswith("trace: "):
        snaps.append(json.loads(lines[-1][len("trace: "):]))
    return dt, (status, out, err, rss), None


# ---------------------------------------------------------------------------
# reporting

def units() -> dict:
    return {m["name"]: m["unit"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]}


def wanted(trace: bool) -> list[str]:
    return [m["name"] for m in CONFIG["per_layer" if trace else "end_to_end"]]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "equicurve").glob("*.py")))


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = traced_run(workload, seed) if trace else \
        untraced_run(workload, seed, seconds)
    probes = run_probes(workload)
    counted = [p for p in probes if p["counted"]]
    defects = sum(1 for p in counted if p["violation"])
    failed = len(run["failures"])
    with_probes = run["attempted"] + len(counted)
    fail_frac = (failed + defects) / with_probes
    if trace:
        run["metrics"]["fail_frac"] = (fail_frac, with_probes)
    unit = units()
    names = wanted(trace)
    metrics = {n: {"value": run["metrics"][n][0], "unit": unit[n]}
               for n in names}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "system": platform.platform(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": git_commit(),
        "src_lines": src_lines(),
        "host.calib_s": statistics.median(run["calib"]),
        "attempted": run["attempted"], "failed": failed,
        "fail_frac_with_probes": fail_frac,
        "failures": run["failures"][:20], "probes": probes,
        "samples": {n: run["metrics"][n][1] for n in names},
        **run["extra"],
    }
    return {"correct": failed == 0, "attempted": run["attempted"],
            "failed": failed, "metrics": metrics, "record": record}


def print_result(result: dict) -> None:
    rec = result["record"]
    for name, m in result["metrics"].items():
        print(f"{rec['workload']:<10} {name:<48} {m['value']:>14.6g} "
              f"{m['unit']:<6} samples={rec['samples'][name]}")
    for probe in rec["probes"]:
        state = probe["violation"] or "meets its contract"
        print(f"{rec['workload']:<10} probe {probe['probe']}: {state}")
    for reason in rec["failures"]:
        print(f"{rec['workload']:<10} FAILED {reason}")
    print("record: " + json.dumps(rec, sort_keys=True, default=str))


def print_compare(results: list[dict], previous: Path) -> None:
    old = {(r["record"]["workload"], r["record"]["trace"], n): m["value"]
           for r in json.loads(previous.read_text()) for n, m in r["metrics"].items()}
    for r in results:
        key = (r["record"]["workload"], r["record"]["trace"])
        for name, m in r["metrics"].items():
            before = old.get(key + (name,))
            if before is None:
                continue
            change = (f"{100.0 * (m['value'] - before) / before:+.1f}%"
                      if before else "n/a")
            print(f"compare {key[0]:<10} {name:<48} {before:>12.6g} -> "
                  f"{m['value']:<12.6g} {change}")


def run_all(seed: int, seconds: float) -> list[dict]:
    results = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--json-record"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600)
            lines = out.stdout.strip().splitlines()
            for line in lines[:-1]:
                if not line.startswith("record: "):
                    print(line)
            if out.returncode != 0 or not lines:
                print(out.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} trace={trace} failed")
            result = json.loads(lines[-1])
            results.append(result)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="save the results as JSON")
    ap.add_argument("--compare", type=Path,
                    help="a file saved with --out to compare against")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--json-record", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        workloads.import_library()
    except (FileNotFoundError, ImportError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    if CONFIG is None:
        print("benchmark cannot run: BENCHMARK.json not found", file=sys.stderr)
        return 2
    if args.setup_probe:
        next(workloads.make_rounds(args.workload, args.seed))
        return 0
    if args.workload == "all":
        results = run_all(args.seed, args.seconds)
    else:
        results = [run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace))]
        print_result(results[0])
    if args.compare:
        print_compare(results, args.compare)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True,
                                       default=str))
    if args.json_record:
        print(json.dumps(results[0], sort_keys=True, default=str))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

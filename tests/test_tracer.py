"""The traced benchmark run (``bench/tracer.py``) wraps library functions and
methods by name.  Installing and uninstalling it here makes a removed or
renamed target fail the test suite rather than the benchmark run."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from equicurve import parsing

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _targets():
    """(owner, attribute, current value) for every traced name."""
    out = []
    for layer, targets in tracer.SPANS.items():
        module = sys.modules[f"equicurve.{layer}"]
        for owner_name, attrs in targets:
            owner = getattr(module, owner_name) if owner_name else module
            for attr in attrs:
                value = vars(owner).get(attr)
                assert value is not None, f"{layer}.{owner_name}.{attr} is gone"
                out.append((owner, attr, value))
    return out


def test_tracer_installs_counts_and_uninstalls():
    import equicurve.cli  # noqa: F401  (the tracer wraps every layer)
    before = _targets()
    t = tracer.Tracer().install()
    try:
        p = parsing.parse_hpoly("x^2 - y^2")
        (p * p).compose_matrix((0, 1, 1, 0))
        p.gcd(parsing.parse_hpoly("x*y - y^2"))
    finally:
        t.uninstall()
    calls = t.snapshot()["calls"]
    assert calls["poly.HPoly2.__mul__"] >= 1
    assert calls["poly.HPoly2.compose_matrix"] == 1
    assert calls["poly.compose_matrix_many"] == 1
    assert calls["poly.HPoly2.gcd"] == 1
    assert calls["parsing.parse_hpoly"] == 2
    for owner, attr, value in before:
        assert vars(owner)[attr] is value, f"{attr} was not restored"


_FRESH = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install().uninstall()
print(json.dumps(sorted(n for n in sys.modules if n.startswith("equicurve"))))
"""


def test_tracer_finds_every_layer_in_a_fresh_interpreter():
    # the tracer reads each layer from sys.modules after its own imports; in
    # this process other tests have imported every layer already, so a layer
    # that the package stops importing shows only in a fresh interpreter
    src = str(_ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _FRESH, str(_PATH)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    missing = [f"equicurve.{layer}" for layer in tracer.SPANS
               if f"equicurve.{layer}" not in loaded]
    assert not missing, f"not loaded: {missing}"

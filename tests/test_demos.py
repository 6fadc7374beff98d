"""Smoke test: every demo runs and prints exactly the frozen report.

The digests are the sha256 of each demo's stdout.  A change to any printed
value, form or certificate count shows up here; refreeze a digest only
together with a deliberate change to that demo's report.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "closed_form_families.py":
        "bc7122391a6a7caddb031f7fc6e7fd6e90795de1a7e988ac01cf6af09c65b1d7",
    "equivariant_embedding.py":
        "1bf54b7b7a5533504d034b33c34a4331a4fa1d5185b6250bc54e372592e37f1d",
    "fixed_locus_selfmap.py":
        "d74e4f5a81d41313cf137ef1b2a2047ac09e03278de8250a9524c7080f9095cf",
    "planar_normalization.py":
        "fd65d0d7a4e9fcdd4de2fde0c9ac4f8245cf3afa9b2375a525fdf13a9607ae64",
    "plane_extendability.py":
        "561134a35504e73295ed0d802ebac0a928b829f0fe29e89bf08b5ec44f423ffe",
    "special_curves.py":
        "2805d467f979d5e9da0eeb4aa6ff2edfe01107192cf6c5133db5941924bea55e",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout_matches_frozen_digest(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]

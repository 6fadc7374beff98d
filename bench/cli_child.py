"""Run one CLI job under the tracer: ``python3 bench/cli_child.py ARGS...``.

Stdout is the CLI's own report, unchanged; the trace snapshot is written as
the last line of stderr, prefixed with ``trace: ``.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

workloads.import_library()

from tracer import Tracer  # noqa: E402
from equicurve import cli  # noqa: E402

tracer = Tracer().install()
try:
    status = cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
    print("trace: " + json.dumps(tracer.snapshot()), file=sys.stderr)
sys.exit(status)

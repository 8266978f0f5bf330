"""The simulator examples run to completion.

Nothing else runs ``examples/``, so a change to the surface they use
would otherwise break them silently.  Each runs as its own process with
``PYTHONPATH=src``, as its docstring tells a reader to (about 0.25 s
each); the TCP examples spawn hosts and are left to the ``net`` job's
own end-to-end tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = (
    "quickstart", "heap_quickstart", "undo_stack", "work_stealing",
    "transaction_ordering", "churn",
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_simulator_example_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

"""Every demo script runs to completion and prints its pinned output.

The expected stdout of demo ``demos/<name>.py`` is ``tests/data/demos/<name>.out``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURES = ROOT / "tests" / "data" / "demos"


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    # Block-buffered stdout, so a forked sweep worker that flushed the demo's
    # pending output would print it twice.
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    expected = (FIXTURES / f"{script.stem}.out").read_text(encoding="utf-8")
    assert proc.stdout == expected

"""Smoke test of the benchmark harness: every workload and check at its tiny size.

Runs `perfbench/run.py --selfcheck` from the repository root, as a user would,
so the harness cannot rot unnoticed. It leaves its work files under the
checkout's `.perfbench/`.
"""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes():
    r = subprocess.run([sys.executable, "perfbench/run.py", "--selfcheck"], cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stdout[-3000:] + r.stderr[-3000:]


def test_every_wrapped_span_resolves(monkeypatch):
    """The benchmark's tracer skips a wrapped name that oris no longer defines
    and reports zero calls for it, so a rename must fail here instead."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [name for owner, attr, name in spans.WRAPPED
               if not callable(owner.__dict__.get(attr))]
    assert missing == []

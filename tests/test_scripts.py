"""Smoke test: each bundled script runs to completion against the package,
and the demo's stdout is pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["learn_blood_medicine.py"], "learn_blood_medicine.txt"),
        (["quadrature_convergence.py"], None),
        (["local_audit_demo.py", "10000", "0"], None),
    ],
    ids=["learn_blood_medicine.py", "quadrature_convergence.py", "local_audit_demo.py"],
)
def test_script_exits_cleanly(argv, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if expected:  # a script whose stdout is pinned
        assert proc.stdout == (ROOT / "tests" / "expected" / expected).read_text(encoding="utf-8")

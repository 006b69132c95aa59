"""Self-tests of the benchmark's own parts; every run makes them first.

* The golden example, learned under ``perfbench/spans.py``, gives the
  documented counters and ``Medicine.csv`` rows, and the oracle accepts it.
* The oracle rejects the same output with one fraction altered.
* The generator gives byte-identical files for the same seed and
  different files for another seed.

Run alone with ``python3 perfbench/selftest.py`` from the repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from gen import SHAPES, Instance, csv_text, generate, graph_text, prior_text, write
from oracle import Rejected, check_golden_medicine, check_tables, expected_tables

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

GOLDEN = Instance(
    names=("Blood", "Medicine"),
    arities=(2, 3),
    edges=((0, 1),),
    header=(0, 1),
    columns=((0, 0, 0, 1, 1, 1), (0, 1, 2, 0, 1, 2)),
    counts=(10, 35, 25, 5, 10, 15),
    prior={},
)
GOLDEN_COUNTERS = {"network.rows_read": 6, "network.total_count": 100,
                   "network.distinct_tuples": 6, "network.zero_configs": 0,
                   "network.family_cells": 8}


class SelfTestError(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestError(message)


def golden_trace(scratch: Path) -> None:
    paths = write(GOLDEN, scratch / "golden")
    out = scratch / "golden" / "out"
    spans = scratch / "golden" / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "spans.py"), str(spans), "--", "learn", "--mode", "mle",
         "--graph", str(paths["graph"]), "--data", str(paths["data"]), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120, check=False)
    _expect(proc.returncode == 0, f"golden learn exited {proc.returncode}: {proc.stderr}")
    counters = json.loads(spans.read_text(encoding="utf-8"))["counters"]
    got = {k: counters[k] for k in GOLDEN_COUNTERS}
    _expect(got == GOLDEN_COUNTERS, f"golden counters {got} != {GOLDEN_COUNTERS}")
    check_golden_medicine(out)
    expected = expected_tables(GOLDEN, "mle")
    check_tables(out, expected)

    medicine = out / "Medicine.csv"
    medicine.write_bytes(medicine.read_bytes().replace(b"5/14", b"5/13"))
    try:
        check_tables(out, expected)
    except Rejected:
        return
    raise SelfTestError("the oracle accepted Medicine.csv with 5/14 altered to 5/13")


def generator_deterministic() -> None:
    for name, shape in SHAPES.items():
        shape = replace(shape, rows=500)
        texts = [(graph_text(i), csv_text(i), prior_text(i))
                 for i in (generate(shape, 7, name), generate(shape, 7, name),
                           generate(shape, 8, name))]
        _expect(texts[0] == texts[1], f"{name}: seed 7 gave two different instances")
        _expect(texts[0] != texts[2], f"{name}: seeds 7 and 8 gave the same instance")


def run_all(scratch: Path) -> None:
    """Raise SelfTestError or oracle.Rejected on the first failed self-test."""
    golden_trace(scratch)
    generator_deterministic()


if __name__ == "__main__":
    work = HERE.parent / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        run_all(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("perfbench self-tests passed")

import csv
import os
import subprocess
import sys
from pathlib import Path

# As the CLI does, before anything imports numpy: its OpenBLAS would start a
# helper thread per core, and the in-process `run_suite("all")` tests would
# fork a multi-threaded process.  A value set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import hypothesis
import pytest

from cptforge import localsplit
from cptforge.dist import Dist, disintegrate
from cptforge.network import CountTable, GraphSpec
from cptforge.verify import (
    BLOOD_MEDICINE_COUNTS,
    blood_medicine_graph,
    blood_medicine_table,
)

hypothesis.settings.register_profile(
    "det", derandomize=True, max_examples=80, deadline=None
)
hypothesis.settings.load_profile("det")

SRC = str(Path(__file__).resolve().parent.parent / "src")


def reverse_the_split_totals(monkeypatch):
    """Patch the split in `pdf_factorization_check` to reverse the totals it
    returns: the law split-factorisation fails, and no other law calls it."""

    def split(x, m):
        totals, shares = disintegrate(x, m)
        return Dist(totals.probs[::-1]), shares

    monkeypatch.setattr(localsplit, "disintegrate", split)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def run_python():
    """Run a fresh interpreter on the given arguments, with the package's
    source first on its path and the keyword arguments set in its
    environment (None unsets one); returns the completed process, its
    output as text."""

    def run(*args, **env):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = {k: v for k, v in {**os.environ, "PYTHONPATH": path, **env}.items() if v is not None}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=120)

    return run


@pytest.fixture
def golden_graph() -> GraphSpec:
    return blood_medicine_graph()


@pytest.fixture
def golden_table() -> CountTable:
    return blood_medicine_table()


@pytest.fixture
def golden_data_csv(tmp_path):
    """The worked example's counts in long CSV format."""
    lines = ["Blood,Medicine,count"]
    for k, count in enumerate(BLOOD_MEDICINE_COUNTS):
        lines.append(f"{k // 3},{k % 3},{count}")
    path = tmp_path / "blood_medicine.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def golden_graph_file(tmp_path):
    path = tmp_path / "blood_medicine_graph.txt"
    path.write_text(
        "node Blood 2\nnode Medicine 3\nedge Blood Medicine\n", encoding="utf-8"
    )
    return path

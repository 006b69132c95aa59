import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from cptforge import localsplit
from cptforge.dist import Dist, disintegrate
from cptforge.network import CountTable, GraphSpec
from cptforge.verify import (
    BLOOD_MEDICINE_COUNTS,
    blood_medicine_graph,
    blood_medicine_joint,
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


def cells_by_meshgrid(n, res):
    """The cell grid as it was first built: a meshgrid masked to the
    triangle, then extended by one index for n = 4."""
    d = n - 1
    if d == 0:
        return np.array([[1.0]]), np.array([1.0])
    if d == 1:
        firsts = (np.arange(res, dtype=float).reshape(-1, 1) + 0.5) / res
        weights = np.full(res, 1.0 / res)
    else:
        ii, jj = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
        mask = ii + jj <= res - 1
        cells = np.stack([ii[mask], jj[mask]], axis=1)
        if d == 3:
            counts = res - cells.sum(axis=1)
            base = np.repeat(cells, counts, axis=0)
            ends = np.cumsum(counts)
            k = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
            cells = np.column_stack([base, k])
        clip = {2: {1: (1 / 2, 1 / 3)}, 3: {1: (1 / 6, 1 / 4), 2: (5 / 6, 9 / 20)}}[d]
        slack = res - cells.sum(axis=1)
        offsets, fracs = np.full(len(cells), 0.5), np.ones(len(cells))
        for t, (frac, centroid) in clip.items():
            offsets[slack == t], fracs[slack == t] = centroid, frac
        firsts = (cells + offsets[:, None]) / res
        weights = fracs / res**d
    return np.column_stack([firsts, 1.0 - firsts.sum(axis=1)]), weights


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
def golden_joint():
    return blood_medicine_joint()


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

"""`learn` against the benchmark's cptforge-free oracle, byte for byte.

The generator and the oracle under ``perfbench/`` never import cptforge:
the oracle recounts every family from the generated rows with plain
Python ints and renders the expected tables itself.  They are loaded
read-only, by file.
"""

import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_perfbench(*names):
    """Modules of ``perfbench/`` by file, in order; ``sys.path`` and
    ``sys.modules`` are left as they were, so they shadow nothing."""
    saved = {name: sys.modules.get(name) for name in names}
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        for name in names:  # registered while loading: oracle imports from gen
            spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        return [sys.modules[name] for name in names]
    finally:
        sys.dont_write_bytecode = dont_write_bytecode  # no __pycache__ under perfbench/
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


gen, oracle = _load_perfbench("gen", "oracle")

INSTANCES = {
    "learn-tall": dataclasses.replace(gen.SHAPES["learn-tall"], rows=5000),
    "learn-wide": gen.SHAPES["learn-wide"],
}


@pytest.mark.parametrize(
    "workload,mode",
    [("learn-tall", "mle"), ("learn-tall", "bayes"), ("learn-wide", "bayes")],
)
def test_learn_matches_oracle(tmp_path, workload, mode):
    inst = gen.generate(INSTANCES[workload], 1, workload)
    paths = gen.write(inst, tmp_path / "in")
    args = ["--graph", str(paths["graph"]), "--data", str(paths["data"])]
    if "prior" in paths:
        args += ["--prior", str(paths["prior"])]
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cptforge", "learn", "--mode", mode, *args, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = {name: text.encode("utf-8")
                for name, text in oracle.expected_tables(inst, mode).items()}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == expected

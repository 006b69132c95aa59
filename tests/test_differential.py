"""`learn` and `verify` against the benchmark's cptforge-free generator and oracle.

The generator and the oracle under ``perfbench/`` never import cptforge:
the oracle recounts every family from the generated rows with plain
Python ints and renders the expected tables itself, and it pins the
checks `verify --suite all` reports.  They, and the benchmark's self-test,
are loaded read-only, by file.
"""

import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cptforge import verify
from cptforge.bayes import batch_update
from cptforge.dirichlet import HyperParams
from cptforge.network import GraphSpec, ingest_counts, learn_bayes, load_prior

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


gen, oracle, selftest = _load_perfbench("gen", "oracle", "selftest")

INSTANCES = {
    "learn-tall": dataclasses.replace(gen.SHAPES["learn-tall"], rows=5000),
    "learn-wide": gen.SHAPES["learn-wide"],
}


def test_benchmark_golden_trace(tmp_path):
    # The benchmark's first self-test: the golden example learned under its
    # span tracer, which wraps every layer module by name.
    selftest.golden_trace(tmp_path)


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


@pytest.mark.parametrize("network", ["golden", "learn-wide"])
def test_learned_rows_are_slices_of_the_joint_update(tmp_path, network):
    """Local updating: each family's posterior rows are the row slices of one
    update of the whole prior table by the whole family table."""
    if network == "golden":
        graph, table, prior = verify.blood_medicine_graph(), verify.blood_medicine_table(), {}
    else:
        paths = gen.write(gen.generate(gen.SHAPES["learn-wide"], 1, "learn-wide"), tmp_path)
        graph = GraphSpec.load(paths["graph"])
        table = ingest_counts(paths["data"], graph)
        prior = load_prior(paths["prior"], graph)
        assert prior
    for cpt in learn_bayes(table, graph, prior):
        family = table.marginal_counts(cpt.parents + (cpt.node,))
        whole_prior = HyperParams(prior.get(cpt.node, (1,) * cpt.arity) * cpt.n_configs())
        joint = batch_update(whole_prior, family).alphas
        k = cpt.arity
        assert cpt.posteriors == tuple(
            HyperParams(joint[i * k : (i + 1) * k]) for i in range(cpt.n_configs())
        )


CHECKS = [check for checks in verify.SUITES.values() for check in checks]


@pytest.mark.parametrize(
    "check", [pytest.param(c, id=name) for name, c in zip(oracle.VERIFY_CHECKS, CHECKS)]
)
def test_each_law_passes_at_seed_42(request, check):
    result = check(42, 400)
    assert f"{result.suite}/{result.name}" == request.node.callspec.id
    assert result.passed, result.detail


def test_verify_reports_exactly_the_pinned_checks():
    # The benchmark's oracle pins these names and their order; a check added,
    # renamed or moved must change the oracle in the same change.
    results = verify.run_suite("all", seed=42)
    assert tuple(f"{r.suite}/{r.name}" for r in results) == oracle.VERIFY_CHECKS

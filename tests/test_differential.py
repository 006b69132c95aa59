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
import signal
import subprocess
import sys
import time
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


forks = pytest.mark.skipif(sys.platform != "linux", reason="run_suite forks only on Linux")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks
def test_forked_all_equals_the_suites_run_one_by_one():
    # On Linux `all` runs the stochastic suite in a forked child; the results
    # are those of each suite run alone in this process.
    results = verify.run_suite("all", seed=3, resolution=50)
    assert results == [r for name in verify.SUITES for r in verify.run_suite(name, 3, 50)]
    assert all(r.seconds > 0 for r in results)
    assert_no_child_left()


@forks
def test_check_raising_in_the_child_raises_its_traceback(monkeypatch):
    def refuse(points):
        raise ValueError("split refused")

    monkeypatch.setattr(verify, "split", refuse)
    with pytest.raises(RuntimeError) as exc:
        verify.run_suite("all", resolution=50)
    message = str(exc.value)
    assert message.startswith("the stochastic suite raised in its child process:\nTraceback")
    assert "in check_stoch_split_roundtrip" in message
    assert message.endswith("ValueError: split refused\n")
    assert_no_child_left()


@forks
@pytest.mark.parametrize("end,how", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
], ids=["exit", "killed"])
def test_child_that_dies_is_named_by_its_status(monkeypatch, end, how):
    monkeypatch.setitem(verify.SUITES, "stochastic", [lambda seed, resolution: end()])
    with pytest.raises(RuntimeError, match=f"^the stochastic suite's child process {how}$"):
        verify.run_suite("all", resolution=50)
    assert_no_child_left()


@forks
def test_interrupt_in_the_parent_kills_and_reaps_the_child(monkeypatch):
    def interrupt(seed, resolution):
        raise KeyboardInterrupt

    # A child that would outlive the test by far unless it is killed.
    monkeypatch.setitem(verify.SUITES, "stochastic", [lambda seed, resolution: time.sleep(60)])
    monkeypatch.setitem(verify.SUITES, "exact", [interrupt])
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite("all")
    assert time.perf_counter() - start < 30
    assert_no_child_left()

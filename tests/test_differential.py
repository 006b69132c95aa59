"""`learn` and `verify` against the benchmark's cptforge-free generator and oracle.

The generator and the oracle under ``perfbench/`` never import cptforge:
the oracle recounts every family from the generated rows with plain
Python ints and renders the expected tables itself, and it pins the
checks `verify --suite all` reports.  They, and the benchmark's self-test,
are loaded read-only, by file.
"""

import dataclasses
import functools
import importlib.util
import json
import os
import signal
import sys
import time
from pathlib import Path

import pytest

from cptforge import cli, verify
from cptforge.dirichlet import HyperParams
from cptforge.network import GraphSpec, ingest_counts, learn_bayes, load_prior

from conftest import reverse_the_split_totals

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
def test_learn_matches_oracle(tmp_path, run_python, workload, mode):
    inst = gen.generate(INSTANCES[workload], 1, workload)
    paths = gen.write(inst, tmp_path / "in")
    args = ["--graph", str(paths["graph"]), "--data", str(paths["data"])]
    if "prior" in paths:
        args += ["--prior", str(paths["prior"])]
    out = tmp_path / "out"
    proc = run_python("-m", "cptforge", "learn", "--mode", mode, *args, "--out", str(out))
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
        whole_prior = HyperParams(prior.get(cpt.node, (1,) * cpt.arity) * len(cpt.weights))
        joint = (whole_prior + family).counts
        k = cpt.arity
        assert cpt.posteriors == tuple(
            HyperParams(joint[i * k : (i + 1) * k]) for i in range(len(cpt.weights))
        )


@functools.cache
def results_at_seed_42():
    """Every law's result at seed 42, from one run."""
    return verify.run_suite("all", seed=42)


@pytest.mark.parametrize("check", oracle.VERIFY_CHECKS)
def test_each_law_passes_at_seed_42(check):
    result = {f"{r.suite}/{r.name}": r for r in results_at_seed_42()}[check]
    assert result.passed, result.detail


def test_verify_reports_exactly_the_pinned_checks():
    # The benchmark's oracle pins these names and their order; a check added,
    # renamed or moved must change the oracle in the same change.
    assert tuple(f"{r.suite}/{r.name}" for r in results_at_seed_42()) == oracle.VERIFY_CHECKS


forks = pytest.mark.skipif(sys.platform != "linux", reason="run_suite forks only on Linux")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forked(check):
    """Mark a stand-in check as one that `run_suite("all")` forks, as
    `@law(..., arrays=True)` marks a law."""
    check.arrays = True
    return check


@forks
def test_forked_all_equals_the_suites_run_one_by_one():
    # On Linux `all` runs the checks marked `arrays` in a forked child; the
    # results are those of each suite run alone in this process.
    results = verify.run_suite("all", seed=3)
    assert results == [r for name in verify.SUITES for r in verify.run_suite(name, 3)]
    assert all(r.seconds > 0 for r in results)
    assert_no_child_left()


def test_verify_json_is_one_record_per_check(monkeypatch, capsys):
    args = ["verify", "--suite", "all"]
    assert cli.main(args) == 0
    text = capsys.readouterr().out.splitlines()[:-1]
    assert cli.main([*args, "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert tuple(f"{r['suite']}/{r['name']}" for r in records) == oracle.VERIFY_CHECKS
    assert all(list(r) == ["suite", "name", "passed", "detail", "seconds"] for r in records)
    assert [f"[PASS] {r['suite']}/{r['name']}: {r['detail']}" for r in records] == text
    assert all(r["passed"] is True and r["seconds"] > 0 for r in records)

    reverse_the_split_totals(monkeypatch)
    assert cli.main([*args, "--json"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["name"] for r in records if not r["passed"]] == ["split-factorisation"]
    assert len(records) == len(oracle.VERIFY_CHECKS)


@forks
def test_check_raising_in_the_child_is_a_fail(monkeypatch, capsys):
    # A law that raises fails with what it raised, in process and in the
    # forked child; every other law still runs and reports as before.
    args = ["verify", "--suite", "all"]
    assert cli.main(args) == 0
    want = capsys.readouterr().out.splitlines()

    def refuse(table, graph):
        raise ValueError("learning refused")

    monkeypatch.setattr("cptforge.network.learn_mle", refuse)
    assert verify.check_golden_learn_mle.arrays  # so `all` runs it in the child
    failed = verify.CheckResult("golden", "learn-mle-pipeline", False,
                                "raised ValueError: learning refused", 0.0)
    assert failed in verify.run_suite("golden", 42)
    assert cli.main(args) == 1
    at = next(i for i, line in enumerate(want) if "golden/learn-mle-pipeline:" in line)
    assert capsys.readouterr().out.splitlines() == [
        *want[:at],
        "[FAIL] golden/learn-mle-pipeline: raised ValueError: learning refused",
        *want[at + 1 : -1],
        "SUMMARY: 30 passed, 1 failed (suite=all, seed=42, resolution=400)",
    ]
    assert_no_child_left()


@forks
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_in_process_all_forks_a_single_threaded_process(monkeypatch):
    # conftest asks for one BLAS thread before numpy loads, so this process,
    # which has loaded numpy, holds no helper thread when `all` forks.
    import numpy  # noqa: F401

    fork, threads = os.fork, []

    def counting_fork():
        threads.append(len(os.listdir("/proc/self/task")))
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    assert all(r.passed for r in verify.run_suite("all", 1))
    assert threads == [1]
    assert_no_child_left()


@forks
@pytest.mark.parametrize("end,how", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
], ids=["exit", "killed"])
def test_child_that_dies_is_named_by_its_status(monkeypatch, end, how):
    monkeypatch.setitem(verify.SUITES, "stochastic", [forked(lambda seed: end())])
    with pytest.raises(RuntimeError, match=f"^the forked checks' child process {how}$"):
        verify.run_suite("all")
    assert_no_child_left()


@forks
def test_child_that_raises_sends_its_traceback(monkeypatch):
    # A stand-in check is not wrapped by `@law`, so what it raises leaves
    # the child's checks; the parent names it and reaps the child.
    monkeypatch.setitem(verify.SUITES, "stochastic", [forked(lambda seed: 1 // 0)])
    with pytest.raises(RuntimeError, match="(?s)^the forked checks raised in their child "
                       r"process:\nTraceback .*ZeroDivisionError"):
        verify.run_suite("all")
    assert_no_child_left()


@forks
def test_interrupt_in_the_parent_kills_and_reaps_the_child(monkeypatch):
    def interrupt(seed):
        raise KeyboardInterrupt

    # A child that would outlive the test by far unless it is killed.
    monkeypatch.setitem(verify.SUITES, "stochastic", [forked(lambda seed: time.sleep(60))])
    monkeypatch.setitem(verify.SUITES, "exact", [interrupt])
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite("all")
    assert time.perf_counter() - start < 30
    assert_no_child_left()

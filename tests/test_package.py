"""What importing the package, and each run, loads, each case in a fresh
interpreter.

`import cptforge` loads neither numpy nor any submodule; a public name is
imported on first use.  `import cptforge.cli` loads no numpy and no other
submodule: `learn` imports the count pipeline, which loads neither
`fractions` nor numpy until it computes with arrays, and numpy then runs
its BLAS on one thread unless the user's environment sets
OPENBLAS_NUM_THREADS.  `verify` loads numpy only for the checks that
compute with arrays: under `--suite all` on Linux, only in the forked
child, which loads it, and no package module, before its first check, so
the parent forks with one thread.
"""

import os
import sys
from pathlib import Path

import pytest

TASKS = Path("/proc/self/task")  # one entry per thread of the reading process
needs_tasks = pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task")
forks = pytest.mark.skipif(sys.platform != "linux", reason="run_suite forks only on Linux")


@pytest.fixture
def output(run_python):
    """The stdout of `code` in a fresh interpreter, which must exit 0, with
    this process's OPENBLAS_NUM_THREADS unset unless `env` sets it."""

    def run(code: str, **env: str) -> str:
        proc = run_python("-c", code, **{"OPENBLAS_NUM_THREADS": None, **env})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    return run


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('cptforge'))))"


def test_import_loads_no_numpy_and_no_submodule(output):
    assert output(f"import sys, cptforge; print('numpy' in sys.modules); {LOADED}") == (
        "False\ncptforge"
    )


def test_cli_loads_only_what_learn_needs(output):
    # The CLI loads the count pipeline in `learn` alone; `fractions` (which
    # loads `decimal`) is for the law suites and the rational views, and the
    # count pipeline is integer arithmetic.
    code = (f"import sys, cptforge.cli; {LOADED}; print('numpy' in sys.modules); "
            f"import cptforge.network; {LOADED}; print('fractions' in sys.modules)")
    assert output(code) == (
        "cptforge cptforge.cli\nFalse\n"
        "cptforge cptforge.cli cptforge.finset cptforge.network\nFalse"
    )


def test_network_import_loads_no_numpy(output):
    assert output("import sys, cptforge.network; print('numpy' in sys.modules)") == "False"


def test_learn_with_a_malformed_graph_loads_no_numpy(output, tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("node A 2\nedge A B\n", encoding="utf-8")
    code = f"""
import contextlib, io, sys
from cptforge import cli
with contextlib.redirect_stderr(io.StringIO()) as err:
    code = cli.main(["learn", "--mode", "mle", "--graph", {str(graph)!r},
                     "--data", "none.csv", "--out", {str(tmp_path / "out")!r}])
print(code, 'numpy' in sys.modules, err.getvalue().strip())
"""
    assert output(code) == f"2 False error: {graph}: line 2: edge 'A' -> 'B' references an undeclared node"


@needs_tasks
def test_cli_runs_blas_on_one_thread(output):
    code = f"import os, cptforge.cli, numpy; print(len(os.listdir({str(TASKS)!r})))"
    assert output(code) == "1"


@needs_tasks
def test_user_blas_thread_count_wins(output):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no helper thread on one core")
    code = f"import os, cptforge.cli, numpy; print(len(os.listdir({str(TASKS)!r})))"
    assert output(code, OPENBLAS_NUM_THREADS="2") == "2"


QUIET = "import contextlib, io, sys; from cptforge import cli, verify\n"


def test_verify_exact_loads_no_numpy(output):
    code = QUIET + """
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--suite", "exact"])
print(code, 'numpy' in sys.modules)
"""
    assert output(code) == "0 False"


@forks
def test_verify_all_parent_loads_no_numpy(output):
    code = QUIET + """
results = verify.run_suite("all", 1)
print(len(results), all(r.passed for r in results), 'numpy' in sys.modules)
"""
    assert output(code) == "31 True False"


@forks
def test_forked_check_starts_with_numpy_loaded(output):
    # A probe law run in the child: it passes when numpy is loaded before it
    # starts, so no forked check's seconds include numpy's import.
    code = QUIET + """
@verify.law("probe", "numpy-loaded", arrays=True)
def probe(seed):
    return 'numpy' in sys.modules, ''

probe_result = verify.run_suite("all", 1)[-1]
print(probe_result.name, probe_result.passed, 'numpy' in sys.modules)
"""
    assert output(code) == "numpy-loaded True False"


@forks
def test_forked_checks_load_no_package_module(output):
    # The child runs exactly the three laws marked `arrays`, and a probe law
    # after them: from the fork to the probe, the child imported numpy and
    # nothing of the package, so no forked check's seconds include a
    # module's compile.
    code = QUIET + """
forked = [f"{r}/{c.__name__}" for r, checks in verify.SUITES.items() for c in checks if c.arrays]
before = set(sys.modules)

@verify.law("probe", "no-package-module", arrays=True)
def probe(seed):
    new = sorted(set(sys.modules) - before)
    return not [m for m in new if m.startswith("cptforge")], " ".join(new)

probe_result = verify.run_suite("all", 1)[-1]
print(forked)
print(probe_result.passed, 'numpy' in probe_result.detail.split())
"""
    assert output(code) == (
        "['golden/check_golden_learn_mle', 'golden/check_golden_learn_bayes', "
        "'stochastic/check_stoch_sampler_moments']\nTrue True"
    )


@forks
@needs_tasks
def test_verify_all_forks_a_single_threaded_process(output):
    # With numpy loaded before the fork, a user's OPENBLAS_NUM_THREADS=2
    # gave the parent a BLAS helper thread, and it forked with two threads.
    code = QUIET + f"""
import os
fork, threads = os.fork, []

def counting_fork():
    threads.append(len(os.listdir({str(TASKS)!r})))
    return fork()

os.fork = counting_fork
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--suite", "all"])
print(code, threads)
"""
    assert output(code, OPENBLAS_NUM_THREADS="2") == "0 [1]"


def test_every_public_name_resolves(output):
    code = """
import cptforge
names = cptforge.__all__
star = {}
exec("from cptforge import *", star)
assert set(names) == set(star) - {"__builtins__"}, set(names) ^ set(star)
assert all(star[name] is getattr(cptforge, name) for name in names)
assert set(names) <= set(dir(cptforge))
print(len(names))
try:
    cptforge.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert output(code) == "36\nmodule 'cptforge' has no attribute 'no_such_name'"


def test_submodule_import_keeps_the_function_name(output):
    # `mle` is both a submodule and the function it defines; loading the
    # submodule must not rebind the package's name.
    code = "import cptforge.verify, cptforge; print(cptforge.mle.__module__, cptforge.mle.__name__)"
    assert output(code) == "cptforge.mle mle"

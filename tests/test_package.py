"""What importing the package, and each run, loads, each case in a fresh
interpreter.

`import cptforge` loads neither numpy nor any submodule; a public name is
imported on first use.  `import cptforge.cli` loads no numpy and no other
submodule: `learn` imports the count pipeline, which loads neither
`fractions` nor numpy until it computes with arrays, and numpy then runs
its BLAS on one thread unless the user's environment sets
OPENBLAS_NUM_THREADS.  `verify` loads numpy only for the checks that
compute with arrays: under `--suite all` on Linux, only in the forked
child, which loads `network` and then numpy, and no other package module,
before its first check, so the parent forks with one thread.
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
    # Nor `network`, nor does the stochastic suite: every law but the two
    # golden learn-pipeline laws computes without arrays.
    code = QUIET + """
for suite in ("exact", "stochastic"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--suite", suite])
    print(suite, code, 'numpy' in sys.modules, 'cptforge.network' in sys.modules)
"""
    assert output(code) == "exact 0 False False\nstochastic 0 False False"


@forks
def test_verify_all_parent_loads_no_numpy(output):
    code = QUIET + """
results = verify.run_suite("all", 1)
print(len(results), all(r.passed for r in results), 'numpy' in sys.modules,
      'cptforge.network' in sys.modules)
"""
    assert output(code) == "31 True False False"


# The child runs the laws marked `arrays`, with a probe law put before them
# and one after them.  The first probe lists the package modules, and numpy,
# that the child imported since the fork; the last, those imported since the
# first.  So no forked check's seconds include a module's import or compile.
PROBES = QUIET + """
forked = [f"{r}/{c.__name__}" for r, checks in verify.SUITES.items() for c in checks if c.arrays]
before, seen = set(sys.modules), set()
new = lambda since: " ".join(m for m in sys.modules if m not in since and (m == "numpy" or m.startswith("cptforge")))
verify.law("golden", "probe-first", arrays=True)(lambda seed: (not seen.update(sys.modules), new(before)))
verify.law("golden", "probe-last", arrays=True)(lambda seed: (not new(seen), new(seen)))
verify.SUITES["golden"].insert(0, verify.SUITES["golden"].pop(-2))
results = {r.name: r.detail for r in verify.run_suite("all", 1)}
print(forked, results["probe-last"] or "none", 'numpy' in sys.modules)
print(results["probe-first"])
"""


@forks
def test_forked_check_starts_with_numpy_loaded(output):
    assert output(PROBES).splitlines()[1] == "cptforge.network numpy"


@forks
def test_forked_checks_load_no_package_module(output):
    assert output(PROBES).splitlines()[0] == (
        "['golden/check_golden_learn_mle', 'golden/check_golden_learn_bayes'] none False"
    )


@forks
@needs_tasks
def test_verify_all_forks_a_single_threaded_process(output):
    # With numpy loaded before the fork, a user's OPENBLAS_NUM_THREADS=2
    # gave the parent a BLAS helper thread, and it forked with two threads.
    code = QUIET + f"""
import os
fork, threads = os.fork, []
os.fork = lambda: (threads.append(len(os.listdir({str(TASKS)!r}))), fork())[1]
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
    assert output(code) == "35\nmodule 'cptforge' has no attribute 'no_such_name'"


def test_submodule_import_keeps_the_function_name(output):
    # `mle` is both a submodule and the function it defines; loading the
    # submodule must not rebind the package's name.
    code = "import cptforge.verify, cptforge; print(cptforge.mle.__module__, cptforge.mle.__name__)"
    assert output(code) == "cptforge.mle mle"

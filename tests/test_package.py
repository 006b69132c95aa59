"""What importing the package loads, each case in a fresh interpreter.

`import cptforge` loads neither numpy nor any submodule; a public name is
imported on first use.  `import cptforge.cli` loads only what `learn`
needs, not `fractions`, with numpy's BLAS on one thread unless the user's
environment sets OPENBLAS_NUM_THREADS.
"""

import os
from pathlib import Path

import pytest

TASKS = Path("/proc/self/task")  # one entry per thread of the reading process
needs_tasks = pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task")


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
    # `fractions` (which loads `decimal`) is for the law suites and the
    # rational views; the count pipeline is integer arithmetic.
    code = f"import sys, cptforge.cli; {LOADED}; print('fractions' in sys.modules)"
    assert output(code) == (
        "cptforge cptforge.cli cptforge.finset cptforge.network\nFalse"
    )


@needs_tasks
def test_cli_runs_blas_on_one_thread(output):
    code = f"import os, cptforge.cli; print(len(os.listdir({str(TASKS)!r})))"
    assert output(code) == "1"


@needs_tasks
def test_user_blas_thread_count_wins(output):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no helper thread on one core")
    code = f"import os, cptforge.cli; print(len(os.listdir({str(TASKS)!r})))"
    assert output(code, OPENBLAS_NUM_THREADS="2") == "2"


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

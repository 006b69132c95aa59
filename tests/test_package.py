"""What importing the package loads, each case in a fresh interpreter.

`import cptforge` loads neither numpy nor any submodule; a public name is
imported on first use.  `import cptforge.cli` loads only what `learn`
needs, with numpy's BLAS on one thread unless the user's environment sets
OPENBLAS_NUM_THREADS.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TASKS = Path("/proc/self/task")  # one entry per thread of the reading process
needs_tasks = pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task")


def run_python(code: str, **env: str) -> str:
    """Run `code` in a fresh interpreter with `src` on the path, the
    OPENBLAS_NUM_THREADS of this process dropped and `env` added."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), child_env.get("PYTHONPATH")) if p
    )
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('cptforge'))))"


def test_import_loads_no_numpy_and_no_submodule():
    assert run_python(f"import sys, cptforge; print('numpy' in sys.modules); {LOADED}") == (
        "False\ncptforge"
    )


def test_cli_loads_only_what_learn_needs():
    assert run_python(f"import sys, cptforge.cli; {LOADED}") == (
        "cptforge cptforge.cli cptforge.finset cptforge.network"
    )


@needs_tasks
def test_cli_runs_blas_on_one_thread():
    code = f"import os, cptforge.cli; print(len(os.listdir({str(TASKS)!r})))"
    assert run_python(code) == "1"


@needs_tasks
def test_user_blas_thread_count_wins():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no helper thread on one core")
    code = f"import os, cptforge.cli; print(len(os.listdir({str(TASKS)!r})))"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_every_public_name_resolves():
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
    assert run_python(code) == "49\nmodule 'cptforge' has no attribute 'no_such_name'"


def test_submodule_import_keeps_the_function_name():
    # `mle` is both a submodule and the function it defines; loading the
    # submodule must not rebind the package's name.
    code = "import cptforge.verify, cptforge; print(cptforge.mle.__module__, cptforge.mle.__name__)"
    assert run_python(code) == "cptforge.mle mle"

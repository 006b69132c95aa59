"""The cptforge benchmark: fresh `cpt-forge` processes on seeded inputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload learn-tall --seed 1 --seconds 40 --trace 0

Workloads:

* ``learn-tall``: ``learn --mode mle`` on 30 nodes (arity 2-4, 1-3 parents)
  and 100k nearly distinct CSV rows; ingest and family counting dominate.
* ``learn-wide``: ``learn --mode bayes`` with a prior file on 60 nodes
  (arity 3-4, up to 6 parents, about 10^5 table cells) and 3000 rows;
  per-configuration exact-rational work and writing dominate.  Not in
  BENCHMARK.json (see README.md); run it by name.
* ``verify-all``: ``verify --suite all --seed SEED``; quadrature, sampling,
  the local-split audit and the law checks.

A run generates its inputs from the seed (untimed), computes the expected
outputs with an oracle that does not use cptforge, runs the self-tests,
makes one uncounted warm-up invocation, and then runs the command again
and again, one child at a time, until ``--seconds`` have passed.  Each
child is reaped with ``os.wait4`` for its own CPU time and peak RSS, and
every output is checked.  ``setup_s`` is the wall time of a fresh
interpreter that only imports ``cptforge.cli``, taken five times before
the warm-up and once after every measured child.

``--trace 0`` reports the end-to-end metrics: medians over the children of
wall time, CPU time and peak RSS, and ``setup_s``.  Throughput (CSV rows
per wall second for learn, law checks for verify) is printed alongside;
it is the workload's fixed size over ``wall_s``, so it is not a metric of
its own.  ``--trace 1`` alternates
untraced children with children run under ``perfbench/spans.py``, and
reports the per-layer metrics as medians over the traced children, with
the tracing overhead against the untraced wall time.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it and
``.perfbench_results/<workload>-seed<seed>-trace<t>.json`` hold the
samples, within-run spreads, output digests and the machine description.
The exit code is 1 if an output was rejected or an operation failed, and
2 if the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import selftest
from gen import SHAPES, generate, write
from oracle import (VERIFY_CHECKS, Rejected, check_tables, check_verify, digest, dir_digest,
                    expected_tables)
from spans import LAYERS
from spread import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150
MIN_SAMPLES = 3
SETUP_SPAWNS = 5  # before the warm-up; one more follows every untraced child
IMPORTTIME_SPAWNS = 3


# Workload -> learn mode; verify-all runs `verify --suite all` instead.
WORKLOADS = {"learn-tall": "mle", "learn-wide": "bayes", "verify-all": None}


class Timeout(Exception):
    pass


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _alarm(signum, frame):
    raise Timeout


def spawn(argv: list[str], scratch: Path) -> Child:
    """Run one child to completion and account for it alone via wait4."""
    # A fixed hash seed gives every child the same string hashes and dict layouts.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


class Job:
    """One workload instance: its command line and the check of its output."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.seed, self.scratch, self.mode = seed, scratch, WORKLOADS[name]
        self.attempted = self.failed = 0
        self.digests: set[str] = set()  # of every output; one element if deterministic
        if self.mode is None:
            self.args = ["verify", "--suite", "all", "--seed", str(seed)]
            self.ops = len(VERIFY_CHECKS)  # each check is one operation
            self.throughput = (len(VERIFY_CHECKS), "checks/s")
            return
        inst = generate(SHAPES[name], seed, name)
        paths = write(inst, scratch / "input")
        self.ops = 1
        self.throughput = (len(inst.counts), "rows/s")
        self.out = scratch / "out"
        self.expected = expected_tables(inst, self.mode)
        self.wrote = "".join(f"wrote {self.out / f'{n}.csv'}\n" for n in inst.names)
        self.args = ["learn", "--mode", self.mode, "--graph", str(paths["graph"]),
                     "--data", str(paths["data"]), "--out", str(self.out)]
        if "prior" in paths:
            self.args += ["--prior", str(paths["prior"])]

    def run(self, prefix: list[str]) -> Child:
        """Run the command once behind `prefix` and check its output.

        Raises Rejected for a malformed or wrong output; a verify FAIL line
        is a well-formed output that counts as one failed operation.
        """
        if self.mode:
            shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += self.ops
        self.failed += self.ops  # until the output is accepted
        child = spawn(prefix + self.args, self.scratch)
        if "Traceback" in child.stderr:
            raise Rejected(f"traceback: {child.stderr[-2000:]}")
        if self.mode is None:
            self.failed += check_verify(child.stdout, child.returncode, self.seed) - self.ops
            self.digests.add(digest({"stdout": child.stdout.encode()}))
            return child
        if child.returncode != 0:
            raise Rejected(f"learn exited {child.returncode}: {child.stderr[-2000:]}")
        if child.stdout != self.wrote:
            raise Rejected(f"unexpected learn stdout: {child.stdout[:500]!r}")
        check_tables(self.out, self.expected)
        self.failed -= self.ops
        self.digests.add(dir_digest(self.out))
        return child


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def setup_time(scratch: Path) -> float:
    """Wall time of a fresh interpreter that only imports cptforge.cli."""
    return spawn([sys.executable, "-c", "import cptforge.cli"], scratch).wall_s


def numpy_import_s(scratch: Path) -> float:
    """numpy's cumulative share of `import cptforge.cli`, from -X importtime."""
    shares = []
    for _ in range(IMPORTTIME_SPAWNS):
        child = spawn([sys.executable, "-X", "importtime", "-c", "import cptforge.cli"],
                      scratch)
        share = 0.0
        for line in child.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "numpy":
                share = int(parts[1]) / 1e6
        shares.append(share)
    return statistics.median(shares)


def layer_metrics(report: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced child's spans and counters."""
    spans, counts = report["spans"], report["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        _, seconds, child = spans.get(name, (0, 0.0, 0.0))
        return seconds - child

    m = {
        "cli.import_s": total("cli.import"),
        "network.ingest_s": total("network.ingest_counts"),
        "network.family_counts_s": total("network.CountTable.marginal_counts"),
        "network.learn_self_s": self_time("network.learn_mle") + self_time("network.learn_bayes"),
        "network.write_s": total("network.write_cpts"),
        "finset.row_extract_s": total("finset.row_extract"),
        "mle.mle_s": total("mle.mle"),
        "mle.calls": calls("mle.mle"),
        "bayes.batch_update_s": total("bayes.batch_update"),
        "bayes.calls": calls("bayes.batch_update"),
        "dist.dist_s": total("dist.Dist"),
        "dist.dists_built": calls("dist.Dist"),
        "dirichlet.mean_s": total("dirichlet.dirichlet_mean"),
        "dirichlet.cells_s": total("dirichlet.simplex_cells"),
        "dirichlet.sample_s": total("dirichlet.dirichlet_sample_many"),
        "localsplit.audit_s": total("localsplit.local_update_audit"),
    }
    m.update(counts)
    rows = counts["network.rows_read"]
    m["network.distinct_ratio"] = counts["network.distinct_tuples"] / rows if rows else 0.0
    for check in VERIFY_CHECKS:
        name = "verify." + check.replace("/", ".")
        m[name + "_s"] = total(name)
    attributed = 0.0
    for layer in LAYERS:
        layer_self = sum(s - c for name, (_, s, c) in spans.items()
                         if name.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = layer_self
        attributed += layer_self
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - attributed
    return m


UNITS = {"_s": "s", "_frac": "ratio", "_ratio": "ratio", "bytes_written": "bytes"}


def unit_of(name: str) -> str:
    """Per-layer units by name suffix; everything else is a count."""
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def measure(job: Job, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The timed loop; returns (metrics, record of the samples)."""
    python = [sys.executable, "-m", "cptforge"]
    traced = [sys.executable, str(HERE / "spans.py"), str(job.scratch / "spans.json"), "--"]
    setup = [setup_time(job.scratch) for _ in range(SETUP_SPAWNS)]
    job.run(python)  # warm-up: checked, not timed
    plain, spanned, reports = [], [], []
    start = time.perf_counter()
    while (len(plain) < MIN_SAMPLES
           or time.perf_counter() - start + plain[-1].wall_s * (2 if trace else 1) <= seconds):
        plain.append(job.run(python))
        if not trace:
            setup.append(setup_time(job.scratch))
        else:
            spanned.append(job.run(traced))
            report = json.loads((job.scratch / "spans.json").read_text(encoding="utf-8"))
            reports.append(layer_metrics(report, spanned[-1].wall_s))
    wall = statistics.median(c.wall_s for c in plain)
    samples = {"wall_s": [c.wall_s for c in plain], "cpu_s": [c.cpu_s for c in plain],
               "peak_rss_mb": [c.rss_mb for c in plain], "setup_s": setup}
    if not trace:
        metrics = {"wall_s": wall,
                   "cpu_s": statistics.median(samples["cpu_s"]),
                   "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
                   "setup_s": statistics.median(setup)}
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        items, unit = job.throughput
        print(f"# throughput = {items / wall:.6g} {unit}")
    else:
        metrics = {name: statistics.median(r[name] for r in reports) for name in reports[0]}
        metrics["cli.import_numpy_s"] = numpy_import_s(job.scratch)
        metrics["trace.overhead_frac"] = statistics.median(c.wall_s for c in spanned) / wall - 1
        units = {name: unit_of(name) for name in metrics}
        samples["traced_wall_s"] = [c.wall_s for c in spanned]
    for name, values in samples.items():
        print(f"# {name}: n={len(values)} median={statistics.median(values):.4f} "
              f"spread={spread(values):.3f} "
              f"values={' '.join(f'{v:.4f}' for v in values)}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, samples


def main() -> int:
    parser = argparse.ArgumentParser(description="cptforge benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cptforge" / "cli.py").is_file():
        print(f"error: no cptforge sources under {SRC}", file=sys.stderr)
        return 2

    results = ROOT / ".perfbench_results"
    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        return bench(args, scratch, results)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def bench(args, scratch: Path, results: Path) -> int:
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine()}
    print(f"# {json.dumps(info)}")
    metrics, samples, problems = {}, {}, []
    job = None
    try:
        selftest.run_all(scratch / "selftest")
        job = Job(args.workload, args.seed, scratch)
        metrics, samples = measure(job, args.seconds, bool(args.trace))
    except (Rejected, selftest.SelfTestError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
        print(f"# REJECTED: {exc}")
    attempted, failed = (job.attempted, job.failed) if job else (1, 1)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_frac = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    if job:
        info["output_sha256"] = sorted(job.digests)
        print(f"# output sha256: {' '.join(info['output_sha256'])}")
    results.mkdir(exist_ok=True)
    record = dict(info, metrics=metrics, samples=samples, problems=problems,
                  attempted=attempted, failed=failed)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

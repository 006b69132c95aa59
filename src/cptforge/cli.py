"""Command-line interface.

Two subcommands:

* ``cpt-forge learn --mode {mle|bayes} --graph G --data D --out DIR
  [--prior ones|FILE]`` reads a graph and a count CSV and writes one table
  CSV per node into DIR.
* ``cpt-forge verify --suite {golden|exact|stochastic|all} [--seed N]
  [--resolution N]`` runs the law suites and reports one PASS/FAIL line
  per check; N is MIN_RESOLUTION..max_resolution() (5..1023), and each
  quadrature law's tolerance, 1e-3 at N = 400, scales as 1/N**2 up to a
  cap of 0.5.  On Linux, ``--suite all`` runs the stochastic suite in a
  forked child beside the other two; its output is the same.

Exit codes: 0 success, 1 verification failure, 2 input error or a standard
output closed before the report was written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# numpy's bundled OpenBLAS starts one helper thread per core when it loads, and
# each helper spin-waits after the load and after every BLAS call.  The
# products here are small (the largest is 55x16384 times 16384x10) and run in
# the same wall time on one thread: on 2 cores, verify --suite all used 0.59 s
# of CPU for 0.34 s of wall time with the helpers and 0.34 s without.  So the
# CLI asks for one thread before the first import of numpy; a value the user
# has set wins.  The library itself leaves the environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .network import (
    DataError,
    GraphSpec,
    ingest_counts,
    learn_bayes,
    learn_mle,
    load_prior,
    write_cpts,
)


def _at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


# Below 5, density-normalisation's errors need not shrink when the grid
# doubles (the rule is not yet in its second-order regime).
MIN_RESOLUTION = 5


def max_resolution() -> int:
    """The largest --resolution: verify's largest grid is density-normalisation's
    3-outcome grid at twice the resolution, r * (2r + 1) cells at resolution r,
    and it must stay within MAX_QUADRATURE_CELLS."""
    # Deferred, like the verify import: `learn` never loads the quadrature module.
    from .dirichlet import MAX_QUADRATURE_CELLS

    return (math.isqrt(8 * MAX_QUADRATURE_CELLS + 1) - 1) // 4


def resolution(text: str) -> int:
    """The --resolution type: an integer in MIN_RESOLUTION..max_resolution()
    (argparse names it in errors)."""
    from .dirichlet import MAX_QUADRATURE_CELLS

    value, largest = _at_least(MIN_RESOLUTION, text), max_resolution()
    if value > largest:
        raise argparse.ArgumentTypeError(
            f"must be at most {largest}, got {value}: density-normalisation's "
            f"grid at twice the resolution would exceed {MAX_QUADRATURE_CELLS} cells"
        )
    return value


def seed(text: str) -> int:
    """The --seed type: an integer of at least 0, as the random streams need."""
    return _at_least(0, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpt-forge",
        description="Learn conditional probability tables from count data, "
        "and verify the laws the learning maps satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="learn tables from a graph and count data")
    learn.add_argument("--mode", choices=("mle", "bayes"), required=True,
                       help="normalise counts directly, or update per-row priors")
    learn.add_argument("--graph", required=True, help="graph file (node/edge directives)")
    learn.add_argument("--data", required=True, help="count CSV in long format")
    learn.add_argument("--out", required=True, help="output directory (one CSV per node)")
    learn.add_argument("--prior", default="ones",
                       help="'ones' or a per-node pseudo-count file; bayes mode only, "
                       "so --mode mle with a file exits 2")

    verify = sub.add_parser("verify", help="run the law suites")
    verify.add_argument("--suite", choices=("golden", "exact", "stochastic", "all"),
                        required=True)
    verify.add_argument("--seed", type=seed, default=42)
    verify.add_argument("--resolution", type=resolution, default=400)
    return parser


def _run_learn(args: argparse.Namespace) -> int:
    if args.mode == "mle" and args.prior != "ones":
        print(f"error: --prior {args.prior}: only --mode bayes uses a prior, "
              "and --mode mle normalises the counts alone", file=sys.stderr)
        return 2
    try:
        graph = GraphSpec.load(args.graph)
        table = ingest_counts(args.data, graph)
        if args.mode == "mle":
            cpts = learn_mle(table, graph)
        else:
            prior = None if args.prior == "ones" else load_prior(args.prior, graph)
            cpts = learn_bayes(table, graph, prior)
        written = write_cpts(cpts, args.out)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    # Deferred: only verify needs the law-suite module, and importing it at
    # module level would add its import time to every learn run.
    from .verify import run_suite

    results = run_suite(args.suite, seed=args.seed, resolution=args.resolution)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.suite}/{r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(
        f"SUMMARY: {len(results) - failed} passed, {failed} failed "
        f"(suite={args.suite}, seed={args.seed}, resolution={args.resolution})"
    )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run_learn(args) if args.command == "learn" else _run_verify(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
    except BrokenPipeError:
        # The reader went away (`cpt-forge learn ... | head -1`).  Point stdout
        # at devnull so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before the report was written",
              file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())

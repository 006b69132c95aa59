"""Command-line interface.

Two subcommands:

* ``cpt-forge learn --mode {mle|bayes} --graph G --data D --out DIR
  [--prior ones|FILE]`` reads a graph and a count CSV and writes one table
  CSV per node into DIR.
* ``cpt-forge verify --suite {golden|exact|stochastic|all} [--seed N]
  [--json]`` runs the law suites and reports one PASS/FAIL line per check,
  then a SUMMARY line.  The SUMMARY line ends with ``resolution=400``, a
  fixed field kept so that its format does not change: every integral law
  is exact and uses no grid.  ``--json`` prints, in place of those lines,
  one JSON object per check, one per line: its ``suite``, ``name``,
  ``passed``, ``detail`` and ``seconds``.  On Linux, ``--suite all`` runs
  the checks that compute with numpy arrays in a forked child beside the
  other checks; its output is the same.

Exit codes: 0 success, 1 verification failure, 2 input error or a standard
output closed before the report was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

# numpy's bundled OpenBLAS starts one helper thread per core when it loads, and
# each helper spin-waits after the load.  The package makes no BLAS call, so
# the helpers only burn CPU: on 2 cores, a golden learn used 0.19 s of CPU
# with them and 0.13 s with one thread.  So the CLI asks for one thread
# before the first import of numpy; a value the user has set wins.  The
# library itself leaves the environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def seed(text: str) -> int:
    """The --seed type: an integer of at least 0, as the random streams need
    (argparse names it in errors)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


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

    verify = sub.add_parser(
        "verify", help="run the law suites",
        description="Run the law suites: one PASS/FAIL line per check, then a SUMMARY line. "
        "The SUMMARY line ends with 'resolution=400', a fixed field kept so that its "
        "format does not change: every integral law is exact and uses no grid.")
    verify.add_argument("--suite", choices=("golden", "exact", "stochastic", "all"),
                        required=True)
    verify.add_argument("--seed", type=seed, default=42)
    verify.add_argument("--json", action="store_true",
                        help="print one JSON object per check (suite, name, passed, "
                        "detail, seconds) in place of the text lines")
    return parser


def _run_learn(args: argparse.Namespace) -> int:
    if args.mode == "mle" and args.prior != "ones":
        print(f"error: --prior {args.prior}: only --mode bayes uses a prior, "
              "and --mode mle normalises the counts alone", file=sys.stderr)
        return 2
    # Deferred, like `.verify` below: only learn needs the count pipeline,
    # which loads numpy when it first computes with arrays, after the graph
    # has been read.
    from .network import (
        DataError,
        GraphSpec,
        ingest_counts,
        learn_bayes,
        learn_mle,
        load_prior,
        write_cpts,
    )

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

    results = run_suite(args.suite, seed=args.seed)
    failed = sum(1 for r in results if not r.passed)
    if args.json:
        import dataclasses
        import json

        for r in results:
            print(json.dumps(dataclasses.asdict(r)))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.suite}/{r.name}: {r.detail}")
        print(
            f"SUMMARY: {len(results) - failed} passed, {failed} failed "
            f"(suite={args.suite}, seed={args.seed}, resolution=400)"
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


def entry() -> NoReturn:
    """The ``cpt-forge`` console script and ``python -m cptforge``: run
    main, flush both streams and leave through ``os._exit``.

    Once the report is flushed the run has nothing left to do, but the
    interpreter's teardown (final collections over some 21k tracked
    objects, then module clearing) took about 20 ms more on a 2-core Xeon.
    ``os._exit`` skips it, and with it atexit handlers, of which the CLI
    registers none.  argparse's SystemExit (a usage error, ``--help``)
    propagates as it always did.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()

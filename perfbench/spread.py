"""Run the benchmark over several seeds and judge its run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10 [--workloads learn-tall,verify-all]
        [--seconds N] [--trace 1]

For every workload it runs ``perfbench/run.py`` once per seed, one after
the other, and prints for each reported metric its unit, its median over
the runs, and its spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  Untraced metrics are set against their bound in BENCHMARK.json;
``ok`` means the spread is below a third of the bound (``setup_s`` is
judged only between medians, so its spread is shown but not judged).
It also prints failed_frac (failed / attempted operations) per workload,
and exits 1 if any run reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the spread the bounds are judged by."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]} if not args.trace else {}

    all_correct = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                all_correct = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-3000:]}"
                      f"{proc.stderr[-3000:]}", file=sys.stderr)
                if not result:
                    continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            if not args.trace:
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(args.seeds)} runs of {args.seconds} s, "
              f"failed_frac = {failed / max(attempted, 1):.3g} ({failed}/{attempted})")
        print(f"  {'metric':48} {'unit':6} {'median':>12} {'spread':>7} {'bound':>6}  verdict")
        for name, vals in values.items():
            s = spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "medians only" if name == "setup_s" else (
                    "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE"))
            print(f"  {name:48} {units[name]:6} {statistics.median(vals):12.6g} {s:7.3f} "
                  f"{bound if bound is not None else '':>6}  {verdict}")
        print(flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

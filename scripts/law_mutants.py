#!/usr/bin/env python3
"""Show that the laws can fail: run `verify` on single-site mutants of the package.

Usage: law_mutants.py [MUTANT ...]

Each mutant is one text replacement in a file of src/cptforge that must
match exactly once.  For the unmutated package and then for each mutant
(all of them, or the named ones), the script copies src/ into a temporary
directory, applies the replacement there, never in the repository, and
runs `python -m cptforge verify --suite all --seed 1 --json` on the copy.
It prints one line per run with the laws that failed, then the
law-by-mutant matrix and the laws that no mutant ran here fails.  It exits
0 when the unmutated copy fails no law and every mutant fails at least one,
and 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> (file under src/cptforge, old text, new text)
MUTANTS = {
    "aggregate-wrong-target": (
        "finset.py",
        "return type(phi)(tuple(out))",
        "return type(phi)(tuple(out[::-1]))",
    ),
    "audit-direct-not-incremented": (
        "localsplit.py",
        "direct, updated_rows = ms_map(proj1, updated),",
        "direct, updated_rows = ms_map(proj1, joint),",
    ),
    "moment-rising-off-by-one": (
        "dirichlet.py",
        "return math.prod(range(a, a + k))",
        "return math.prod(range(a, a + k + 1))",
    ),
    "normalise-adds-one": (
        "dist.py",
        "return _normalised(weights, total)",
        "return _normalised(tuple(w + 1 for w in weights), total + len(weights))",
    ),
    "pdf-exponent-off-by-one": (
        "dirichlet.py",
        "math.prod(v ** (a - 1) for v, a in zip(x.weights, alpha.counts))",
        "math.prod(v ** a for v, a in zip(x.weights, alpha.counts))",
    ),
    "normalizer-off-by-one": (
        "dirichlet.py",
        "return Fraction(gamma_nat(alpha.total()), den)",
        "return Fraction(gamma_nat(alpha.total() + 1), den)",
    ),
    "binomial-sum-denominator-off-by-one": (
        "dirichlet.py",
        "den // (a + j + 1)",
        "den // (a + j + 2)",
    ),
    "one-sum-merges-the-last-pair": (
        "dirichlet.py",
        "merged = ms_map(FinMap((0, *range(alpha.n - 1)), alpha.n - 1), alpha)",
        "merged = ms_map(FinMap((*range(alpha.n - 1), alpha.n - 2), alpha.n - 1), alpha)",
    ),
    "split-column-shares": (
        "dist.py",
        "_normalised(row, s) for row, s in zip(rows, sums)",
        "_normalised(row, s) for row, s in zip(rows, map(sum, zip(*rows)))",
    ),
    "unsplit-reversed-totals": (
        "dist.py",
        "factors, total = _row_factors(c, omega)\n    return _normalised([f * q",
        "factors, total = _row_factors(c, Dist.normalise(omega.weights[::-1]))\n"
        "    return _normalised([f * q",
    ),
    "shifted-prefactor-inverted": (
        "localsplit.py",
        "return dirichlet_normalizer(betas) / dirichlet_normalizer(_lowered(betas, shift))",
        "return dirichlet_normalizer(_lowered(betas, shift)) / dirichlet_normalizer(betas)",
    ),
    "quotient-jacobian-off-by-one": (
        "localsplit.py",
        "jacobian = math.prod(y ** shift for y in totals.probs)",
        "jacobian = math.prod(y ** (shift + 1) for y in totals.probs)",
    ),
    "cont-condition-wrong-coordinate": (
        "bayes.py",
        "return alpha.increment(p.point_index())",
        "return alpha.increment(0)",
    ),
    "lifted-predicate-reversed": (
        "bayes.py",
        "for i, v in enumerate(p.values))",
        "for i, v in enumerate(p.values[::-1]))",
    ),
    "batch-update-data-reversed": (
        "finset.py",
        "zip(self.counts, other.counts)",
        "zip(self.counts, other.counts[::-1])",
    ),
    "validity-transfer-first-moment-only": (
        "bayes.py",
        "units = [[int(j == i) for j in range(alpha.n)] for i in range(alpha.n)]",
        "units = [[int(j == 0) for j in range(alpha.n)] for i in range(alpha.n)]",
    ),
    "ms-map-reversed-domain": (
        "finset.py",
        "out[h.targets[x]] += c",
        "out[h.targets[-1 - x]] += c",
    ),
    "row-extract-reversed-rows": (
        "finset.py",
        "for k in range(0, phi.n, m))",
        "for k in range(phi.n - m, -1, -m))",
    ),
    "ms-tensor-reversed-factor": (
        "finset.py",
        "return Multiset(tuple(a * b for a in phi.counts for b in psi.counts))",
        "return Multiset(tuple(a * b for a in phi.counts for b in psi.counts[::-1]))",
    ),
    "dist-map-reversed-targets": (
        "dist.py",
        "for y, w in zip(h.targets, omega.weights):",
        "for y, w in zip(h.targets[::-1], omega.weights):",
    ),
    "state-transform-reversed-outcome": (
        "dist.py",
        "out[y] += f * q",
        "out[-1 - y] += f * q",
    ),
    "disintegrate-reversed-first": (
        "dist.py",
        "return _normalised(sums, omega.total), channel",
        "return _normalised(sums[::-1], omega.total), channel",
    ),
    "pair-graph-reversed-rows": (
        "dist.py",
        "for q in row.weights], total)",
        "for q in row.weights[::-1]], total)",
    ),
    "condition-reversed-result": (
        "dist.py",
        "return _normalised(products, mass)",
        "return _normalised(products[::-1], mass)",
    ),
    "validity-total-off-by-one": (
        "dist.py",
        "return Fraction(sum(products), total)",
        "return Fraction(sum(products), total + 1)",
    ),
    "likelihood-reversed-weights": (
        "mle.py",
        "zip(omega.weights, phi.counts)",
        "zip(omega.weights[::-1], phi.counts)",
    ),
    "counterexample-ignores-outer-weights": (
        "mle.py",
        "copies = [inner for weight, inner in _NESTED for _ in range(weight)]",
        "copies = [inner for weight, inner in _NESTED]",
    ),
    "bayes-default-prior-two": (
        "network.py",
        "HyperParams(prior.get(n, (1,) * a))",
        "HyperParams(prior.get(n, (2,) * a))",
    ),
}


def verdicts(mutant: str | None) -> dict[str, bool]:
    """Each law's verdict, "suite/name" -> passed in report order, from
    `verify --suite all --seed 1` on a copy of src/ with the mutant applied
    (none for None)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            name, old, new = MUTANTS[mutant]
            path = copy / "cptforge" / name
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{mutant}: {name} holds {text.count(old)} copies of {old!r}")
            path.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "cptforge", "verify", "--suite", "all", "--seed", "1", "--json"],
            capture_output=True, text=True, env=env, timeout=300,
        )
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{mutant}: verify exited {proc.returncode}\n{proc.stderr}")
    records = (json.loads(line) for line in proc.stdout.splitlines())
    return {f"{r['suite']}/{r['name']}": r["passed"] for r in records}


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; pick from {', '.join(MUTANTS)}",
              file=sys.stderr)
        return 2
    mutants = argv or list(MUTANTS)

    def failed(name: str, results: dict[str, bool]) -> list[str]:
        laws = [law for law, passed in results.items() if not passed]
        print(f"{name}: fails {len(laws)} laws{': ' if laws else ''}" + ", ".join(laws))
        return laws

    laws = verdicts(None)
    clean = failed("unmutated", laws)
    matrix = {mutant: set(failed(mutant, verdicts(mutant))) for mutant in mutants}

    print("\nlaw-by-mutant matrix (x: the mutant fails the law)")
    print("   " + " ".join(f"{k:>2}" for k in range(1, len(mutants) + 1)) + "  law")
    for law in laws:
        print("   " + " ".join(" x" if law in matrix[m] else " ." for m in mutants) + f"  {law}")
    for k, mutant in enumerate(mutants, 1):
        print(f"  {k:>2} {mutant}")
    missed = [law for law in laws if not any(law in failed for failed in matrix.values())]
    print(f"laws no mutant here fails: {', '.join(missed) or 'none'}")
    return 0 if not clean and all(matrix.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

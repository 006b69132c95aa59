"""Expected `learn` and `verify` outputs, computed without cptforge.

Family counts are recomputed from the generated rows with plain Python
ints; each expected table is rendered exactly as the CLI documents it
(parent columns row-major in declared edge order, then ``p0..`` for MLE or
``a0..,mean0..`` for Bayes, fractions as reduced ``a/b``), so a learned
directory is checked byte for byte, header and row order included.
"""

from __future__ import annotations

import hashlib
from math import gcd, prod
from pathlib import Path

from gen import Instance

# The CLI writes through csv.writer, whose default line terminator is CRLF.
EOL = "\r\n"

# Medicine.csv of the worked example, learned by MLE, without its header.
GOLDEN_MEDICINE_ROWS = ("0,1/7,1/2,5/14", "1,1/6,1/3,1/2")

# Every check `verify --suite all` reports, in its fixed order.
VERIFY_CHECKS = (
    "golden/empirical-joint", "golden/marginals", "golden/channel-extraction",
    "golden/second-marginal-via-channel", "golden/pair-graph-reconstruction",
    "golden/conditioning-on-observed-column", "golden/learn-mle-pipeline",
    "golden/learn-bayes-pipeline",
    "exact/pushforward-functoriality", "exact/normalisation-naturality",
    "exact/marginal-naturality", "exact/normalisation-monoidality",
    "exact/decomposition-commutes", "exact/flatten-order-counterexample",
    "exact/disintegration-round-trip", "exact/conditioning-chain",
    "exact/likelihood-maximality", "exact/validity-transfer",
    "exact/point-evidence-trivialises", "exact/posterior-mean-identity",
    "stochastic/quadrature-basics", "stochastic/density-normalisation",
    "stochastic/mean-integrals", "stochastic/aggregation-one-sum",
    "stochastic/surjective-naturality", "stochastic/sampler-moments",
    "stochastic/conjugate-update", "stochastic/validity-transfer-quadrature",
    "stochastic/split-round-trip", "stochastic/split-factorisation",
    "stochastic/local-update-audit",
)


class Rejected(Exception):
    """An output the oracle does not accept."""


def family_counts(inst: Instance, node: int) -> list[int]:
    """Counts over (parents..., node), row-major, summed over the rows."""
    index = [0] * len(inst.counts)
    for v in inst.parents(node) + (node,):
        a = inst.arities[v]
        index = [i * a + x for i, x in zip(index, inst.columns[v])]
    table = [0] * prod(inst.arities[v] for v in inst.parents(node) + (node,))
    for i, c in zip(index, inst.counts):
        table[i] += c
    return table


def _ratio(num: int, den: int) -> str:
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _configs(arities: list[int]):
    """Parent outcome tuples in row-major order."""
    configs = [()]
    for a in arities:
        configs = [c + (o,) for c in configs for o in range(a)]
    return configs


def expected_tables(inst: Instance, mode: str) -> dict[str, str]:
    """File name -> exact expected CSV text for every node."""
    out = {}
    for v, name in enumerate(inst.names):
        parents = inst.parents(v)
        m = inst.arities[v]
        counts = family_counts(inst, v)
        if mode == "mle":
            header = [inst.names[p] for p in parents] + [f"p{k}" for k in range(m)]
        else:
            header = ([inst.names[p] for p in parents] + [f"a{k}" for k in range(m)]
                      + [f"mean{k}" for k in range(m)])
        prior = inst.prior.get(v, (1,) * m)
        lines = [",".join(header)]
        for i, config in enumerate(_configs([inst.arities[p] for p in parents])):
            row = counts[i * m:(i + 1) * m]
            cells = [str(o) for o in config]
            if mode == "mle":
                total = sum(row)
                if total == 0:
                    raise Rejected(f"{name}: parent configuration {config} unobserved; "
                                   "the generator must cover every configuration for mle")
                cells += [_ratio(n, total) for n in row]
            else:
                alphas = [a + n for a, n in zip(prior, row)]
                total = sum(alphas)
                cells += [str(a) for a in alphas] + [_ratio(a, total) for a in alphas]
            lines.append(",".join(cells))
        out[f"{name}.csv"] = EOL.join(lines) + EOL
    return out


def check_tables(out_dir: Path, expected: dict[str, str]) -> None:
    """Raise Rejected unless out_dir holds exactly the expected files."""
    found = sorted(p.name for p in out_dir.iterdir())
    if found != sorted(expected):
        raise Rejected(f"{out_dir}: files {found[:5]}... differ from the expected "
                       f"{sorted(expected)[:5]}...")
    for name, text in expected.items():
        got = (out_dir / name).read_bytes().decode("utf-8")
        if got != text:
            got_lines, want_lines = got.split(EOL), text.split(EOL)
            for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
                if g != w:
                    raise Rejected(f"{name} line {lineno}: got {g!r}, expected {w!r}")
            raise Rejected(f"{name}: {len(got_lines)} lines, expected {len(want_lines)}")


def check_golden_medicine(out_dir: Path) -> None:
    rows = (out_dir / "Medicine.csv").read_text(encoding="utf-8").splitlines()[1:]
    if tuple(rows) != GOLDEN_MEDICINE_ROWS:
        raise Rejected(f"Medicine.csv rows {rows} differ from {GOLDEN_MEDICINE_ROWS}")


def check_verify(stdout: str, returncode: int, seed: int) -> int:
    """Validate `verify --suite all` output; return the number of FAIL lines."""
    lines = stdout.splitlines()
    if len(lines) != len(VERIFY_CHECKS) + 1:
        raise Rejected(f"verify printed {len(lines)} lines, expected {len(VERIFY_CHECKS) + 1}")
    failed = 0
    for line, check in zip(lines, VERIFY_CHECKS):
        if line.startswith(f"[FAIL] {check}: "):
            failed += 1
        elif not line.startswith(f"[PASS] {check}: "):
            raise Rejected(f"expected a PASS/FAIL line for {check}, got {line!r}")
    summary = (f"SUMMARY: {len(VERIFY_CHECKS) - failed} passed, {failed} failed "
               f"(suite=all, seed={seed}, resolution=400)")
    if lines[-1] != summary:
        raise Rejected(f"summary {lines[-1]!r}, expected {summary!r}")
    if returncode != (1 if failed else 0):
        raise Rejected(f"verify exited {returncode} with {failed} failed checks")
    return failed


def digest(files: dict[str, bytes]) -> str:
    """sha256 over (name, content) pairs in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def dir_digest(out_dir: Path) -> str:
    return digest({p.name: p.read_bytes() for p in out_dir.iterdir()})

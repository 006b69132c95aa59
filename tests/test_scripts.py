"""Smoke test: each bundled script and the README's library tour run to
completion against the package, and the demos' stdout is pinned."""

import re
from pathlib import Path

import pytest

from cptforge.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["learn_blood_medicine.py"], "learn_blood_medicine.txt"),
        (["local_audit_demo.py"], "local_audit_demo.txt"),
    ],
    ids=["learn_blood_medicine.py", "local_audit_demo.py"],
)
def test_script_exits_cleanly(run_python, argv, expected):
    proc = run_python(str(ROOT / "scripts" / argv[0]), *argv[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "expected" / expected).read_text(encoding="utf-8")


def test_readme_library_tour_runs(run_python):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1]
    proc = run_python("-c", tour.split("\n```", 1)[0])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["learn", "verify"])
def test_readme_synopsis_matches_the_usage_line(command, capsys):
    # The README's synopsis line for a subcommand names the same options, in
    # the same order, as argparse's usage line for it.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("\n## CLI\n", 1)[1].split("```\n", 1)[1].split("\n```", 1)[0]
    line = next(ln for ln in synopsis.splitlines() if ln.startswith(f"cpt-forge {command} "))
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    assert re.findall(r"--[a-z-]+", line) == re.findall(r"--[a-z-]+", usage)


# A pinned subset of scripts/law_mutants.py, each mutant with laws it must fail.
PINNED_MUTANTS = {
    "aggregate-wrong-target": ["stochastic/aggregation-one-sum",
                               "stochastic/surjective-naturality"],
    "audit-direct-not-incremented": ["stochastic/local-update-audit"],
    "binomial-sum-denominator-off-by-one": ["stochastic/quadrature-basics",
                                            "stochastic/density-normalisation",
                                            "stochastic/sampler-moments"],
    "cont-condition-wrong-coordinate": ["stochastic/conjugate-update"],
    "split-column-shares": ["stochastic/split-round-trip", "stochastic/split-factorisation"],
    "lifted-predicate-reversed": ["stochastic/validity-transfer-quadrature"],
    "moment-rising-off-by-one": ["exact/validity-transfer", "exact/posterior-mean-identity",
                                 "stochastic/surjective-naturality", "stochastic/sampler-moments"],
    "shifted-prefactor-inverted": ["stochastic/split-factorisation",
                                   "stochastic/local-update-audit"],
    "normalise-adds-one": ["golden/empirical-joint", "exact/validity-transfer",
                           "exact/posterior-mean-identity"],
    "row-extract-reversed-rows": ["golden/channel-extraction",
                                  "golden/second-marginal-via-channel",
                                  "exact/decomposition-commutes"],
}


def test_law_mutants_fail_their_laws(run_python):
    proc = run_python(str(ROOT / "scripts" / "law_mutants.py"), *PINNED_MUTANTS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    failed = dict(line.split(": fails ", 1) for line in proc.stdout.splitlines()
                  if ": fails " in line)
    assert failed.pop("unmutated") == "0 laws"
    assert set(failed) == set(PINNED_MUTANTS)
    for mutant, laws in PINNED_MUTANTS.items():
        assert set(laws) <= set(failed[mutant].split(": ", 1)[1].split(", ")), mutant

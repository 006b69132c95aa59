"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Counts, tolerances and runtime bounds are pinned here; run with ``-s`` (or
read captured output) to see the per-criterion lines.  A criterion that a
registered `verify` law states at the same instance ranges and tolerance
runs that law at extra seeds, so that seeds times the law's instances per
seed reach the criterion's count; the others keep their own, finer checks.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from cptforge import verify
from cptforge.bayes import cont_validity, validity_transfer_check
from cptforge.cli import main
from cptforge.dirichlet import HyperParams, one_sum_check
from cptforge.dist import Dist, Predicate, validity
from cptforge.finset import Multiset, multisets
from cptforge.mle import likelihood, mle
from cptforge.network import CountTable, learn_bayes, learn_mle
from cptforge.verify import blood_medicine_graph, blood_medicine_joint, blood_medicine_table

from conftest import read_csv


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


def passes(check, seeds):
    """Run a registered law at each seed; fail with its detail line."""
    for seed in seeds:
        result = check(seed)
        assert result.passed, f"seed {seed}: {result.detail}"


def test_criterion_01_golden_reproduction(tmp_path, golden_graph_file, golden_data_csv):
    with criterion(1, "worked example reproduced exactly by `learn --mode mle` in < 1 s"):
        out = tmp_path / "out"
        start = time.perf_counter()
        code = main(
            ["learn", "--mode", "mle", "--graph", str(golden_graph_file),
             "--data", str(golden_data_csv), "--out", str(out)]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert read_csv(out / "Blood.csv") == [["p0", "p1"], ["7/10", "3/10"]]
        assert read_csv(out / "Medicine.csv") == [
            ["Blood", "p0", "p1", "p2"],
            ["0", "1/7", "1/2", "5/14"],
            ["1", "1/6", "1/3", "1/2"],
        ]
        joint = mle(blood_medicine_joint())
        assert joint.probs == (F(1, 10), F(7, 20), F(1, 4), F(1, 20), F(1, 10), F(3, 20))
        assert elapsed < 1.0, f"learn took {elapsed:.3f} s"


def test_criterion_02_naturality():
    with criterion(2, "normalisation commutes with pushforward: 1000 exact instances in < 5 s"):
        start = time.perf_counter()
        passes(verify.check_exact_naturality, range(202, 206))  # 4 seeds x 300 instances
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_03_decomposition():
    with criterion(3, "table and joint disintegration routes agree on 500 random tables, exactly"):
        passes(verify.check_exact_decomposition, range(303, 307))  # 4 seeds x 150 tables


def test_criterion_05_mle_maximality():
    with criterion(5, "likelihood is maximal at the empirical distribution on a 1/50 grid, < 30 s"):
        rng = random.Random(505)
        start = time.perf_counter()
        grid = [mle(m) for m in multisets(3, 50)]
        assert len(grid) == 1326
        for _ in range(50):
            total = rng.randint(1, 20)
            cut1, cut2 = sorted(rng.randint(0, total) for _ in range(2))
            phi = Multiset((cut1, cut2 - cut1, total - cut2))
            best = likelihood(phi, mle(phi))
            for omega in grid:
                assert likelihood(phi, omega) <= best
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_07_mean_validity_transfer():
    with criterion(7, "discrete and lifted validities agree: 200 exact instances, each also by the exact integral"):
        rng = random.Random(707)
        for _ in range(200):
            n = rng.randint(1, 6)
            alpha = HyperParams(tuple(rng.randint(1, 10) for _ in range(n)))
            p = Predicate(tuple(F(rng.randint(0, 8), 8) for _ in range(n)))
            lhs, rhs = validity_transfer_check(alpha, p)
            assert lhs == validity(mle(alpha), p)  # exact rational route
            assert lhs == rhs                                 # exact first moments
            assert lhs == cont_validity(alpha, p)             # exact integral of the lift


def test_criterion_08_conjugacy():
    with criterion(8, "update formula equals the conditioned density exactly at rational points"):
        passes(verify.check_stoch_conjugacy, (808, 809))  # 2 seeds x 50 instances x 5 points


def test_criterion_09_aggregation():
    with criterion(9, "aggregation identity exact at 50 rational points, and merge naturality on exact moments"):
        rng = random.Random(909)
        for _ in range(50):
            alpha = HyperParams(tuple(rng.randint(1, 5) for _ in range(3)))
            s = F(rng.randint(3, 17), 20)
            lhs, rhs = one_sum_check(alpha, Dist((s, 1 - s)))
            assert lhs == rhs
        # 3 merges, the first Dir(2,3,1,4) along (0,1,0,1), every moment of degree 1-4
        passes(verify.check_stoch_surjective_naturality, (909,))


def test_criterion_10_split_factorisation_and_audit():
    with criterion(10, "split factorisations exact; audit finds the matching parameterisation in < 60 s"):
        start = time.perf_counter()
        passes(verify.check_stoch_factorisation, (1010,))  # 20 tables x 3 points
        passes(verify.check_stoch_local_audit, (1010,))  # 27 exact moment identities
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_11_bayes_mle_convergence():
    with criterion(11, "posterior means approach the normalised counts as data scales (gap < 0.01 at x100)"):
        graph, table = blood_medicine_graph(), blood_medicine_table()
        reference = {c.node: c for c in learn_mle(table, graph)}
        gaps = []
        for k in (1, 10, 100):
            scaled = CountTable(table.variables, table.arities, table.outcomes, table.counts * k)
            cpts = {c.node: c for c in learn_bayes(scaled, graph)}
            gap = max(
                abs(p - q)
                for node in graph.node_names
                for learned, ref in zip(cpts[node].dists, reference[node].dists)
                for p, q in zip(learned.probs, ref.probs)
            )
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < F(1, 100)
        # first-order rate: scaling the data 10x shrinks the gap ~10x
        assert gaps[1] < gaps[0] / 5
        assert gaps[2] < gaps[1] / 5
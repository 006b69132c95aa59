"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Counts, tolerances and runtime bounds are pinned here; run with ``-s`` (or
read captured output) to see the per-criterion lines.
"""

import csv
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

from cptforge.bayes import (
    cont_condition,
    cont_validity,
    lift_predicate,
    validity_transfer_check,
)
from cptforge.cli import main
from cptforge.dirichlet import (
    HyperParams,
    aggregate_params,
    dirichlet_density,
    dirichlet_mean,
    dirichlet_pdf_many,
    dirichlet_sample_many,
    one_sum_check,
    push_coords,
)
from cptforge.dist import (
    JointDist,
    Predicate,
    disintegrate,
    dist_map,
    pair_graph,
    validity,
)
from cptforge.finset import FinMap, JointMultiset, Multiset, ms_map
from cptforge.localsplit import local_update_audit, pdf_factorization_check, shifted_prefactor
from cptforge.mle import likelihood, mle, mle_decompose, simplex_grid
from cptforge.network import learn_bayes, learn_mle
from cptforge.rng import make_rng
from cptforge.verify import (
    blood_medicine_graph,
    blood_medicine_joint,
    blood_medicine_table,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


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
        joint = mle(blood_medicine_joint().to_flat())
        assert joint.probs == (F(1, 10), F(7, 20), F(1, 4), F(1, 20), F(1, 10), F(3, 20))
        assert elapsed < 1.0, f"learn took {elapsed:.3f} s"


def test_criterion_02_naturality():
    with criterion(2, "normalisation commutes with pushforward: 1000 exact instances in < 5 s"):
        rng = random.Random(202)
        start = time.perf_counter()
        for _ in range(1000):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            h = FinMap(tuple(rng.randrange(m) for _ in range(n)), m)
            counts = [rng.randint(0, 9) for _ in range(n)]
            if sum(counts) == 0:
                counts[rng.randrange(n)] = rng.randint(1, 9)
            phi = Multiset(tuple(counts))
            assert mle(ms_map(h, phi)) == dist_map(h, mle(phi))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_03_decomposition():
    with criterion(3, "table and joint disintegration routes agree on 500 random tables, exactly"):
        rng = random.Random(303)
        for _ in range(500):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            rows = []
            for _ in range(n):
                row = [rng.randint(0, 9) for _ in range(m)]
                if sum(row) == 0:
                    row[rng.randrange(m)] = rng.randint(1, 9)
                rows.append(tuple(row))
            phi = JointMultiset(tuple(rows))
            first, channel = mle_decompose(phi)
            joint = JointDist.from_flat(mle(phi.to_flat()), n, m)
            assert disintegrate(joint) == (first, channel)
            assert pair_graph(channel, first) == joint


def test_criterion_05_mle_maximality():
    with criterion(5, "likelihood is maximal at the empirical distribution on a 1/50 grid, < 30 s"):
        rng = random.Random(505)
        start = time.perf_counter()
        grid = list(simplex_grid(3, 50))
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
    with criterion(7, "discrete and lifted validities agree: 200 exact instances plus quadrature recheck"):
        rng = random.Random(707)
        rechecked = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            alpha = HyperParams(tuple(rng.randint(1, 10) for _ in range(n)))
            p = Predicate(tuple(F(rng.randint(0, 8), 8) for _ in range(n)))
            lhs, rhs = validity_transfer_check(alpha, p)
            assert lhs == validity(dirichlet_mean(alpha), p)  # exact rational route
            assert float(lhs) == rhs                          # reported closed form
            if 2 <= n <= 3:
                numeric = cont_validity(dirichlet_density(alpha), lift_predicate(p), 400)
                assert abs(numeric - float(lhs)) <= 1e-3
                rechecked += 1
        assert rechecked >= 30


def test_criterion_08_conjugacy():
    with criterion(8, "conditioned density equals the incremented one within 1e-9 on 100-point panels"):
        rng = random.Random(808)
        for trial in range(100):
            n = rng.randint(2, 6)
            alpha = HyperParams(tuple(rng.randint(1, 8) for _ in range(n)))
            i = rng.randrange(n)
            conditioned = cont_condition(
                dirichlet_density(alpha), lift_predicate(Predicate.point(n, i))
            )
            panel = dirichlet_sample_many(
                HyperParams((1,) * n), 100, make_rng(880_000 + trial)
            )
            got = conditioned.eval_many(panel)
            want = dirichlet_pdf_many(alpha.increment(i), panel)
            assert np.max(np.abs(got - want) / want) <= 1e-9


def test_criterion_09_aggregation():
    with criterion(9, "aggregation identity within 1e-4 (50 instances) and sample-level merge naturality at 4 SE"):
        rng = random.Random(909)
        for _ in range(50):
            alpha = HyperParams(tuple(rng.randint(1, 5) for _ in range(3)))
            s = rng.uniform(0.15, 0.85)
            lhs, rhs = one_sum_check(alpha, (s, 1.0 - s), 10_000)
            assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(lhs))

        draws = 100_000
        alpha = HyperParams((2, 3, 1, 4))
        h = FinMap((0, 1, 0, 1), 2)
        pushed = push_coords(h, dirichlet_sample_many(alpha, draws, make_rng(9901)))
        direct = dirichlet_sample_many(aggregate_params(h, alpha), draws, make_rng(9902))
        for k in range(2):
            a, b = pushed[:, k], direct[:, k]
            se = math.sqrt(a.var(ddof=1) / draws + b.var(ddof=1) / draws)
            assert abs(a.mean() - b.mean()) <= 4 * se
            ca, cb = (a - a.mean()) ** 2, (b - b.mean()) ** 2
            se_var = math.sqrt(ca.var(ddof=1) / draws + cb.var(ddof=1) / draws)
            assert abs(ca.mean() - cb.mean()) <= 4 * se_var


def test_criterion_10_split_factorisation_and_audit():
    with criterion(10, "split factorisations within 1e-9; audit finds the matching parameterisation in < 60 s"):
        start = time.perf_counter()
        rng = random.Random(1010)
        for trial in range(20):
            alpha = HyperParams(tuple(rng.randint(1, 8) for _ in range(6)))
            rows = (HyperParams(alpha.alphas[:3]), HyperParams(alpha.alphas[3:]))
            points = dirichlet_sample_many(
                HyperParams((1,) * 6), 20, make_rng(101_000 + trial)
            ).reshape(20, 2, 3)
            lhs, rhs1, rhs2 = pdf_factorization_check(rows, points)
            assert np.max(np.abs(lhs - rhs1) / np.abs(lhs)) <= 1e-9
            assert np.max(np.abs(lhs - rhs2) / np.abs(lhs)) <= 1e-9

        audit = local_update_audit((HyperParams((1,) * 3),) * 2, (0, 2), samples=100_000, seed=10)
        assert audit.pushforward_mass == 1.0
        assert audit.matching_candidates == ("direct",)
        assert audit.shifted_constant == shifted_prefactor(HyperParams((3, 3)).increment(0), 2) == F(30)
        assert not audit.constant_is_one
        assert "constant" in audit.format_report()
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_11_bayes_mle_convergence():
    with criterion(11, "posterior means approach the normalised counts as data scales (gap < 0.01 at x100)"):
        graph = blood_medicine_graph()
        reference = {c.node: c for c in learn_mle(blood_medicine_table(), graph)}
        gaps = []
        for k in (1, 10, 100):
            cpts = {c.node: c for c in learn_bayes(blood_medicine_table(scale=k), graph)}
            gap = max(
                abs(p - q)
                for node in graph.node_names
                for learned, ref in zip(cpts[node].dists, reference[node].dists)
                for p, q in zip(learned.probs, ref.probs)
            )
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < F(1, 100)

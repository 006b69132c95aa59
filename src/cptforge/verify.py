"""Executable law suites.

Three suites, selectable from the CLI:

* ``golden``: the worked blood-pressure/medicine example; every number it
  produces is checked exactly.
* ``exact``: the rational-layer laws (pushforward functoriality, naturality
  and monoidality of normalisation, decomposition, the flatten-order
  counterexample, conditioning identities, likelihood maximality on a
  grid), all with zero tolerance on randomised instances.
* ``stochastic``: the binary64 laws (quadrature normalisation and means,
  aggregation, surjective naturality at sample level, sampler moments,
  conjugacy panels, the split factorisations and the local-update audit),
  each at its stated tolerance with seeded, reproducible streams.

Each law is one function decorated with ``@law(suite, name)``: it takes
``(seed, resolution)`` and returns ``(passed, detail)``, and the decorator
registers it in ``SUITES[suite]``.  Suites and laws run in the order they
are defined.  To add a law, define its decorated function where it belongs
and add ``"suite/name"`` at the same position in the benchmark oracle's
``VERIFY_CHECKS`` (``perfbench/oracle.py``), which pins that order.

``run_suite("all")`` on Linux runs the stochastic suite in a forked child
while the parent runs ``golden`` and ``exact``: the halves share no state,
and the exact half is pure-Python ``Fraction`` arithmetic that holds the
GIL.  The results, and so the report, are the same as from one process.
Each result carries the check's own time in ``seconds``.
"""

from __future__ import annotations

import functools
import gc
import os
import pickle
import random as pyrandom
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .bayes import (
    batch_update,
    cont_condition,
    cont_validity,
    lift_predicate,
    validity_transfer_check,
)
from .dirichlet import (
    HyperParams,
    aggregate_params,
    dirichlet_covariance,
    dirichlet_density,
    dirichlet_mean,
    dirichlet_normalizer,
    dirichlet_pdf_many,
    dirichlet_sample_many,
    make_rng,
    one_sum_check,
    push_coords,
    simplex_cells,
    simplex_quadrature,
    substreams,
)
from .dist import (
    Channel,
    Dist,
    Predicate,
    condition,
    disintegrate,
    dist_map,
    pair_graph,
    state_transform,
    validity,
)
from .finset import FinMap, Multiset, ms_map, ms_tensor
from .localsplit import local_update_audit, pdf_factorization_check, split, unsplit
from .mle import likelihood, mle, mle_decompose, monad_counterexample, simplex_grid
from .network import CountTable, GraphSpec, learn_bayes, learn_mle


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    seconds: float = field(compare=False)  # the check's wall time


Check = Callable[[int, int], CheckResult]

# Every law, per suite, in the order it is defined below (and reported).
SUITES: dict[str, list[Check]] = {}


def law(suite: str, name: str) -> Callable[[Callable[[int, int], tuple[bool, str]]], Check]:
    """Register a check as the law ``suite/name``.

    The decorated check takes ``(seed, resolution)`` and returns
    ``(passed, detail)``; the registered function returns the CheckResult,
    timed.
    """

    def register(check: Callable[[int, int], tuple[bool, str]]) -> Check:
        @functools.wraps(check)
        def run(seed: int, resolution: int) -> CheckResult:
            start = time.perf_counter()
            passed, detail = check(seed, resolution)
            return CheckResult(suite, name, bool(passed), detail, time.perf_counter() - start)

        SUITES.setdefault(suite, []).append(run)
        return run

    return register


# ---------------------------------------------------------------------------
# The worked example: 100 study participants, blood pressure vs medicine.

BLOOD_MEDICINE_COUNTS = (10, 35, 25, 5, 10, 15)  # Blood x Medicine, row-major

GOLDEN_JOINT = tuple(
    Fraction(n, 100) for n in (10, 35, 25, 5, 10, 15)
)
GOLDEN_FIRST = (Fraction(7, 10), Fraction(3, 10))
GOLDEN_SECOND = (Fraction(3, 20), Fraction(9, 20), Fraction(2, 5))
GOLDEN_CHANNEL = (
    (Fraction(1, 7), Fraction(1, 2), Fraction(5, 14)),
    (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
)


def blood_medicine_graph() -> GraphSpec:
    return GraphSpec(nodes=(("Blood", 2), ("Medicine", 3)), edges=(("Blood", "Medicine"),))


def blood_medicine_table() -> CountTable:
    records = {divmod(k, 3): c for k, c in enumerate(BLOOD_MEDICINE_COUNTS)}
    return CountTable.from_records(("Blood", "Medicine"), (2, 3), records)


def blood_medicine_joint() -> Multiset:
    return Multiset(BLOOD_MEDICINE_COUNTS)


# ---------------------------------------------------------------------------
# Randomised instance generators (plain `random` module, explicit seeds).


def _random_multiset(rng: pyrandom.Random, n: int, lo: int = 0, hi: int = 9) -> Multiset:
    counts = [rng.randint(lo, hi) for _ in range(n)]
    if sum(counts) == 0:
        counts[rng.randrange(n)] = rng.randint(1, hi)
    return Multiset(tuple(counts))


def _random_finmap(rng: pyrandom.Random, n: int, m: int) -> FinMap:
    return FinMap(tuple(rng.randrange(m) for _ in range(n)), m)


def _random_row_positive(rng: pyrandom.Random, n: int, m: int) -> Multiset:
    return Multiset(tuple(c for _ in range(n) for c in _random_multiset(rng, m).counts))


def _random_hyperparams(rng: pyrandom.Random, n: int, hi: int = 8) -> HyperParams:
    return HyperParams(tuple(rng.randint(1, hi) for _ in range(n)))


def _random_predicate(rng: pyrandom.Random, n: int) -> Predicate:
    return Predicate(tuple(Fraction(rng.randint(0, 6), 6) for _ in range(n)))


def _interior_points(n: int, count: int, seed: int) -> np.ndarray:
    """A deterministic panel of interior simplex points."""
    return dirichlet_sample_many(HyperParams((1,) * n), count, make_rng(seed))


def _all_hyperparams(max_n: int, max_total: int) -> list[HyperParams]:
    """Every pseudo-count vector with n <= max_n and sum <= max_total."""
    out = []
    for n in range(1, max_n + 1):
        for total in range(n, max_total + 1):
            for cuts in combinations(range(1, total), n - 1):
                bounds = (0,) + cuts + (total,)
                out.append(HyperParams(tuple(b - a for a, b in zip(bounds, bounds[1:]))))
    return out


# ---------------------------------------------------------------------------
# Golden suite.


@law("golden", "empirical-joint")
def check_golden_empirical_joint(seed: int, resolution: int) -> tuple[bool, str]:
    joint = mle(blood_medicine_joint())
    ok = joint.probs == GOLDEN_JOINT
    return ok, f"normalised counts = {joint.probs}"


@law("golden", "marginals")
def check_golden_marginals(seed: int, resolution: int) -> tuple[bool, str]:
    counts = blood_medicine_joint()
    p1, p2 = FinMap.proj1(2, 3), FinMap.proj2(2, 3)
    via_counts_1 = mle(ms_map(p1, counts))
    via_counts_2 = mle(ms_map(p2, counts))
    joint = mle(counts)
    via_dist_1 = dist_map(p1, joint)
    via_dist_2 = dist_map(p2, joint)
    ok = (
        via_counts_1.probs == GOLDEN_FIRST
        and via_counts_2.probs == GOLDEN_SECOND
        and via_dist_1 == via_counts_1
        and via_dist_2 == via_counts_2
    )
    return ok, (
        f"first = {via_counts_1.probs}, second = {via_counts_2.probs}, "
        "both routes agree"
    )


@law("golden", "channel-extraction")
def check_golden_channel(seed: int, resolution: int) -> tuple[bool, str]:
    first, channel = mle_decompose(blood_medicine_joint(), 3)
    first2, channel2 = disintegrate(mle(blood_medicine_joint()), 3)
    ok = (
        first.probs == GOLDEN_FIRST
        and tuple(row.probs for row in channel.rows) == GOLDEN_CHANNEL
        and (first2, channel2) == (first, channel)
    )
    return ok, f"rows = {tuple(r.probs for r in channel.rows)}, table and joint routes agree"


@law("golden", "second-marginal-via-channel")
def check_golden_state_transform(seed: int, resolution: int) -> tuple[bool, str]:
    first, channel = mle_decompose(blood_medicine_joint(), 3)
    second = state_transform(channel, first)
    ok = second.probs == GOLDEN_SECOND
    return ok, f"channel >> first = {second.probs}"


@law("golden", "pair-graph-reconstruction")
def check_golden_reconstruction(seed: int, resolution: int) -> tuple[bool, str]:
    joint = mle(blood_medicine_joint())
    first, channel = disintegrate(joint, 3)
    ok = pair_graph(channel, first) == joint
    return ok, "couple(channel, first) = joint"


@law("golden", "conditioning-on-observed-column")
def check_golden_conditioning(seed: int, resolution: int) -> tuple[bool, str]:
    joint = mle(blood_medicine_joint())
    on_medicine_1 = Predicate(tuple(1 if k % 3 == 1 else 0 for k in range(6)))
    posterior = dist_map(FinMap.proj1(2, 3), condition(joint, on_medicine_1))
    expected = (Fraction(7, 9), Fraction(2, 9))
    ok = posterior.probs == expected
    return ok, f"blood posterior = {posterior.probs}"


@law("golden", "learn-mle-pipeline")
def check_golden_learn_mle(seed: int, resolution: int) -> tuple[bool, str]:
    cpts = {c.node: c for c in learn_mle(blood_medicine_table(), blood_medicine_graph())}
    ok = (
        cpts["Blood"].dists[0].probs == GOLDEN_FIRST
        and tuple(d.probs for d in cpts["Medicine"].dists) == GOLDEN_CHANNEL
    )
    return ok, "learned tables match the worked example"


@law("golden", "learn-bayes-pipeline")
def check_golden_learn_bayes(seed: int, resolution: int) -> tuple[bool, str]:
    cpts = {c.node: c for c in learn_bayes(blood_medicine_table(), blood_medicine_graph())}
    blood = cpts["Blood"]
    med = cpts["Medicine"]
    ok = (
        blood.posteriors[0].alphas == (71, 31)
        and blood.dists[0].probs == (Fraction(71, 102), Fraction(31, 102))
        and med.posteriors[0].alphas == (11, 36, 26)
        and med.dists[0].probs == (Fraction(11, 73), Fraction(36, 73), Fraction(26, 73))
        and med.posteriors[1].alphas == (6, 11, 16)
    )
    return ok, (
        f"posteriors: Blood {blood.posteriors[0].alphas}, Medicine {tuple(p.alphas for p in med.posteriors)}"
    )


# ---------------------------------------------------------------------------
# Exact suite (zero tolerance).


@law("exact", "pushforward-functoriality")
def check_exact_functoriality(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed)
    trials = 200
    for _ in range(trials):
        n, m, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        h = _random_finmap(rng, n, m)
        g = _random_finmap(rng, m, k)
        phi = _random_multiset(rng, n)
        if ms_map(g.after(h), phi) != ms_map(g, ms_map(h, phi)):
            return False, "composite mismatch"
        if ms_map(FinMap.identity(n), phi) != phi:
            return False, "identity mismatch"
        if ms_map(h, phi).total() != phi.total():
            return False, "total not preserved"
        omega = mle(phi)
        if dist_map(g.after(h), omega) != dist_map(g, dist_map(h, omega)):
            return False, "distribution composite mismatch"
    return True, f"{trials} randomised instances"


@law("exact", "normalisation-naturality")
def check_exact_naturality(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 1)
    trials = 300
    for _ in range(trials):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        h = _random_finmap(rng, n, m)
        phi = _random_multiset(rng, n)
        if mle(ms_map(h, phi)) != dist_map(h, mle(phi)):
            return False, f"mismatch at h={h.targets}, phi={phi.counts}"
    return True, f"{trials} randomised instances: normalising commutes with pushforward"


@law("exact", "marginal-naturality")
def check_exact_marginal_naturality(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 2)
    trials = 100
    for _ in range(trials):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        phi = _random_multiset(rng, n * m)
        for proj in (FinMap.proj1(n, m), FinMap.proj2(n, m)):
            if mle(ms_map(proj, phi)) != dist_map(proj, mle(phi)):
                return False, "projection case mismatch"
    return True, f"{trials} instances, both projections"


@law("exact", "normalisation-monoidality")
def check_exact_monoidality(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 3)
    trials = 100
    for _ in range(trials):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        phi, psi = _random_multiset(rng, n), _random_multiset(rng, m)
        if mle(ms_tensor(phi, psi)) != pair_graph(Channel((mle(psi),) * n), mle(phi)):
            return False, "tensor mismatch"
    return True, f"{trials} instances: normalising a product table = product of normalisations"


@law("exact", "decomposition-commutes")
def check_exact_decomposition(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 4)
    trials = 150
    for _ in range(trials):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        phi = _random_row_positive(rng, n, m)
        first, channel = mle_decompose(phi, m)
        joint = mle(phi)
        if disintegrate(joint, m) != (first, channel):
            return False, "table/joint routes differ"
        if pair_graph(channel, first) != joint:
            return False, "reconstruction fails"
    return True, f"{trials} row-positive tables: local and joint learning agree"


@law("exact", "flatten-order-counterexample")
def check_exact_counterexample(seed: int, resolution: int) -> tuple[bool, str]:
    report = monad_counterexample()
    expected_a = (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))
    expected_b = (Fraction(1, 3), Fraction(2, 9), Fraction(4, 9))
    ok = (
        report.flatten_then_normalize.probs == expected_a
        and report.normalize_then_flatten.probs == expected_b
        and report.differ
    )
    return ok, f"{report.flatten_then_normalize.probs} != {report.normalize_then_flatten.probs}"


@law("exact", "disintegration-round-trip")
def check_exact_disintegration_roundtrip(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 5)
    trials = 100
    for _ in range(trials):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        phi = _random_row_positive(rng, n, m)
        joint = mle(phi)
        first, channel = disintegrate(joint, m)
        if pair_graph(channel, first) != joint:
            return False, "reconstruction fails"
        omega = mle(_random_multiset(rng, n, lo=1))
        chan = Channel(tuple(mle(_random_multiset(rng, m)) for _ in range(n)))
        if disintegrate(pair_graph(chan, omega), m) != (omega, chan):
            return False, "extraction not inverse"
    return True, f"{trials} instances, both directions"


@law("exact", "conditioning-chain")
def check_exact_conditioning_chain(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 6)
    trials = 100
    tried = 0
    for _ in range(trials):
        n = rng.randint(1, 6)
        omega = mle(_random_multiset(rng, n))
        p, q = _random_predicate(rng, n), _random_predicate(rng, n)
        if validity(omega, p) == 0:
            continue
        tried += 1
        lhs = validity(condition(omega, p), q) * validity(omega, p)
        if lhs != validity(omega, p * q):
            return False, "chain identity fails"
    return True, f"{tried} instances with positive validity"


@law("exact", "likelihood-maximality")
def check_exact_likelihood_max(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 7)
    grid = list(simplex_grid(3, 25))
    for _ in range(10):
        phi = Multiset(tuple(rng.randint(0, 4) for _ in range(3)))
        if phi.total() == 0:
            phi = Multiset((1, 0, 0))
        best = likelihood(phi, mle(phi))
        for omega in grid:
            if likelihood(phi, omega) > best:
                return False, f"beaten at {omega.probs} for {phi.counts}"
    return True, f"10 count vectors vs a {len(grid)}-point grid: empirical distribution wins"


@law("exact", "validity-transfer")
def check_exact_validity_transfer(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 8)
    trials = 100
    for _ in range(trials):
        n = rng.randint(1, 6)
        alpha = _random_hyperparams(rng, n)
        p = _random_predicate(rng, n)
        lhs, rhs = validity_transfer_check(alpha, p)
        if float(lhs) != rhs:
            return False, f"{lhs} != {rhs}"
    return True, f"{trials} instances: discrete and lifted validity agree via the closed form"


@law("exact", "point-evidence-trivialises")
def check_exact_trivialisation(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 9)
    trials = 50
    for _ in range(trials):
        n = rng.randint(1, 6)
        alpha = _random_hyperparams(rng, n)
        i = rng.randrange(n)
        updated = condition(mle(alpha.as_multiset()), Predicate.point(n, i))
        if updated != Dist.point(n, i):
            return False, "not a point mass"
    return True, f"{trials} instances: conditioning a plain distribution on a point collapses it"


@law("exact", "posterior-mean-identity")
def check_exact_posterior_mean(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 10)
    trials = 100
    for _ in range(trials):
        n = rng.randint(1, 6)
        alpha = _random_hyperparams(rng, n)
        data = _random_multiset(rng, n, lo=0, hi=20)
        posterior = batch_update(alpha, data)
        if dirichlet_mean(posterior) != mle(Multiset(tuple(a + c for a, c in zip(alpha.alphas, data.counts)))):
            return False, "means differ"
        if dirichlet_mean(alpha) != mle(alpha.as_multiset()):
            return False, "prior mean differs"
    return True, f"{trials} instances: posterior mean = normalised updated pseudo-counts"


# ---------------------------------------------------------------------------
# Stochastic suite (binary64, stated tolerances, seeded streams).

ERROR_FLOOR = 1e-9  # below this, quadrature error is floating-point noise
# Grid points per block in normalisation_errors: bounds its (groups x block)
# temporaries at any resolution, to about 15 MB for the 55 groups of
# density-normalisation's three-outcome vectors.
NORMALISATION_BLOCK = 1 << 14


def _power_table(x: np.ndarray, top: int) -> np.ndarray:
    """Rows x**0 .. x**top of a coordinate block, by repeated multiplication."""
    table = np.empty((top + 1, len(x)))
    table[0] = 1.0
    for k in range(1, top + 1):
        np.multiply(table[k - 1], x, out=table[k])
    return table


def normalisation_errors(alphas: list[HyperParams], resolution: int) -> np.ndarray:
    """|cell-rule integral of each Dirichlet(alpha) density - 1|.

    With integer pseudo-counts the density of Dirichlet(alpha) is
    dirichlet_normalizer(alpha) times the monomial prod_i x_i**(alpha_i - 1),
    so its integral is that constant times one monomial moment of the cell
    rule.  Per dimension, the exponent vectors are grouped by all but their
    last exponent.  Over each block of NORMALISATION_BLOCK grid points, the
    weighted monomials of the groups' leading exponents (one row per group)
    times the table of last-coordinate powers adds every needed moment of
    the block in one matmul.  Powers come from repeated multiplication, so
    no exp, log or pow is evaluated per point, and every temporary is
    bounded by the block.
    """
    errors = np.empty(len(alphas))
    for n in sorted({a.n for a in alphas}):
        idx = [k for k, a in enumerate(alphas) if a.n == n]
        exps = np.array([alphas[k].alphas for k in idx]) - 1
        groups: dict[tuple[int, ...], int] = {}
        rows = [groups.setdefault(tuple(e[:-1]), len(groups)) for e in exps]
        leading = np.array(list(groups), dtype=np.int64).reshape(len(groups), n - 1)
        tops = exps.max(axis=0)
        points, weights = simplex_cells(n, resolution)
        moments = np.zeros((len(groups), tops[-1] + 1))
        for start in range(0, len(points), NORMALISATION_BLOCK):
            block = slice(start, start + NORMALISATION_BLOCK)
            monomials = np.repeat(weights[None, block], len(groups), axis=0)
            for i in range(n - 1):
                monomials *= _power_table(points[block, i], tops[i])[leading[:, i]]
            moments += monomials @ _power_table(points[block, -1], tops[-1]).T
        norms = np.array([float(dirichlet_normalizer(alphas[k])) for k in idx])
        errors[idx] = np.abs(moments[rows, exps[:, -1]] * norms - 1.0)
    return errors


def _quadrature_tol(resolution: int) -> float:
    """The tolerance of a quadrature law: 1e-3 is pinned at resolution 400, and
    the cell rule converges at second order, so it scales as 1/resolution**2.
    It is capped at 0.5 (reached below resolution 18), so a law whose values
    lie in [0, 1] can still fail on a coarse grid."""
    return min(1e-3 * (400 / resolution) ** 2, 0.5)


@law("stochastic", "quadrature-basics")
def check_stoch_quadrature_basics(seed: int, resolution: int) -> tuple[bool, str]:
    total = simplex_quadrature(lambda pts: np.ones(len(pts)), 2, resolution)
    mean = simplex_quadrature(lambda pts: pts[:, 0], 2, resolution)
    ok = abs(total - 1.0) <= 1e-9 and abs(mean - 0.5) <= 1e-6
    return ok, f"integral of 1 = {total!r}, integral of x0 = {mean!r}"


@law("stochastic", "density-normalisation")
def check_stoch_normalisation(seed: int, resolution: int) -> tuple[bool, str]:
    alphas = _all_hyperparams(3, 12)
    errs = normalisation_errors(alphas, resolution)
    errs2 = normalisation_errors(alphas, 2 * resolution)
    tol = _quadrature_tol(resolution)
    bad = [
        (a.alphas, e, e2)
        for a, e, e2 in zip(alphas, errs, errs2)
        if e > tol or e2 > max(e, ERROR_FLOOR)
    ]
    ok = not bad
    detail = (
        f"all {len(alphas)} pseudo-count vectors with n<=3, sum<=12: worst "
        f"|err| = {errs.max():.2e} (tol {tol:.1e}), errors shrink when the "
        "resolution doubles"
        if ok
        else f"failed at {bad[:3]}"
    )
    return ok, detail


@law("stochastic", "mean-integrals")
def check_stoch_mean_integrals(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 20)
    tol = _quadrature_tol(resolution)
    worst = 0.0
    for _ in range(30):
        n = rng.randint(2, 3)
        alpha = _random_hyperparams(rng, n, hi=5)
        i = rng.randrange(n)
        got = simplex_quadrature(
            lambda pts: pts[:, i] * dirichlet_pdf_many(alpha, pts), n, resolution
        )
        err = abs(got - float(Fraction(alpha.alphas[i], alpha.total)))
        worst = max(worst, err)
        if err > tol:
            return False, f"error {err:.2e} at {alpha.alphas}"
    return True, f"30 instances: coordinate means within {tol:.1e} (worst {worst:.2e})"


@law("stochastic", "aggregation-one-sum")
def check_stoch_aggregation(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 21)
    worst = 0.0
    for _ in range(50):
        alpha = _random_hyperparams(rng, 3, hi=5)
        s = rng.uniform(0.2, 0.8)
        x = (s, 1.0 - s)
        lhs, rhs = one_sum_check(alpha, x, 10_000)
        err = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst = max(worst, err)
        if err > 1e-4:
            return False, f"error {err:.2e} at {alpha.alphas}, x={x}"
    return True, (
        f"50 instances: merged density matches the marginalising integral (worst {worst:.2e})"
    )


def _max_z_between_samples(a: np.ndarray, b: np.ndarray) -> float:
    """Largest discrepancy, in standard errors, over a fixed test-function
    panel: coordinates, squares, pairwise products, and 10-bin histograms."""
    na, nb = len(a), len(b)
    worst = 0.0

    def compare(va: np.ndarray, vb: np.ndarray) -> float:
        se = np.sqrt(va.var(ddof=1) / na + vb.var(ddof=1) / nb)
        if se == 0:
            return 0.0 if va.mean() == vb.mean() else np.inf
        return abs(va.mean() - vb.mean()) / se

    for k in range(a.shape[1]):
        worst = max(worst, compare(a[:, k], b[:, k]))
        worst = max(worst, compare(a[:, k] ** 2, b[:, k] ** 2))
        for l in range(k + 1, a.shape[1]):
            worst = max(worst, compare(a[:, k] * a[:, l], b[:, k] * b[:, l]))

    edges = np.linspace(0.0, 1.0, 11)
    for k in range(a.shape[1]):
        ha = np.histogram(a[:, k], edges)[0] / na
        hb = np.histogram(b[:, k], edges)[0] / nb
        pooled = (ha * na + hb * nb) / (na + nb)
        for pa, pb, p in zip(ha, hb, pooled):
            if p in (0.0, 1.0):
                continue
            se = np.sqrt(p * (1 - p) * (1 / na + 1 / nb))
            worst = max(worst, abs(pa - pb) / se)
    return worst


@law("stochastic", "surjective-naturality")
def check_stoch_surjective_naturality(seed: int, resolution: int) -> tuple[bool, str]:
    draws = 100_000
    cases = [
        (HyperParams((2, 3, 1, 4)), FinMap((0, 1, 0, 1), 2)),
        (HyperParams((1, 2, 3)), FinMap((0, 0, 1), 2)),
        (HyperParams((2, 2, 5, 1, 3)), FinMap((0, 1, 2, 0, 1), 3)),
    ]
    worst = 0.0
    for idx, (alpha, h) in enumerate(cases):
        rng_a, rng_b = substreams(seed + 22 + idx, 2)
        pushed = push_coords(h, dirichlet_sample_many(alpha, draws, rng_a))
        direct = dirichlet_sample_many(aggregate_params(h, alpha), draws, rng_b)
        z = _max_z_between_samples(pushed, direct)
        worst = max(worst, z)
        if z > 4.0:
            return False, f"max |z| = {z:.2f} for alpha={alpha.alphas}, h={h.targets}"
    return True, (
        f"{len(cases)} cases x {draws} draws: pushed and merged samples agree (max |z| = {worst:.2f})"
    )


@law("stochastic", "sampler-moments")
def check_stoch_sampler_moments(seed: int, resolution: int) -> tuple[bool, str]:
    draws = 100_000
    alpha = HyperParams((2, 1, 1))
    xs = dirichlet_sample_many(alpha, draws, make_rng(seed + 25))
    mean = [float(p) for p in dirichlet_mean(alpha).probs]
    cov = dirichlet_covariance(alpha)
    centered = xs - xs.mean(axis=0)
    worst = 0.0
    for i in range(alpha.n):
        se = xs[:, i].std(ddof=1) / np.sqrt(draws)
        worst = max(worst, abs(xs[:, i].mean() - mean[i]) / se)
        for j in range(i, alpha.n):
            prod = centered[:, i] * centered[:, j]
            se = prod.std(ddof=1) / np.sqrt(draws)
            worst = max(worst, abs(prod.mean() - float(cov[i][j])) / se)
    ok = worst <= 4.0
    return ok, f"{draws} draws of Dir{alpha.alphas}: moments within {worst:.2f} standard errors"


@law("stochastic", "conjugate-update")
def check_stoch_conjugacy(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 26)
    worst = 0.0
    for trial in range(50):
        n = rng.randint(2, 6)
        alpha = _random_hyperparams(rng, n)
        i = rng.randrange(n)
        conditioned = cont_condition(
            dirichlet_density(alpha), lift_predicate(Predicate.point(n, i))
        )
        panel = _interior_points(n, 100, seed + 1000 + trial)
        got = conditioned.eval_many(panel)
        want = dirichlet_pdf_many(alpha.increment(i), panel)
        rel = np.max(np.abs(got - want) / want)
        worst = max(worst, rel)
        if rel > 1e-9:
            return False, f"relative gap {rel:.2e} at {alpha.alphas}, i={i}"
    return True, (
        f"50 instances x 100-point panels: update formula = incremented density "
        f"(worst relative gap {worst:.2e})"
    )


@law("stochastic", "validity-transfer-quadrature")
def check_stoch_transfer_quadrature(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 27)
    tol = _quadrature_tol(resolution)
    worst = 0.0
    for _ in range(20):
        n = rng.randint(2, 3)
        alpha = _random_hyperparams(rng, n, hi=5)
        p = _random_predicate(rng, n)
        lhs = float(validity(mle(alpha.as_multiset()), p))
        rhs = cont_validity(dirichlet_density(alpha), lift_predicate(p), resolution)
        err = abs(lhs - rhs)
        worst = max(worst, err)
        if err > tol:
            return False, f"gap {err:.2e} at {alpha.alphas}"
    return True, (
        f"20 instances: quadrature agrees with the exact value within {tol:.1e} "
        f"(worst {worst:.2e})"
    )


@law("stochastic", "split-round-trip")
def check_stoch_split_roundtrip(seed: int, resolution: int) -> tuple[bool, str]:
    points = _interior_points(6, 200, seed + 28).reshape(200, 2, 3)
    worst = float(np.abs(unsplit(*split(points)) - points).max())
    ok = worst <= 1e-12
    return ok, f"200 interior points: max round-trip gap {worst:.2e}"


@law("stochastic", "split-factorisation")
def check_stoch_factorisation(seed: int, resolution: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 29)
    worst = 0.0
    for trial in range(20):
        alpha = _random_hyperparams(rng, 6)
        rows = (HyperParams(alpha.alphas[:3]), HyperParams(alpha.alphas[3:]))
        points = _interior_points(6, 20, seed + 2000 + trial).reshape(20, 2, 3)
        lhs, rhs1, rhs2 = pdf_factorization_check(rows, points)
        rel = float((np.maximum(np.abs(lhs - rhs1), np.abs(lhs - rhs2)) / np.abs(lhs)).max())
        worst = max(worst, rel)
        if rel > 1e-9:
            return False, f"relative gap {rel:.2e} at {alpha.alphas}"
    return True, (
        f"20 pseudo-count vectors x 20 points: both factorised forms match "
        f"(worst relative gap {worst:.2e})"
    )


@law("stochastic", "local-update-audit")
def check_stoch_local_audit(seed: int, resolution: int) -> tuple[bool, str]:
    audit = local_update_audit(
        (HyperParams((1, 1, 1)),) * 2, (0, 2), samples=100_000, seed=seed + 30
    )
    direct = next(c for c in audit.candidates if c.name == "direct")
    shifted = next(c for c in audit.candidates if c.name == "shifted")
    ok = direct.matches and not shifted.matches and audit.shifted_constant == Fraction(30)
    return ok, (
        f"direct candidate max |z| = {direct.max_abs_z:.2f} (match), shifted "
        f"max |z| = {shifted.max_abs_z:.2f} (mismatch), constant = {audit.shifted_constant}"
    )


# The suite `run_suite("all")` hands to a forked child.  It is the numpy
# half: its checks share the `_cells_cached` grids, so it is not split further.
FORKED_SUITE = "stochastic"


def run_suite(suite: str, seed: int = 42, resolution: int = 400) -> list[CheckResult]:
    """Run one suite (or ``all``) and return its results in a fixed order.

    On Linux, ``all`` runs FORKED_SUITE in a forked child beside the other
    suites; elsewhere, and for one suite, the checks run one after another.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick {', '.join(SUITES)} or all")
    if suite == "all" and sys.platform == "linux":
        return _run_all_forked(seed, resolution)
    names = list(SUITES) if suite == "all" else [suite]
    return [check(seed, resolution) for name in names for check in SUITES[name]]


def _run_all_forked(seed: int, resolution: int) -> list[CheckResult]:
    """Every suite, FORKED_SUITE in a forked child; results in SUITES order.

    The child sends its pickled results, or the text of what it raised,
    through a pipe and always leaves through ``os._exit``.  The child is
    reaped on every path; if the parent's own checks raise or are
    interrupted, it is killed first.  ``gc.freeze`` before the fork keeps
    the collector from touching, and so copying, the pages both share.
    """
    for stream in (sys.stdout, sys.stderr):  # so no buffered text is written twice
        stream.flush()
    read_fd, write_fd = os.pipe()
    gc.freeze()
    try:
        pid = os.fork()
    except BaseException:
        gc.unfreeze()
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                sent = (True, [check(seed, resolution) for check in SUITES[FORKED_SUITE]])
            except BaseException:
                import traceback  # like `signal` below: needed on error paths only

                sent = (False, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(sent, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            results = {name: [check(seed, resolution) for check in checks]
                       for name, checks in SUITES.items() if name != FORKED_SUITE}
            received = pipe.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
            gc.unfreeze()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(f"the {FORKED_SUITE} suite's child process {how}")
    ok, sent = pickle.loads(received)
    if not ok:
        raise RuntimeError(f"the {FORKED_SUITE} suite raised in its child process:\n{sent}")
    results[FORKED_SUITE] = sent
    return [r for name in SUITES for r in results[name]]

"""Executable law suites.

Three suites, selectable from the CLI:

* ``golden``: the worked blood-pressure/medicine example; every number it
  produces is checked exactly.
* ``exact``: the rational-layer laws (pushforward functoriality, naturality
  and monoidality of normalisation, decomposition, the flatten-order
  counterexample, conditioning identities, likelihood maximality on a
  grid), all with zero tolerance on randomised instances.
* ``stochastic``: the Giry-side laws (integrals over the simplex: basics,
  density normalisation, means and validity transfer; aggregation,
  surjective naturality, the degree-2 moments, the conjugate update, the
  split round trip and factorisation, and the local-update audit).

Every law compares exact rationals with ``==``; none computes with floats.

Each law is one function decorated with ``@law(suite, name)``: it takes
the ``seed`` and returns ``(passed, detail)``, and the decorator
registers it in ``SUITES[suite]``.  Suites and laws run in the order they
are defined.  To add a law, define its decorated function where it belongs
and add ``"suite/name"`` at the same position in the benchmark oracle's
``VERIFY_CHECKS`` (``perfbench/oracle.py``), which pins that order.  A law
that computes with numpy arrays is declared ``@law(suite, name,
arrays=True)`` and imports numpy itself: this module loads none.

``run_suite("all")`` on Linux runs the two ``arrays`` laws, the golden
learn-mle-pipeline and learn-bayes-pipeline, in a forked child while the
parent runs the other 29.  The halves share no state.  The parent's half is
pure-Python integer and ``Fraction`` arithmetic that holds the GIL; it
never loads numpy, so it also forks before numpy's BLAS starts any thread.
This module imports every package module its laws use, ``network`` among
them, which loads no numpy until its array code runs, so the child imports
numpy alone, once, after the fork and before its first check.  The results,
and so the report, are the same as from one process.  Each result carries
the check's own time in ``seconds``, which never includes a module's import.

The four integral laws and sampler-moments integrate monomials over the
simplex exactly (``dirichlet.simplex_integral``), a route apart from the
Gamma-function normaliser and the rising-factorial moments they are
compared with; sampler-moments (the benchmark oracle pins that name; it
draws no sample) compares every moment of degree 2 that way.
Surjective naturality and the local-update audit are identities between
exact Dirichlet moments, with zero tolerance.  Aggregation, the conjugate
update and the split's round trip and factorisation are polynomial
identities between exact density values (``dirichlet.dirichlet_pdf``),
checked with ``==`` at rational points of the open simplex, each the
``Dist.normalise`` of positive integer weights.  The split is
``disintegrate``, and ``pair_graph`` inverts it.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import pickle
import random as pyrandom
import sys
import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .bayes import cont_condition, cont_validity, validity_transfer_check
from .dirichlet import (
    HyperParams,
    density_integral,
    dirichlet_moment,
    dirichlet_pdf,
    one_sum_check,
    simplex_integral,
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
from .finset import FinMap, Multiset, ms_map, ms_tensor, multisets, row_extract
from .localsplit import local_update_audit, pdf_factorization_check
from .mle import likelihood, mle, mle_decompose, monad_counterexample
from .network import CountTable, GraphSpec, learn_bayes, learn_mle


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    seconds: float = field(compare=False)  # the check's wall time


Check = Callable[[int], CheckResult]

# Every law, per suite, in the order it is defined below (and reported).
SUITES: dict[str, list[Check]] = {}


def law(
    suite: str, name: str, arrays: bool = False
) -> Callable[[Callable[[int], tuple[bool, str]]], Check]:
    """Register a check as the law ``suite/name``.

    The decorated check takes the ``seed`` and returns
    ``(passed, detail)``; the registered function returns the CheckResult,
    timed.  A check that raises an Exception fails, with ``raised
    <type>: <message>`` as its detail, and the checks after it still run.
    ``arrays=True`` marks a check that computes with numpy arrays: the
    registered function's ``arrays`` attribute says so, and ``run_suite``
    loads numpy before the first such check and, under ``all``, runs them
    in its forked child.
    """

    def register(check: Callable[[int], tuple[bool, str]]) -> Check:
        @functools.wraps(check)
        def run(seed: int) -> CheckResult:
            start = time.perf_counter()
            try:
                passed, detail = check(seed)
            except Exception as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(suite, name, bool(passed), detail, time.perf_counter() - start)

        run.arrays = arrays
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


def _random_point(rng: pyrandom.Random, n: int) -> Dist:
    """A rational point of the open n-outcome simplex: positive integer
    weights, 1-9, normalised."""
    return Dist.normalise([rng.randint(1, 9) for _ in range(n)])


# ---------------------------------------------------------------------------
# Golden suite.


@law("golden", "empirical-joint")
def check_golden_empirical_joint(seed: int) -> tuple[bool, str]:
    joint = mle(blood_medicine_joint())
    ok = joint.probs == GOLDEN_JOINT
    return ok, f"normalised counts = {joint.probs}"


@law("golden", "marginals")
def check_golden_marginals(seed: int) -> tuple[bool, str]:
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
def check_golden_channel(seed: int) -> tuple[bool, str]:
    first, channel = mle_decompose(blood_medicine_joint(), 3)
    first2, channel2 = disintegrate(mle(blood_medicine_joint()), 3)
    ok = (
        first.probs == GOLDEN_FIRST
        and tuple(row.probs for row in channel.rows) == GOLDEN_CHANNEL
        and (first2, channel2) == (first, channel)
    )
    return ok, f"rows = {tuple(r.probs for r in channel.rows)}, table and joint routes agree"


@law("golden", "second-marginal-via-channel")
def check_golden_state_transform(seed: int) -> tuple[bool, str]:
    first, channel = mle_decompose(blood_medicine_joint(), 3)
    second = state_transform(channel, first)
    ok = second.probs == GOLDEN_SECOND
    return ok, f"channel >> first = {second.probs}"


@law("golden", "pair-graph-reconstruction")
def check_golden_reconstruction(seed: int) -> tuple[bool, str]:
    joint = mle(blood_medicine_joint())
    first, channel = disintegrate(joint, 3)
    ok = pair_graph(channel, first) == joint
    return ok, "couple(channel, first) = joint"


@law("golden", "conditioning-on-observed-column")
def check_golden_conditioning(seed: int) -> tuple[bool, str]:
    joint = mle(blood_medicine_joint())
    on_medicine_1 = Predicate(tuple(1 if k % 3 == 1 else 0 for k in range(6)))
    posterior = dist_map(FinMap.proj1(2, 3), condition(joint, on_medicine_1))
    expected = (Fraction(7, 9), Fraction(2, 9))
    ok = posterior.probs == expected
    return ok, f"blood posterior = {posterior.probs}"


@law("golden", "learn-mle-pipeline", arrays=True)
def check_golden_learn_mle(seed: int) -> tuple[bool, str]:
    cpts = {c.node: c for c in learn_mle(blood_medicine_table(), blood_medicine_graph())}
    ok = (
        cpts["Blood"].dists[0].probs == GOLDEN_FIRST
        and tuple(d.probs for d in cpts["Medicine"].dists) == GOLDEN_CHANNEL
    )
    return ok, "learned tables match the worked example"


@law("golden", "learn-bayes-pipeline", arrays=True)
def check_golden_learn_bayes(seed: int) -> tuple[bool, str]:
    cpts = {c.node: c for c in learn_bayes(blood_medicine_table(), blood_medicine_graph())}
    blood = cpts["Blood"]
    med = cpts["Medicine"]
    ok = (
        blood.posteriors[0].counts == (71, 31)
        and blood.dists[0].probs == (Fraction(71, 102), Fraction(31, 102))
        and med.posteriors[0].counts == (11, 36, 26)
        and med.dists[0].probs == (Fraction(11, 73), Fraction(36, 73), Fraction(26, 73))
        and med.posteriors[1].counts == (6, 11, 16)
    )
    return ok, (
        f"posteriors: Blood {blood.posteriors[0].counts}, Medicine {tuple(p.counts for p in med.posteriors)}"
    )


# ---------------------------------------------------------------------------
# Exact suite (zero tolerance).


@law("exact", "pushforward-functoriality")
def check_exact_functoriality(seed: int) -> tuple[bool, str]:
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
def check_exact_naturality(seed: int) -> tuple[bool, str]:
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
def check_exact_marginal_naturality(seed: int) -> tuple[bool, str]:
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
def check_exact_monoidality(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 3)
    trials = 100
    for _ in range(trials):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        phi, psi = _random_multiset(rng, n), _random_multiset(rng, m)
        if mle(ms_tensor(phi, psi)) != pair_graph(Channel((mle(psi),) * n), mle(phi)):
            return False, "tensor mismatch"
    return True, f"{trials} instances: normalising a product table = product of normalisations"


@law("exact", "decomposition-commutes")
def check_exact_decomposition(seed: int) -> tuple[bool, str]:
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
def check_exact_counterexample(seed: int) -> tuple[bool, str]:
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
def check_exact_disintegration_roundtrip(seed: int) -> tuple[bool, str]:
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
def check_exact_conditioning_chain(seed: int) -> tuple[bool, str]:
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
def check_exact_likelihood_max(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 7)
    grid = [mle(m) for m in multisets(3, 25)]
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
def check_exact_validity_transfer(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 8)
    trials = 100
    for _ in range(trials):
        n = rng.randint(1, 6)
        alpha = _random_hyperparams(rng, n)
        p = _random_predicate(rng, n)
        lhs, rhs = validity_transfer_check(alpha, p)
        if lhs != rhs:
            return False, f"{lhs} != {rhs}"
    return True, f"{trials} instances: discrete and lifted validity agree via the closed form"


@law("exact", "point-evidence-trivialises")
def check_exact_trivialisation(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 9)
    trials = 50
    for _ in range(trials):
        n = rng.randint(1, 6)
        alpha = _random_hyperparams(rng, n)
        i = rng.randrange(n)
        updated = condition(mle(alpha), Predicate.point(n, i))
        if updated != Dist.point(n, i):
            return False, "not a point mass"
    return True, f"{trials} instances: conditioning a plain distribution on a point collapses it"


def _reweighted_mean(alpha: HyperParams, phi: Multiset) -> tuple[Fraction, ...]:
    """The mean of Dirichlet(alpha) reweighted by the likelihood of the counts
    phi, prod_i x_i**phi_i, on the Giry side: E[x_i x**phi] / E[x**phi], from
    exact moments."""
    evidence = dirichlet_moment(alpha, phi.counts)
    return tuple(dirichlet_moment(alpha, [k + (j == i) for j, k in enumerate(phi.counts)])
                 / evidence for i in range(alpha.n))


@law("exact", "posterior-mean-identity")
def check_exact_posterior_mean(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 10)
    trials = 100
    for _ in range(trials):
        n = rng.randint(1, 6)
        alpha = _random_hyperparams(rng, n)
        data = _random_multiset(rng, n, lo=0, hi=20)
        if mle(alpha + data).probs != _reweighted_mean(alpha, data):
            return False, "means differ"
        if mle(alpha).probs != _reweighted_mean(alpha, Multiset((0,) * n)):
            return False, "prior mean differs"
    return True, f"{trials} instances: posterior mean = normalised updated pseudo-counts"


# ---------------------------------------------------------------------------
# Stochastic suite: the Giry-side laws, exact like the others.


def _unit(n: int, i: int) -> list[int]:
    return [int(j == i) for j in range(n)]


@law("stochastic", "quadrature-basics")
def check_stoch_quadrature_basics(seed: int) -> tuple[bool, str]:
    # Over the projected simplex of n outcomes, the integral of 1 is its
    # volume 1/(n-1)! and that of each coordinate x_k is 1/n!.
    identities = 0
    for n in range(1, 5):
        volume, mean = Fraction(1, math.factorial(n - 1)), Fraction(1, math.factorial(n))
        if (got := simplex_integral((0,) * n)) != volume:
            return False, f"integral of 1 over {n} outcomes = {got}, not {volume}"
        for k in range(n):
            if (got := simplex_integral(_unit(n, k))) != mean:
                return False, f"integral of x{k} over {n} outcomes = {got}, not {mean}"
        identities += n + 1
    return True, (f"n = 1-4 outcomes: the integrals of 1 and of each x_k are 1/(n-1)! and 1/n!, "
                  f"exactly ({identities} identities)")


@law("stochastic", "density-normalisation")
def check_stoch_normalisation(seed: int) -> tuple[bool, str]:
    # Every pseudo-count vector with n <= 3 and sum <= 12: all ones plus a
    # multiset of the rest.
    alphas = [HyperParams((1,) * n) + phi
              for n in range(1, 4) for size in range(13 - n) for phi in multisets(n, size)]
    for a in alphas:
        if (got := density_integral(a, (0,) * a.n)) != 1:
            return False, f"the density of {a.counts} integrates to {got}"
    return True, (f"all {len(alphas)} pseudo-count vectors with n<=3, sum<=12: the normaliser "
                  "times the integral of x**(alpha-1) is exactly 1")


@law("stochastic", "mean-integrals")
def check_stoch_mean_integrals(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 20)
    for _ in range(30):
        n = rng.randint(2, 3)
        alpha = _random_hyperparams(rng, n, hi=5)
        i = rng.randrange(n)
        got = density_integral(alpha, _unit(n, i))
        if got != Fraction(alpha[i], alpha.total()):
            return False, f"integral of x{i} under {alpha.counts} = {got}"
    return True, "30 instances: the integral of x_i times the density is alpha_i / sum alpha, exactly"


@law("stochastic", "aggregation-one-sum")
def check_stoch_aggregation(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 21)
    for _ in range(50):
        alpha = _random_hyperparams(rng, 3, hi=5)
        x = _random_point(rng, 2)
        lhs, rhs = one_sum_check(alpha, x)
        if lhs != rhs:
            return False, f"{lhs} != {rhs} at {alpha.counts}, x = ({x[0]}, {x[1]})"
    return True, ("50 instances at rational points: merged density = the exact integral "
                  "over its fibre")


def pushed_moment(alpha: HyperParams, h: FinMap, ks: Sequence[int]) -> Fraction:
    """E[prod_j y_j**k_j] for x drawn from Dirichlet(alpha) and y its
    pushforward along h (y_j the sum of x_i over the fibre of j), exactly.

    The product of fibre sums expands by the multinomial theorem into
    monomials of x: each choice of one fibre member per factor gives one
    monomial, and the number of choices that give it is its coefficient.
    Each monomial is a dirichlet_moment.
    """
    fibres = [[i for i, t in enumerate(h.targets) if t == j] for j in range(h.codomain_size)]
    factors = [fibres[j] for j, k in enumerate(ks) for _ in range(k)]
    terms = Counter(tuple(idx.count(i) for i in range(alpha.n)) for idx in product(*factors))
    return sum((c * dirichlet_moment(alpha, es) for es, c in terms.items()), Fraction(0))


@law("stochastic", "surjective-naturality")
def check_stoch_surjective_naturality(seed: int) -> tuple[bool, str]:
    # Dir(alpha) pushed along h against Dir(ms_map(h, alpha)): every
    # mixed moment of degree 1-4, with zero tolerance.
    cases = [
        (HyperParams((2, 3, 1, 4)), FinMap((0, 1, 0, 1), 2)),
        (HyperParams((1, 2, 3)), FinMap((0, 0, 1), 2)),
        (HyperParams((2, 2, 5, 1, 3)), FinMap((0, 1, 2, 0, 1), 3)),
    ]
    identities = 0
    for alpha, h in cases:
        merged = ms_map(h, alpha)
        for degree in range(1, 5):
            for ks in multisets(h.codomain_size, degree):
                gap = pushed_moment(alpha, h, ks.counts) - dirichlet_moment(merged, ks.counts)
                if gap:
                    return False, (f"moment {ks.counts} of alpha={alpha.counts} pushed along "
                                   f"h={h.targets} is off by {gap}")
                identities += 1
    return True, (
        f"{len(cases)} cases: every mixed moment of degree 1-4 of the pushed Dirichlet "
        f"equals the merged Dirichlet's ({identities} exact identities)"
    )


@law("stochastic", "sampler-moments")
def check_stoch_sampler_moments(seed: int) -> tuple[bool, str]:
    # Every moment of degree 2, integrated against the density, equals the
    # rising-factorial moment; degree 1 is mean-integrals'.
    rng = pyrandom.Random(seed + 25)
    alphas = [HyperParams((2, 1, 1))]
    alphas += [_random_hyperparams(rng, rng.randint(2, 4), hi=5) for _ in range(20)]
    identities = 0
    for alpha in alphas:
        for ks in multisets(alpha.n, 2):
            got, want = density_integral(alpha, ks.counts), dirichlet_moment(alpha, ks.counts)
            if got != want:
                return False, f"E[x**{ks.counts}] under {alpha.counts}: integral {got} != {want}"
            identities += 1
    return True, (f"Dir(2, 1, 1) and 20 random alpha: every moment of degree 2 integrates "
                  f"to its rising-factorial value, exactly ({identities} identities)")


@law("stochastic", "conjugate-update")
def check_stoch_conjugacy(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 26)
    for _ in range(50):
        n = rng.randint(2, 6)
        alpha = _random_hyperparams(rng, n)
        i = rng.randrange(n)
        conditioned = cont_condition(alpha, Predicate.point(n, i))
        mean_i = Fraction(alpha[i], alpha.total())
        for _ in range(5):
            x = _random_point(rng, n)
            if x[i] * dirichlet_pdf(alpha, x) / mean_i != dirichlet_pdf(conditioned, x):
                return False, f"update formula != conditioned density at {alpha.counts}, i={i}"
    return True, ("50 instances x 5 rational points: update formula x_i d(x) / E[x_i] "
                  "= conditioned density")


@law("stochastic", "validity-transfer-quadrature")
def check_stoch_transfer_quadrature(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 27)
    for _ in range(20):
        n = rng.randint(2, 3)
        alpha = _random_hyperparams(rng, n, hi=5)
        p = _random_predicate(rng, n)
        lhs, rhs = validity(mle(alpha), p), cont_validity(alpha, p)
        if lhs != rhs:
            return False, f"{lhs} != {rhs} at {alpha.counts}"
    return True, "20 instances: the integral of the lifted predicate equals the discrete validity"


@law("stochastic", "split-round-trip")
def check_stoch_split_roundtrip(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 28)
    for _ in range(20):
        x = _random_point(rng, 6)
        if pair_graph(*reversed(disintegrate(x, 3))) != x:
            return False, (f"pair_graph(disintegrate(x)) != x at the 2x3 table "
                           f"x = ({', '.join(map(str, x.probs))})")
    return True, "20 rational points of the 2x3 joint simplex: pair_graph(disintegrate(x)) = x"


@law("stochastic", "split-factorisation")
def check_stoch_factorisation(seed: int) -> tuple[bool, str]:
    rng = pyrandom.Random(seed + 29)
    for _ in range(20):
        alpha = _random_hyperparams(rng, 6)
        rows = row_extract(alpha, 3)
        for _ in range(3):
            x = _random_point(rng, 6)
            lhs, quotient, shifted = pdf_factorization_check(rows, x)
            if not lhs == quotient == shifted:
                return False, f"joint density {lhs} != {quotient} or {shifted} at {alpha.counts}"
    return True, ("20 pseudo-count vectors x 3 rational points: joint density = both "
                  "factorised forms")


@law("stochastic", "local-update-audit")
def check_stoch_local_audit(seed: int) -> tuple[bool, str]:
    audit = local_update_audit((HyperParams((1, 1, 1)),) * 2, (0, 2))
    direct, shifted = audit.candidates
    ok = direct.matches and not shifted.matches and audit.shifted_constant == Fraction(30)
    return ok, (
        f"direct candidate fails {direct.failed} of {audit.identities} joint moment identities "
        f"(match), shifted fails {shifted.failed} (mismatch, first gap {shifted.first_gap}), "
        f"constant = {audit.shifted_constant}"
    )


def run_suite(suite: str, seed: int = 42) -> list[CheckResult]:
    """Run one suite (or ``all``) and return its results in a fixed order.

    On Linux, ``all`` runs the checks marked ``arrays`` in a forked child
    beside the other checks; elsewhere, and for one suite, the checks run
    one after another.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick {', '.join(SUITES)} or all")
    checks = [check for name in SUITES for check in SUITES[name] if suite in (name, "all")]
    if suite == "all" and sys.platform == "linux":
        return _run_all_forked(checks, seed)
    return _run_checks(checks, seed)


def _run_checks(checks: list[Check], seed: int) -> list[CheckResult]:
    """Run the checks in turn, loading numpy first if one of them computes
    with arrays, so that no check's ``seconds`` include its import."""
    if any(getattr(check, "arrays", False) for check in checks):
        import numpy  # noqa: F401
    return [check(seed) for check in checks]


def _run_all_forked(checks: list[Check], seed: int) -> list[CheckResult]:
    """Every check, those marked ``arrays`` in a forked child and the rest
    in this process; results in the checks' order.

    Only the child loads numpy, after the fork, so the parent runs its
    pure-Python integer and ``Fraction`` half without it and forks while it
    has one thread: numpy's OpenBLAS starts its helper threads when numpy
    loads.  The child sends its pickled results, or the text of what it
    raised, through a pipe and always leaves through ``os._exit``.  The
    child is reaped on every path; if the parent's own checks raise or are
    interrupted, it is killed first.  ``gc.freeze`` before the fork keeps
    the collector from touching, and so copying, the pages both share.
    """
    forked = [getattr(check, "arrays", False) for check in checks]
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
                sent = (True, _run_checks([c for c, child in zip(checks, forked) if child], seed))
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
            mine = [check(seed) for check, child in zip(checks, forked) if not child]
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
        raise RuntimeError(f"the forked checks' child process {how}")
    ok, sent = pickle.loads(received)
    if not ok:
        raise RuntimeError(f"the forked checks raised in their child process:\n{sent}")
    theirs, mine = iter(sent), iter(mine)
    return [next(theirs if child else mine) for child in forked]

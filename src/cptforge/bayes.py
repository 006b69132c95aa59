"""Validity and conditioning over Dirichlet densities.

A predicate on outcomes lifts to a predicate on the simplex by taking its
expected value at each point.  Validity of the lifted predicate under a
Dirichlet prior equals validity of the plain predicate under the
normalised pseudo-counts, and conditioning a Dirichlet on a single observed
outcome is the conjugate update: the matching pseudo-count goes up by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dirichlet import (
    HyperParams,
    SimplexDensity,
    dirichlet_mean,
    simplex_cells,
)
from .dist import Predicate, validity
from .finset import Multiset
from .mle import mle


@dataclass(frozen=True)
class LiftedPredicate:
    """A predicate on the simplex: x -> sum_i p(i) * x_i, on rows of x.

    Values stay in [0,1] because each evaluation is a convex combination of
    the base predicate's values.
    """

    base: Predicate

    @property
    def n(self) -> int:
        return self.base.n

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        weights = np.array([float(v) for v in self.base.values])
        return np.asarray(xs, dtype=float) @ weights


def lift_predicate(p: Predicate) -> LiftedPredicate:
    """Extend an outcome predicate to distributions by expectation."""
    return LiftedPredicate(p)


def cont_validity(density: SimplexDensity, q: LiftedPredicate, resolution: int) -> float:
    """Expected value of the lifted predicate under the density, by simplex
    quadrature at the given resolution.

    Under Dirichlet(alpha) the closed form is validity(dirichlet_mean(alpha),
    p) (linearity plus the Dirichlet mean); validity_transfer_check uses it.
    """
    if q.n != density.n:
        raise ValueError(f"size mismatch: density over {density.n}, predicate over {q.n}")
    points, weights = simplex_cells(density.n, resolution)
    return float(weights @ (q.eval_many(points) * density.eval_many(points)))


def cont_condition(density: SimplexDensity, q: LiftedPredicate) -> SimplexDensity:
    """Condition a Dirichlet density on a lifted point observation.

    The returned density evaluates the update formula directly,
    x -> x_i * d(x) / (alpha_i / alpha), while its parameter tag records the
    conjugate form with the i-th pseudo-count incremented.  That the two
    coincide pointwise is the conjugacy law, checked by the test suite
    rather than assumed here.  A density that already carries a Dirichlet
    tag (e.g. the output of an earlier update) can be conditioned again;
    the tag supplies the normalising validity, so repeated point updates
    just keep incrementing pseudo-counts.

    Only point observations are supported: conditioning on a general fuzzy
    predicate leaves the Dirichlet family.
    """
    if density.dirichlet_params is None:
        raise ValueError("can only condition a density in the Dirichlet family")
    if not q.base.is_point():
        raise ValueError("only lifted point predicates are supported")
    if q.n != density.n:
        raise ValueError(f"size mismatch: density over {density.n}, predicate over {q.n}")

    alpha = density.dirichlet_params
    i = q.base.point_index()
    mean_i = float(Fraction(alpha.alphas[i], alpha.total))
    inner = density.eval_many

    def conditioned(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return xs[:, i] * inner(xs) / mean_i

    updated = alpha.increment(i)
    return SimplexDensity(n=density.n, dirichlet_params=updated, _eval_many=conditioned)


def batch_update(alpha: HyperParams, data: Multiset) -> HyperParams:
    """Fold a batch of observed counts into the pseudo-counts, entrywise."""
    if data.n != alpha.n:
        raise ValueError(f"size mismatch: params over {alpha.n}, counts over {data.n}")
    return HyperParams(tuple(a + c for a, c in zip(alpha.alphas, data.counts)))


def validity_transfer_check(
    alpha: HyperParams, p: Predicate
) -> tuple[Fraction, float]:
    """Both sides of the validity-transfer law for the given inputs.

    lhs: validity of p under the normalised pseudo-counts, exact.
    rhs: validity of the lifted predicate under Dirichlet(alpha), via the
    closed form validity(dirichlet_mean(alpha), p), converted once.  The law
    says they are equal.
    """
    lhs = validity(mle(alpha.as_multiset()), p)
    rhs = float(validity(dirichlet_mean(alpha), p))
    return lhs, rhs

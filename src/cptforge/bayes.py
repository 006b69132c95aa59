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
    cell_rule_integrals,
    dirichlet_moment,
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
    """Expected value of the lifted predicate under a Dirichlet density, by the
    package's one cell rule at the given resolution, summed by monomial
    moments without building a grid.

    A lifted predicate is linear, q(x) = sum_i q(e_i) x_i, so its values at
    the vertices e_i are its coefficients, and the integral of q * Dir(alpha)
    is their sum over the cell-rule integrals of x_i * Dir(alpha), which
    cell_rule_integrals gives.  The exact value is sum_i p(i) E[x_i];
    validity_transfer_check computes it.  A density without a Dirichlet tag
    raises ValueError, as does a resolution whose grid would pass the cell
    cap.
    """
    if density.dirichlet_params is None:
        raise ValueError("can only integrate a density in the Dirichlet family")
    if q.n != density.n:
        raise ValueError(f"size mismatch: density over {density.n}, predicate over {q.n}")
    alpha = density.dirichlet_params
    units = np.eye(alpha.n, dtype=np.int64)
    return float(q.eval_many(units) @ cell_rule_integrals([alpha] * alpha.n, units, resolution))


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
    mean_i = float(Fraction(alpha[i], alpha.total()))
    inner = density.eval_many

    def conditioned(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return xs[:, i] * inner(xs) / mean_i

    updated = alpha.increment(i)
    return SimplexDensity(n=density.n, dirichlet_params=updated, _eval_many=conditioned)


def batch_update(alpha: HyperParams, data: Multiset) -> HyperParams:
    """Fold a batch of observed counts into the pseudo-counts: the multiset sum."""
    return alpha + data


def validity_transfer_check(
    alpha: HyperParams, p: Predicate
) -> tuple[Fraction, Fraction]:
    """Both sides of the validity-transfer law for the given inputs, exactly.

    lhs: validity of p under the normalised pseudo-counts.
    rhs: validity of the lifted predicate under Dirichlet(alpha), which is
    sum_i p(i) E[x_i] by linearity, each E[x_i] a first dirichlet_moment.
    The law says they are equal.
    """
    lhs = validity(mle(alpha), p)
    units = [[int(j == i) for j in range(alpha.n)] for i in range(alpha.n)]
    rhs = sum(v * dirichlet_moment(alpha, e) for v, e in zip(p.values, units))
    return lhs, rhs

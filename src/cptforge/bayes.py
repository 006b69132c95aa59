"""Validity and conditioning over Dirichlet densities.

A predicate on outcomes lifts to a predicate on the simplex by taking its
expected value at each point.  Validity of the lifted predicate under a
Dirichlet prior equals validity of the plain predicate under the
normalised pseudo-counts, and conditioning a Dirichlet on a single observed
outcome is the conjugate update: the matching pseudo-count goes up by one.
A density is evaluated exactly, at points with Fraction coordinates; the
one float computation here is `cont_validity`'s cell rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dirichlet import (
    HyperParams,
    SimplexDensity,
    cell_rule_integrals,
    dirichlet_density,
    dirichlet_moment,
)
from .dist import Predicate, validity
from .finset import Multiset
from .mle import mle


@dataclass(frozen=True)
class LiftedPredicate:
    """A predicate on the simplex: x -> sum_i p(i) * x_i.

    Values stay in [0,1] because each is a convex combination of the base
    predicate's values, which are also its coefficients.
    """

    base: Predicate

    @property
    def n(self) -> int:
        return self.base.n


def lift_predicate(p: Predicate) -> LiftedPredicate:
    """Extend an outcome predicate to distributions by expectation."""
    return LiftedPredicate(p)


def cont_validity(density: SimplexDensity, q: LiftedPredicate, resolution: int) -> float:
    """Expected value of the lifted predicate under a Dirichlet density, by the
    package's one cell rule at the given resolution, summed by monomial
    moments without building a grid.

    A lifted predicate is linear, q(x) = sum_i p(i) x_i, so the integral of
    q * Dir(alpha) is the sum of its coefficients p(i) times the cell-rule
    integrals of x_i * Dir(alpha), which cell_rule_integrals gives.  The
    exact value is sum_i p(i) E[x_i]; validity_transfer_check computes it.
    A resolution whose grid would pass the cell cap raises ValueError.
    """
    if q.n != density.n:
        raise ValueError(f"size mismatch: density over {density.n}, predicate over {q.n}")
    alpha = density.dirichlet_params
    coefficients = np.array([float(v) for v in q.base.values])
    units = np.eye(alpha.n, dtype=np.int64)
    return float(coefficients @ cell_rule_integrals([alpha] * alpha.n, units, resolution))


def cont_condition(density: SimplexDensity, q: LiftedPredicate) -> SimplexDensity:
    """Condition a Dirichlet density on a lifted point observation.

    Conditioning Dir(alpha) on the lifted point predicate of outcome i is
    the update formula x -> x_i * d(x) / E[x_i], and the result is the
    conjugate form: Dir(alpha) with the i-th pseudo-count incremented.  That
    the two coincide pointwise is the conjugacy law, which the law suites
    check exactly at rational points rather than assume here.  Repeated
    point updates keep incrementing pseudo-counts.

    Only point observations are supported: conditioning on a general fuzzy
    predicate leaves the Dirichlet family.
    """
    if not q.base.is_point():
        raise ValueError("only lifted point predicates are supported")
    if q.n != density.n:
        raise ValueError(f"size mismatch: density over {density.n}, predicate over {q.n}")
    return dirichlet_density(density.dirichlet_params.increment(q.base.point_index()))


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

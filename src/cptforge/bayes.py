"""Validity and conditioning over Dirichlet densities.

Dir(alpha) is fixed by its pseudo-counts, so the Giry side acts on the
`HyperParams` alpha directly.  A predicate p on outcomes lifts to the
simplex by taking its expected value at each point, x -> sum_i p(i) x_i,
which p alone fixes, so the functions here take p itself.  Validity of the
lifted predicate under Dir(alpha) equals validity of p under the normalised
pseudo-counts, and conditioning Dir(alpha) on a single observed outcome is
the conjugate update, the batch update `alpha + data` with data one count of
that outcome.  The one float computation here is `cont_validity`'s cell rule.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .dirichlet import HyperParams, cell_rule_integrals, dirichlet_moment
from .dist import Predicate, validity
from .mle import mle


def cont_validity(alpha: HyperParams, p: Predicate, resolution: int) -> float:
    """Expected value of p's lift, x -> sum_i p(i) x_i, under Dir(alpha), by
    the package's one cell rule at the given resolution, summed by monomial
    moments without building a grid.

    The lift is linear, so the integral of it times Dir(alpha) is the sum of
    the coefficients p(i) times the cell-rule integrals of x_i * Dir(alpha),
    which cell_rule_integrals gives.  The exact value is sum_i p(i) E[x_i];
    validity_transfer_check computes it.  A resolution whose grid would
    pass the cell cap raises ValueError.
    """
    if p.n != alpha.n:
        raise ValueError(f"size mismatch: density over {alpha.n}, predicate over {p.n}")
    coefficients = np.array([float(v) for v in p.values])
    units = np.eye(alpha.n, dtype=np.int64)
    return float(coefficients @ cell_rule_integrals([alpha] * alpha.n, units, resolution))


def cont_condition(alpha: HyperParams, p: Predicate) -> HyperParams:
    """Condition Dir(alpha) on the lift of a point predicate.

    Conditioning on the lift of the point predicate of outcome i is the
    update formula x -> x_i * Dir(alpha)(x) / E[x_i], and the result is the
    conjugate form: Dir(alpha) with the i-th pseudo-count incremented.  That
    the two coincide pointwise is the conjugacy law, which the law suites
    check exactly at rational points rather than assume here.  Repeated
    point updates keep incrementing pseudo-counts.

    Only point predicates are supported: conditioning on a general fuzzy
    predicate gives a finite mixture of Dirichlets, not one Dirichlet.
    """
    if not p.is_point():
        raise ValueError("only point predicates are supported")
    if p.n != alpha.n:
        raise ValueError(f"size mismatch: density over {alpha.n}, predicate over {p.n}")
    return alpha.increment(p.point_index())


def validity_transfer_check(
    alpha: HyperParams, p: Predicate
) -> tuple[Fraction, Fraction]:
    """Both sides of the validity-transfer law for the given inputs, exactly.

    lhs: validity of p under the normalised pseudo-counts.
    rhs: validity of p's lift under Dirichlet(alpha), which is
    sum_i p(i) E[x_i] by linearity, each E[x_i] a first dirichlet_moment.
    The law says they are equal.
    """
    lhs = validity(mle(alpha), p)
    units = [[int(j == i) for j in range(alpha.n)] for i in range(alpha.n)]
    rhs = sum(v * dirichlet_moment(alpha, e) for v, e in zip(p.values, units))
    return lhs, rhs

"""Validity and conditioning over Dirichlet densities.

Dir(alpha) is fixed by its pseudo-counts, so the Giry side acts on the
`HyperParams` alpha directly.  A predicate p on outcomes lifts to the
simplex by taking its expected value at each point, x -> sum_i p(i) x_i,
which p alone fixes, so the functions here take p itself.  Validity of the
lifted predicate under Dir(alpha) equals validity of p under the normalised
pseudo-counts, and conditioning Dir(alpha) on a single observed outcome is
the conjugate update, the batch update `alpha + data` with data one count of
that outcome.  Every value here is an exact rational.
"""

from __future__ import annotations

from fractions import Fraction

from .dirichlet import HyperParams, density_integral, dirichlet_moment
from .dist import Predicate, validity
from .mle import mle


def cont_validity(alpha: HyperParams, p: Predicate) -> Fraction:
    """Expected value of p's lift, x -> sum_i p(i) x_i, under Dir(alpha),
    as an exact integral over the simplex.

    The lift is linear, so the integral of it times Dir(alpha) is the sum of
    the coefficients p(i) times the integrals of x_i * Dir(alpha), each a
    density_integral, which evaluates no moment formula.  The closed form is
    sum_i p(i) E[x_i]; validity_transfer_check computes it.
    """
    if p.n != alpha.n:
        raise ValueError(f"size mismatch: density over {alpha.n}, predicate over {p.n}")
    return sum((v * density_integral(alpha, [int(j == i) for j in range(alpha.n)])
                for i, v in enumerate(p.values)), Fraction(0))


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

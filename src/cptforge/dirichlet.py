"""Dirichlet densities with integer pseudo-count parameters: their exact
values, moments, integrals and aggregation.

The parameters, `HyperParams`, are a `finset.Multiset` in which every count
is at least 1, so multiset arithmetic applies to them as it stands: `total()`
is the Dirichlet's concentration, `mle(alpha)` its mean, `alpha + data` the
conjugate update and `ms_map(h, alpha)` its aggregation along an onto h.

Density: Dir(alpha) is fixed by its pseudo-counts, so every function here
takes the `HyperParams` alpha itself.  With integer pseudo-counts the density
is a rational normaliser times a monomial with non-negative integer
exponents, so at a rational point of the open simplex, a full-support
`Dist`, it is an exact rational, `dirichlet_pdf`.

Geometry convention: the n-outcome simplex is parameterised by its first
n-1 coordinates, the last one being implied by the sum-to-one constraint,
and integrals are taken with respect to Lebesgue measure on that
(n-1)-dimensional projection.  With that convention the uniform density on
two outcomes is the constant 1, which pins the normalisation.

Integrals: the integral of a monomial with non-negative integer exponents
over the projected simplex is an exact rational, `simplex_integral`, by
Fubini and the binomial theorem, one coordinate at a time;
`density_integral` multiplies it by the normaliser.  It evaluates no Gamma
function and no rising factorial, so it is a route to the Dirichlet's
integrals apart from `dirichlet_normalizer` and `dirichlet_moment`, and the
laws compare the routes.  Its one-step case, a segment integral, is also
`one_sum_check`'s fibre integral.

Moments: with integer pseudo-counts every mixed moment of Dirichlet(alpha)
is an exact rational, `dirichlet_moment`; its degree-1 case, the mean, is
`mle(alpha)`, the normalised pseudo-counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dist import Dist
from .finset import FinMap, Multiset, index_below, integer_tuple, ms_map


@dataclass(frozen=True)
class HyperParams(Multiset):
    """Dirichlet pseudo-counts: a multiset in which every index occurs."""

    _noun = "pseudo-count"
    _least = 1

    def increment(self, i: int) -> HyperParams:
        """A copy with the i-th pseudo-count raised by one."""
        i = index_below(i, self.n)
        return HyperParams(
            tuple(a + 1 if j == i else a for j, a in enumerate(self.counts))
        )


def gamma_nat(k: int) -> int:
    """The Gamma function on positive integers: (k-1)!, exactly."""
    if k < 1:
        raise ValueError("gamma_nat is defined on positive integers only")
    return math.factorial(k - 1)


def dirichlet_normalizer(alpha: HyperParams) -> Fraction:
    """Gamma(sum alpha) / prod Gamma(alpha_i) as an exact rational."""
    den = 1
    for a in alpha.counts:
        den *= gamma_nat(a)
    return Fraction(gamma_nat(alpha.total()), den)


def dirichlet_pdf(alpha: HyperParams, x: Dist) -> Fraction:
    """The density of Dirichlet(alpha) at x, a full-support Dist: a point of
    the open simplex, exactly.

    It is the exact normaliser times the monomial prod_i x_i**(alpha_i - 1),
    whose exponents are non-negative integers: with x's weights over its
    total T, the monomial is an integer over T**(sum alpha - n), so the
    value is built as one Fraction.  Raises ValueError unless x has n
    entries, none of them 0.
    """
    if x.n != alpha.n:
        raise ValueError(f"expected a point of {alpha.n} coordinates, got {x.n}")
    if not x.has_full_support():
        raise ValueError(f"coordinate {x.weights.index(0)} is 0: a point of the open "
                         "simplex is strictly positive")
    monomial = math.prod(v ** (a - 1) for v, a in zip(x.weights, alpha.counts))
    norm = dirichlet_normalizer(alpha)
    return Fraction(norm.numerator * monomial,
                    norm.denominator * x.total ** (alpha.total() - alpha.n))


def _segment_integral(a: int, b: int) -> Fraction:
    """The integral of y**a (1 - y)**b over [0, 1], exactly: by the binomial
    theorem it is sum_j C(b, j) (-1)**j / (a + j + 1), summed over one
    common denominator, the lcm of a + 1 .. a + b + 1."""
    den = math.lcm(*range(a + 1, a + b + 2))
    return Fraction(sum((-1) ** j * math.comb(b, j) * (den // (a + j + 1)) for j in range(b + 1)),
                    den)


def simplex_integral(ks: Sequence[int]) -> Fraction:
    """The integral of prod_i x_i**k_i over the projected simplex, exactly.

    By Fubini, x_1 runs over [0, r] against the last coordinate r - x_1,
    where r is what the other leading coordinates leave, and
    x_1**a (r - x_1)**b integrates to r**(a+b+1) times the segment integral
    of y**a (1 - y)**b.  So r is the last coordinate of a simplex with one
    outcome fewer, now with exponent a + b + 1, and the next leading
    coordinate goes the same way.  The one-outcome simplex is the point 1,
    where every monomial is 1.  No Gamma function or rising factorial is
    evaluated.  An exponent that is not a non-negative integer is refused,
    not truncated.
    """
    ks = integer_tuple(ks, "exponent", 0)
    if not ks:
        raise ValueError("need the exponent of at least one coordinate")
    *leading, last = ks
    out = Fraction(1)
    for a in leading:
        out *= _segment_integral(a, last)
        last += a + 1
    return out


def density_integral(alpha: HyperParams, ks: Sequence[int]) -> Fraction:
    """The integral of prod_i x_i**k_i times the Dirichlet(alpha) density
    over the projected simplex, exactly: the normaliser times the
    simplex_integral of the monomial x**(alpha - 1 + k)."""
    ks = integer_tuple(ks, "exponent", 0)
    if len(ks) != alpha.n:
        raise ValueError(f"expected {alpha.n} exponents, got {len(ks)}")
    return dirichlet_normalizer(alpha) * simplex_integral(
        [a - 1 + k for a, k in zip(alpha.counts, ks)])


def dirichlet_moment(alpha: HyperParams, ks: Sequence[int]) -> Fraction:
    """E[prod_i x_i**k_i] under Dirichlet(alpha), exactly.

    It is prod_i alpha_i^(k_i) / (sum alpha)^(sum k), with a^(k) the rising
    factorial a (a+1) ... (a+k-1); no Gamma function is evaluated (Kotz,
    Balakrishnan & Johnson, Continuous Multivariate Distributions, vol. 1,
    2nd ed., 2000, the Dirichlet chapter).
    """
    ks = integer_tuple(ks, "exponent")
    if len(ks) != alpha.n or min(ks) < 0:
        raise ValueError(f"expected {alpha.n} non-negative exponents, got {ks}")

    def rising(a: int, k: int) -> int:
        return math.prod(range(a, a + k))

    num = math.prod(rising(a, k) for a, k in zip(alpha.counts, ks))
    return Fraction(num, rising(alpha.total(), sum(ks)))


def one_sum_check(alpha: HyperParams, x: Dist) -> tuple[Fraction, Fraction]:
    """Both sides of the two-coordinate aggregation identity, exactly.

    lhs: the density with the first two pseudo-counts merged, at x (a point
    of the open (n-1)-outcome simplex, a full-support Dist).  rhs: the
    integral over y in (0, s), s = x[0], of the original density at (y, s -
    y, x[1], ...).  With a, b the first two pseudo-counts, the integrand is a
    constant times y**(a-1) * (s-y)**(b-1), which integrates to s**(a+b-1)
    times the segment integral of simplex_integral's one step, exactly.
    The law says the two are equal.
    """
    if alpha.n < 2:
        raise ValueError("need at least two pseudo-counts to merge")
    merged = ms_map(FinMap((0, *range(alpha.n - 1)), alpha.n - 1), alpha)
    lhs = dirichlet_pdf(merged, x)  # refuses x unless it is a point of the open simplex

    (a, b), s = alpha.counts[:2], x[0]
    # y = s t turns the integral into s**(a+b-1) times that of t**(a-1) (1-t)**(b-1) on [0, 1].
    fibre = _segment_integral(a - 1, b - 1) * s ** (a + b - 1)
    rest = math.prod(v ** (c - 1) for v, c in zip(x.probs[1:], alpha.counts[2:]))
    return lhs, dirichlet_normalizer(alpha) * fibre * rest

"""Dirichlet densities with integer pseudo-count parameters: their exact
values, moments and aggregation, plus the quadrature and sampling machinery
used to verify their laws numerically.

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

Quadrature: the projected simplex is tiled by axis-aligned boxes of side
1/resolution, clipped where the sum-to-one boundary cuts through; each cell
contributes its exact clipped volume at its centroid.  The rule integrates
constants and linear functions exactly (so the cell volumes add up to the
exact simplex volume) and converges at second order for smooth integrands.
A midpoint rule that simply drops the boundary cells would miss O(1/res)
of mass concentrated near the boundary, which is not good enough for the
1e-3 normalisation checks this package runs.  The rule is only ever
applied to monomials, and `simplex_moments` sums those without building
the grid: every cell with the same index sum has the same weight and the
same last coordinate, so a moment is a convolution of 1-D power tables.
`cell_rule_integrals` scales such moments by `dirichlet_normalizer` into the
cell-rule integrals of monomials times Dirichlet densities.

Moments: with integer pseudo-counts every mixed moment of Dirichlet(alpha)
is an exact rational, `dirichlet_moment`; its degree-1 case, the mean, is
`mle(alpha)`, the normalised pseudo-counts.

Sampling draws Dirichlet points from seeded Philox streams, one block of
rows at a time: `dirichlet_sample_blocks` yields the blocks as it draws
them.  A sample is judged by `moment_z`, from its column sums and Gram sums
alone: both add over blocks, so a sampling law holds no whole sample, and
every standard error is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .dist import Dist
from .finset import FinMap, Multiset, index_below, integer, integer_tuple, ms_map, multisets

MAX_QUADRATURE_DIM = 4  # desk-scale cap on the number of outcomes
# Cap on the cells of the grid that simplex_moments sums over.  It builds no
# grid, but its power tables and convolutions grow with the resolution, so the
# cap bounds a call's time and memory before it allocates anything.
MAX_QUADRATURE_CELLS = 1 << 21
# Exponentials per block of dirichlet_sample_blocks.  Blocks of 2^14 to 2^16
# took the same time for 100k draws; the smallest adds the least memory, and
# the sampling laws, which stream their blocks, peak lower with it (a 2^16
# block raised verify-all's peak RSS from 38.7 to 41.0 MB).
SAMPLE_BLOCK = 1 << 14


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


# Clipped-cell geometry: fraction of a unit box below the plane sum(z) = t
# and the common centroid coordinate of the clipped region, per projected
# dimension d and integer slack t (cells with t >= d are whole).
_CLIP = {
    2: {1: (Fraction(1, 2), Fraction(1, 3))},
    3: {1: (Fraction(1, 6), Fraction(1, 4)), 2: (Fraction(5, 6), Fraction(9, 20))},
}


def simplex_cell_count(n: int, resolution: int) -> int:
    """Number of cells tiling the n-outcome simplex at `resolution`.

    A cell is a tuple of n-1 non-negative box indices with sum at most
    resolution-1, so there are C(resolution-1 + n-1, n-1) of them.
    """
    return math.comb(resolution - 1 + n - 1, n - 1)


def _check_grid(n: int, resolution: int) -> tuple[int, int]:
    n, resolution = integer(n, "number of outcomes"), integer(resolution, "resolution")
    if not 1 <= n <= MAX_QUADRATURE_DIM:
        raise ValueError(f"supported dimensions are 1..{MAX_QUADRATURE_DIM}, got {n}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    cells = simplex_cell_count(n, resolution)
    if cells > MAX_QUADRATURE_CELLS:
        raise ValueError(
            f"resolution {resolution} needs {cells} cells for {n} outcomes, "
            f"over the cap of {MAX_QUADRATURE_CELLS}"
        )
    return n, resolution


def _slack_classes(d: int, res: int) -> tuple[np.ndarray, np.ndarray]:
    """Per slack t = res - (sum of a cell's indices), at index t - 1: the
    offset of the cell's centroid in its box, and the cell's weight."""
    offsets, weights = np.full(res, 0.5), np.ones(res)
    for t, (frac, centroid) in _CLIP.get(d, {}).items():
        offsets[t - 1], weights[t - 1] = float(centroid), float(frac)
    return offsets, weights / res**d


def _power_table(x: np.ndarray, top: int) -> np.ndarray:
    """Rows x**0 .. x**top, by repeated multiplication."""
    table = np.empty((top + 1, len(x)))
    table[0] = 1.0
    for k in range(1, top + 1):
        np.multiply(table[k - 1], x, out=table[k])
    return table


def _exponent_table(n: int, exponents) -> np.ndarray:
    """The (m, n) exponent table as int64; a bad entry is named by its index in its row."""
    if len(shape := np.shape(exponents)) != 2 or shape[1] != n:
        raise ValueError(f"expected an (m, {n}) table of exponents, got shape {shape}")
    rows = [integer_tuple(row, "exponent", 0) for row in exponents]
    return np.array(rows, np.int64).reshape(shape)


def simplex_moments(n: int, resolution: int, exponents) -> np.ndarray:
    """The cell-rule sum of w * prod_k x_k**e_k over the cells x (weights w)
    tiling the n-outcome simplex at resolution, for each row e of an (m, n)
    array of non-negative integer exponents, without building the grid.
    A non-integer exponent or another shape is refused, not truncated.

    The cells with slack t (resolution minus the sum of their indices) share
    their weight, their offset in their box and so their last coordinate,
    (t - (n-1) * offset) / resolution.  Their sum
    of the leading coordinates' monomial is coefficient resolution - t of the
    convolution of the power tables ((i + offset) / resolution)**e_k, i =
    0..resolution-1.  So each distinct leading-exponent tuple takes one
    np.convolve chain (a clipped class, t < n-1, one coefficient of its own),
    and one matmul against the last coordinate's powers gives every moment.
    Raises ValueError, before allocating anything, when the grid would have
    more than MAX_QUADRATURE_CELLS cells.
    """
    n, res = _check_grid(n, resolution)
    d = n - 1
    exps = _exponent_table(n, exponents)
    groups: dict[tuple[int, ...], int] = {}
    rows = [groups.setdefault(tuple(e[:d]), len(groups)) for e in exps.tolist()]
    offsets, weights = _slack_classes(d, res)
    top = int(exps[:, :d].max(initial=0))
    tables = {off: _power_table((np.arange(res) + off) / res, top)
              for off in {0.5, *offsets.tolist()}}

    def chain(lead: tuple[int, ...], off: float, size: int) -> np.ndarray:
        """The first size coefficients of the convolution of lead's tables."""
        out = np.ones(1)
        for e in lead:
            out = np.convolve(out, tables[off][e])[:size]
        return np.pad(out, (0, size - len(out)))

    sums = np.empty((len(groups), res))  # column t - 1: the class of slack t
    for g, lead in enumerate(groups):
        sums[g] = chain(lead, 0.5, res)[::-1]
        for t in range(1, d):
            off, s = offsets[t - 1], res - t
            sums[g, t - 1] = chain(lead[:-1], off, s + 1) @ tables[off][lead[-1], s::-1]
    last = (np.arange(1, res + 1) - d * offsets) / res
    moments = (sums * weights) @ _power_table(last, int(exps[:, d].max(initial=0))).T
    return moments[rows, exps[:, d]]


def cell_rule_integrals(alphas: list[HyperParams], exponents: list[Sequence[int]],
                        resolution: int) -> np.ndarray:
    """The cell-rule integral of x**k times the Dirichlet(alpha) density, for
    each alpha and its row k of exponents.

    With integer pseudo-counts the density of Dirichlet(alpha) is
    dirichlet_normalizer(alpha) times the monomial prod_i x_i**(alpha_i - 1),
    so each integral is that constant times the monomial moment
    x**(alpha - 1 + k) of the cell rule, which simplex_moments sums by
    convolution without building the grid: one call per number of outcomes.
    """
    if len(exponents) != len(alphas):
        raise ValueError(f"need one exponent row per density: {len(alphas)}, got {len(exponents)}")
    out = np.empty(len(alphas))
    for n in sorted({a.n for a in alphas}):
        idx = [j for j, a in enumerate(alphas) if a.n == n]
        exps = _exponent_table(n, [exponents[j] for j in idx]) + [alphas[j].counts for j in idx] - 1
        norms = np.array([float(dirichlet_normalizer(alphas[j])) for j in idx])
        out[idx] = simplex_moments(n, resolution, exps) * norms
    return out


def make_rng(seed: int) -> np.random.Generator:
    """A counter-based Philox stream: the same seed replays bit-identically."""
    return np.random.Generator(np.random.Philox(seed))


def dirichlet_sample_blocks(
    alpha: HyperParams, size: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """size Dirichlet(alpha) draws, as consecutive (rows, n) blocks.

    Each coordinate's Gamma variate with integer shape a_i is drawn as the
    sum of a_i independent standard exponentials, which is exact for
    integer shapes; the row is then normalised by its sum.  A block holds
    as many whole rows as fit in SAMPLE_BLOCK exponentials (one row if it
    alone is longer).  The generator fills the blocks in order as they are
    consumed, so together they are the draws of one (size, total) block of
    exponentials.  Raises ValueError on the call when size < 1.
    """
    if size < 1:
        raise ValueError("need at least one draw")
    total = alpha.total()
    starts = np.cumsum((0,) + alpha.counts)[:-1]
    step = max(1, SAMPLE_BLOCK // total)

    def block(rows: int) -> np.ndarray:
        gammas = np.add.reduceat(rng.standard_exponential((rows, total)), starts, axis=1)
        return gammas / gammas.sum(axis=1, keepdims=True)

    return (block(min(step, size - lo)) for lo in range(0, size, step))


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


Z_BOUND = 4.0  # a sample matches its law when moment_z reads at most this


def moment_z(alpha: HyperParams, draws: int, sums: np.ndarray, gram: np.ndarray) -> float:
    """Largest |z| of the sample means of the coordinates x_j and of the
    products x_j x_k (j <= k) of draws from Dirichlet(alpha), given the
    draws' column sums and Gram sums x^T x, against their exact means.  The
    standard error of f is sqrt((E[f^2] - E[f]^2) / draws), exactly, with
    every E a dirichlet_moment.  A one-outcome alpha is the point mass at 1,
    which every sample matches: its z is 0.0."""
    n = alpha.n
    if n == 1:
        return 0.0
    worst = 0.0
    for degree, table in ((1, sums), (2, gram)):
        for m in multisets(n, degree):
            ks = m.counts
            # The cell of the sum: (j,) or (j, k) with j <= k, the exponents' indices.
            total = table[tuple(i for i, k in enumerate(ks) for _ in range(k))]
            mean = dirichlet_moment(alpha, ks)
            var = dirichlet_moment(alpha, [2 * k for k in ks]) - mean * mean
            worst = max(worst, abs(total / draws - float(mean)) / math.sqrt(float(var) / draws))
    return float(worst)


def one_sum_check(alpha: HyperParams, x: Dist) -> tuple[Fraction, Fraction]:
    """Both sides of the two-coordinate aggregation identity, exactly.

    lhs: the density with the first two pseudo-counts merged, at x (a point
    of the open (n-1)-outcome simplex, a full-support Dist).  rhs: the
    integral over y in (0, s), s = x[0], of the original density at (y, s -
    y, x[1], ...).  With a, b the first two pseudo-counts, the integrand is a
    constant times y**(a-1) * (s-y)**(b-1); expanding (s-y)**(b-1) by the
    binomial theorem leaves powers of y, each integrated on [0, s] exactly.
    The law says the two are equal.
    """
    if alpha.n < 2:
        raise ValueError("need at least two pseudo-counts to merge")
    merged = ms_map(FinMap((0, *range(alpha.n - 1)), alpha.n - 1), alpha)
    lhs = dirichlet_pdf(merged, x)  # refuses x unless it is a point of the open simplex

    (a, b), s = alpha.counts[:2], x[0]
    # (s-y)**(b-1) = sum_k C(b-1, k) s**(b-1-k) (-y)**k, and y**(a-1+k) on [0, s]
    # integrates to s**(a+k) / (a+k).
    fibre = sum(Fraction((-1) ** k * math.comb(b - 1, k), a + k) * s ** (b - 1 - k) * s ** (a + k)
                for k in range(b))
    rest = math.prod(v ** (c - 1) for v, c in zip(x.probs[1:], alpha.counts[2:]))
    return lhs, dirichlet_normalizer(alpha) * fibre * rest

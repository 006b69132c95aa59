"""Dirichlet densities with integer pseudo-count parameters, plus the
quadrature and sampling machinery used to verify their laws numerically.

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
1e-3 normalisation checks this package runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dist import Dist
from .finset import FinMap, Multiset, ms_map_full

MAX_QUADRATURE_DIM = 4  # desk-scale cap on the number of outcomes
# Cap on the cells of one quadrature grid.  A grid at the cap holds up to
# 84 MB of points and weights (n = 4), and building it peaks near 300 MB.
MAX_QUADRATURE_CELLS = 1 << 21


@dataclass(frozen=True)
class HyperParams:
    """Strictly positive integer pseudo-counts parameterising a Dirichlet."""

    alphas: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(int(a) for a in self.alphas))
        if not self.alphas:
            raise ValueError("need at least one pseudo-count")
        for i, a in enumerate(self.alphas):
            if a < 1:
                raise ValueError(f"pseudo-count {a} at index {i} must be >= 1")

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def total(self) -> int:
        return sum(self.alphas)

    def __getitem__(self, i: int) -> int:
        return self.alphas[i]

    def increment(self, i: int) -> HyperParams:
        """A copy with the i-th pseudo-count raised by one."""
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} outside range of size {self.n}")
        return HyperParams(
            tuple(a + 1 if j == i else a for j, a in enumerate(self.alphas))
        )

    def as_multiset(self) -> Multiset:
        return Multiset(self.alphas)


def gamma_nat(k: int) -> int:
    """The Gamma function on positive integers: (k-1)!, exactly."""
    if k < 1:
        raise ValueError("gamma_nat is defined on positive integers only")
    return math.factorial(k - 1)


def dirichlet_normalizer(alpha: HyperParams) -> Fraction:
    """Gamma(sum alphas) / prod Gamma(alpha_i) as an exact rational."""
    den = 1
    for a in alpha.alphas:
        den *= gamma_nat(a)
    return Fraction(gamma_nat(alpha.total), den)


def simplex_rows(xs: np.ndarray, n: int) -> np.ndarray:
    """xs as an (N, n) float array whose rows are open-simplex points.

    Raises ValueError unless every coordinate lies in (0, 1] and every row
    sums to 1 within 1e-12.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != n:
        raise ValueError(f"expected an (N, {n}) array of points, got shape {xs.shape}")
    if not (xs > 0.0).all():
        raise ValueError("coordinates must be strictly positive")
    if (xs > 1.0).any():
        raise ValueError("a coordinate exceeds 1")
    sums = xs.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-12
    if bad.any():
        raise ValueError(f"coordinates sum to {sums[bad][0]}, not 1")
    return xs


def dirichlet_pdf_many(alpha: HyperParams, xs: np.ndarray) -> np.ndarray:
    """Density of Dirichlet(alpha) at each row of an (N, n) coordinate array."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != alpha.n:
        raise ValueError(f"expected an (N, {alpha.n}) array, got shape {xs.shape}")
    exponents = np.array(alpha.alphas, dtype=float) - 1.0
    return float(dirichlet_normalizer(alpha)) * np.prod(xs ** exponents, axis=1)


@dataclass(frozen=True)
class SimplexDensity:
    """A non-negative density on the open simplex, evaluable on point arrays.

    `dirichlet_params` is set when the density is known to equal a Dirichlet
    with those parameters.
    """

    n: int
    dirichlet_params: HyperParams | None
    _eval_many: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self._eval_many(np.asarray(xs, dtype=float)), dtype=float)


def dirichlet_density(alpha: HyperParams) -> SimplexDensity:
    return SimplexDensity(
        n=alpha.n,
        dirichlet_params=alpha,
        _eval_many=lambda xs: dirichlet_pdf_many(alpha, xs),
    )


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


def simplex_cells(n: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation points (N, n) and weights (N,) tiling the n-outcome simplex.

    Weights are clipped cell volumes in the projected coordinates; points
    are cell centroids completed with the implied last coordinate.  The
    weights sum to the exact simplex volume 1/(n-1)!.  Grids are cached and
    returned read-only; copy before mutating.  Raises ValueError, before
    allocating anything, when the grid would exceed MAX_QUADRATURE_CELLS.
    """
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
    return _cells_cached(n, resolution)


@lru_cache(maxsize=8)
def _cells_cached(n: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    d = n - 1
    res = resolution

    # Extend each cell, one projected coordinate at a time, with every next
    # index k such that the indices still sum to at most res-1.
    cells = np.zeros((1, 0), dtype=np.int64)
    for _ in range(d):
        counts = res - cells.sum(axis=1)
        base = np.repeat(cells, counts, axis=0)
        ends = np.cumsum(counts)
        k = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        cells = np.column_stack([base, k])

    slack = res - cells.sum(axis=1)
    offsets = np.full(len(cells), 0.5)
    fracs = np.ones(len(cells))
    for t, (frac, centroid) in _CLIP.get(d, {}).items():
        partial = slack == t
        offsets[partial] = float(centroid)
        fracs[partial] = float(frac)
    firsts = (cells + offsets[:, None]) / res
    weights = fracs / res**d

    last = 1.0 - firsts.sum(axis=1)
    points = np.column_stack([firsts, last])
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


def simplex_quadrature(f, n: int, resolution: int) -> float:
    """Deterministic cell-rule integral of f over the n-outcome simplex.

    `f` maps an (N, n) coordinate array to its (N,) values.  Cells are
    summed in a fixed construction order.
    """
    points, weights = simplex_cells(n, resolution)
    return float(weights @ np.asarray(f(points), dtype=float))


def dirichlet_sample_many(
    alpha: HyperParams, size: int, rng: np.random.Generator
) -> np.ndarray:
    """(size, n) array of Dirichlet(alpha) draws.

    Each coordinate's Gamma variate with integer shape a_i is drawn as the
    sum of a_i independent standard exponentials, which is exact for
    integer shapes; the row is then normalised by its sum.
    """
    if size < 1:
        raise ValueError("need at least one draw")
    exps = rng.standard_exponential((size, alpha.total))
    starts = np.cumsum((0,) + alpha.alphas)[:-1]
    gammas = np.add.reduceat(exps, starts, axis=1)
    return gammas / gammas.sum(axis=1, keepdims=True)


def dirichlet_mean(alpha: HyperParams) -> Dist:
    """The mean alpha_i / sum(alpha), exactly; equal to normalising alpha."""
    return Dist(tuple(Fraction(a, alpha.total) for a in alpha.alphas))


def dirichlet_covariance(alpha: HyperParams) -> tuple[tuple[Fraction, ...], ...]:
    """Exact covariance matrix of Dirichlet(alpha) (textbook moments)."""
    a = alpha.total
    scale = a * a * (a + 1)
    return tuple(
        tuple(
            Fraction(ai * (a - ai), scale) if i == j else Fraction(-ai * aj, scale)
            for j, aj in enumerate(alpha.alphas)
        )
        for i, ai in enumerate(alpha.alphas)
    )


def aggregate_params(h: FinMap, alpha: HyperParams) -> HyperParams:
    """Merge pseudo-counts along a surjective index map by summing fibres."""
    merged = ms_map_full(h, alpha.as_multiset())
    return HyperParams(merged.counts)


def push_coords(h: FinMap, xs: np.ndarray) -> np.ndarray:
    """Push simplex points along h by summing coordinate fibres.

    Rows of xs are points over h's domain; rows of the result are points
    over its codomain.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != h.domain_size:
        raise ValueError(f"expected an (N, {h.domain_size}) array, got shape {xs.shape}")
    out = np.zeros((xs.shape[0], h.codomain_size))
    for x, y in enumerate(h.targets):
        out[:, y] += xs[:, x]
    return out


def one_sum_check(
    alpha: HyperParams, x: Sequence[float], resolution: int
) -> tuple[float, float]:
    """Compare both sides of the two-coordinate aggregation identity.

    lhs: density with the first two pseudo-counts merged, at x (the
    coordinates of a point of the (n-1)-outcome simplex).  rhs:
    midpoint-rule integral over y in (0, x[0]) of the original density at
    (y, x[0]-y, x[1], ...).  The two agree up to quadrature error.
    """
    if alpha.n < 2:
        raise ValueError("need at least two pseudo-counts to merge")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    x = simplex_rows([x], alpha.n - 1)

    merged = HyperParams((alpha.alphas[0] + alpha.alphas[1],) + alpha.alphas[2:])
    lhs = float(dirichlet_pdf_many(merged, x)[0])

    x1 = x[0, 0]
    step = x1 / resolution
    ys = (np.arange(resolution) + 0.5) * step
    rest = np.tile(x[0, 1:], (resolution, 1))
    pts = np.column_stack([ys, x1 - ys, rest])
    rhs = float(dirichlet_pdf_many(alpha, pts).sum() * step)
    return lhs, rhs

"""Frequentist learning: normalising count vectors into distributions.

The central map sends a non-empty count vector (a1..an) to the empirical
distribution (a1/a .. an/a) with a = sum(ai).  It maximises the likelihood
prod_i w(i)^phi(i), commutes with pushforward along arbitrary index maps,
and turns row extraction of a count table into channel extraction of the
normalised joint distribution.  All of that is exact-rational and tested
with zero tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .dist import Channel, Dist, state_transform
from .finset import FinMap, Multiset, ZeroRowError, ms_map, row_extract


def mle(phi: Multiset) -> Dist:
    """Normalise a count vector with a positive total into its empirical
    distribution; `Dist.normalise` refuses a zero total."""
    return Dist.normalise(phi.counts)


def likelihood(phi: Multiset, omega: Dist) -> Fraction:
    """prod_i omega(i)^phi(i), the probability of observing the counts phi.

    With omega(i) = w_i / total it is prod_i w_i^phi(i) / total^sum(phi),
    one Fraction.  Empty products (all-zero phi, or a zero count against any
    probability) contribute 1, i.e. 0**0 == 1.
    """
    if omega.n != phi.n:
        raise ValueError(f"size mismatch: counts over {phi.n}, distribution over {omega.n}")
    num = math.prod(w**c for w, c in zip(omega.weights, phi.counts))
    return Fraction(num, omega.total ** phi.total())


def mle_decompose(phi: Multiset, m: int) -> tuple[Dist, Channel]:
    """Learn (input distribution, channel) directly from a count table with
    rows of length m.

    The input distribution normalises the row totals (`ms_map` along
    `FinMap.proj1`) and each channel row its row (`row_extract`); an
    all-zero row raises ZeroRowError naming it.  This agrees exactly with
    normalising the table and then disintegrating.
    """
    rows = row_extract(phi, m)
    for i, row in enumerate(rows):
        if not row.total():
            raise ZeroRowError(i)
    return mle(ms_map(FinMap.proj1(len(rows), m), phi)), Channel(tuple(map(mle, rows)))


@dataclass(frozen=True)
class MonadCounterexample:
    """Two composites on a fixed nested multiset that fail to agree.

    Normalisation commutes with pushforward but not with flattening: merging
    the counts first and then normalising differs from normalising inner and
    outer layers first and then mixing.
    """

    flatten_then_normalize: Dist
    normalize_then_flatten: Dist

    @property
    def differ(self) -> bool:
        return self.flatten_then_normalize != self.normalize_then_flatten


# Fixed nested multiset over outcomes {a,b,c} -> {0,1,2}: one copy of the
# inner multiset 2|a> + 4|c> and two copies of 1|a> + 1|b> + 1|c>.
_NESTED: tuple[tuple[int, Multiset], ...] = (
    (1, Multiset((2, 0, 4))),
    (2, Multiset((1, 1, 1))),
)


def monad_counterexample() -> MonadCounterexample:
    """Evaluate both composites on the fixed nested multiset.

    Flatten-then-normalise merges to 4|0> + 2|1> + 6|2> and yields
    (1/3, 1/6, 1/2); normalise-then-flatten mixes the inner empirical
    distributions with outer weights (1/3, 2/3) and yields (1/3, 2/9, 4/9).
    """
    copies = [inner for weight, inner in _NESTED for _ in range(weight)]
    route_a = mle(functools.reduce(Multiset.__add__, copies))
    inner_dists = Channel(tuple(mle(inner) for _, inner in _NESTED))
    route_b = state_transform(inner_dists, mle(Multiset(tuple(w for w, _ in _NESTED))))

    result = MonadCounterexample(route_a, route_b)
    assert result.differ, "the two composites unexpectedly coincide"
    return result

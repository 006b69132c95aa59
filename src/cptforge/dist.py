"""Discrete probability distributions with exact rational entries.

A distribution with rational entries is the normalisation of exactly one
multiset whose counts share no common factor.  So a Dist holds that
multiset: coprime integer `weights` over their `total`, entry i being
weights[i]/total, with `probs`, the entries as `fractions.Fraction`s,
derived on first use.  `Dist.normalise` is the normalisation map, the one
`mle` applies to a count vector.  Every kernel computes on integers and
normalises its result once, so every identity in this layer holds with zero
tolerance.  Predicates carry Fractions; no kernel or law converts to
binary64 (only `LocalUpdateAudit.format_report` prints floats, for display).

A joint distribution is a Dist over the row-major product n*m (see finset),
the only 2-D form: its marginals are dist_map along FinMap.proj1/proj2, and
disintegrate takes the row length m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .finset import FinMap, index_below, integer_tuple, row_count

ONE = Fraction(1)
ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, init=False, repr=False)
class Dist:
    """A probability vector over {0..n-1}: entry i is weights[i] / total.

    The weights are non-negative integers with gcd 1 that sum to total, so
    the form is canonical: two Dists are equal exactly when their entries
    are.  `Dist(probs)` takes the entries; `Dist.normalise` takes weights.
    """

    weights: tuple[int, ...]
    total: int

    def __init__(self, probs: Iterable):
        probs = tuple(_frac(p) for p in probs)
        if not probs:
            raise ValueError("distribution over empty index set")
        # Both tests are on integers (a Fraction's denominator is positive):
        # 0 <= numerator <= denominator, and the numerators over the lcm L of
        # the denominators add up to L.
        for k, p in enumerate(probs):
            if not 0 <= p.numerator <= p.denominator:
                raise ValueError(f"probability {p} at index {k} outside [0,1]")
        common = math.lcm(*(p.denominator for p in probs))
        weights = tuple(p.numerator * (common // p.denominator) for p in probs)
        if sum(weights) != common:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")
        # Already coprime: a prime dividing every weight divides their sum L,
        # so it divides the denominator that holds its full power in L, and
        # then that entry's numerator, which a reduced Fraction's cannot.
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total", common)
        self.__dict__["probs"] = probs  # the cached entries, already at hand

    @staticmethod
    def normalise(weights: Iterable) -> Dist:
        """The normalisation map: the distribution weights[i] / sum(weights)
        of non-negative integer weights with a positive sum, held as the
        weights divided by their gcd.
        """
        weights = integer_tuple(weights, "weight", 0)
        if not weights:
            raise ValueError("cannot normalise an empty weight vector")
        total = sum(weights)
        if total == 0:
            raise ValueError("cannot normalise weights that sum to zero")
        return _normalised(weights, total)

    @functools.cached_property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.total) for w in self.weights)

    def __repr__(self) -> str:
        return f"Dist(probs={self.probs!r})"

    @property
    def n(self) -> int:
        return len(self.weights)

    def has_full_support(self) -> bool:
        return all(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.probs[i]

    @staticmethod
    def point(n: int, i: int) -> Dist:
        """The point mass at index i."""
        i = index_below(i, n)
        return Dist.normalise([1 if j == i else 0 for j in range(n)])


def _normalised(weights, total: int) -> Dist:
    """The Dist of non-negative integer weights summing to total > 0, divided
    by their gcd.  The kernels' one normalisation; it trusts its caller.
    """
    g = math.gcd(*weights)
    weights = tuple(w // g for w in weights) if g > 1 else tuple(weights)
    omega = object.__new__(Dist)
    object.__setattr__(omega, "weights", weights)
    object.__setattr__(omega, "total", total // g)
    return omega


@dataclass(frozen=True)
class Predicate:
    """A fuzzy predicate: one value in [0,1] per index."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(_frac(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("predicate over empty index set")
        for i, v in enumerate(values):
            if v < 0 or v > 1:
                raise ValueError(f"predicate value {v} at index {i} outside [0,1]")

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __mul__(self, other: Predicate) -> Predicate:
        if other.n != self.n:
            raise ValueError("size mismatch in predicate product")
        return Predicate(tuple(a * b for a, b in zip(self.values, other.values)))

    def is_point(self) -> bool:
        """True when the predicate is the indicator of a single index."""
        return sum(1 for v in self.values if v == 1) == 1 and all(
            v in (ZERO, ONE) for v in self.values
        )

    def point_index(self) -> int:
        if not self.is_point():
            raise ValueError("not a point predicate")
        return self.values.index(ONE)

    @staticmethod
    def point(n: int, i: int) -> Predicate:
        i = index_below(i, n)
        return Predicate(tuple(ONE if j == i else ZERO for j in range(n)))


@dataclass(frozen=True)
class Channel:
    """A conditional probability table: one distribution per input index."""

    rows: tuple[Dist, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("channel with empty domain")
        m = self.rows[0].n
        for i, row in enumerate(self.rows):
            if row.n != m:
                raise ValueError(f"ragged channel: row {i} has size {row.n} != {m}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return self.rows[0].n

    def __call__(self, x: int) -> Dist:
        return self.rows[x]

    @staticmethod
    def deterministic(h: FinMap) -> Channel:
        """The channel sending x to the point mass at h(x)."""
        return Channel(tuple(Dist.point(h.codomain_size, h(x)) for x in range(h.domain_size)))


def dist_map(h: FinMap, omega: Dist) -> Dist:
    """Push a distribution forward along h; for projections this marginalises.

    Each fibre's weights are summed; the total is unchanged.
    """
    if omega.n != h.domain_size:
        raise ValueError(f"size mismatch: distribution over {omega.n}, map domain {h.domain_size}")
    out = [0] * h.codomain_size
    for y, w in zip(h.targets, omega.weights):
        out[y] += w
    return _normalised(out, omega.total)


def _row_factors(c: Channel, omega: Dist) -> tuple[list[int], int]:
    """The factor omega.weights[x] * (L // total of row x) of each channel
    row, L the lcm of the row totals, and the joint total omega.total * L:
    the joint weight of (x, y) is then factor[x] * c(x).weights[y].
    """
    if omega.n != c.n:
        raise ValueError(f"size mismatch: distribution over {omega.n}, channel domain {c.n}")
    common = math.lcm(*(row.total for row in c.rows))
    factors = [w * (common // row.total) for w, row in zip(omega.weights, c.rows)]
    return factors, omega.total * common


def state_transform(c: Channel, omega: Dist) -> Dist:
    """Push omega through the channel: result[y] = sum_x c(x)(y) * omega(x)."""
    factors, total = _row_factors(c, omega)
    out = [0] * c.m
    for f, row in zip(factors, c.rows):
        if f:
            for y, q in enumerate(row.weights):
                out[y] += f * q
    return _normalised(out, total)


def disintegrate(omega: Dist, m: int) -> tuple[Dist, Channel]:
    """Split a joint distribution with rows of length m into its first
    marginal and a channel.

    The channel entry c(x)(y) is the conditional probability
    omega(x,y) / first(x); it exists only when the first marginal has full
    support.  Together with the marginal it reconstructs omega via
    pair_graph, and it is the unique channel doing so.  Row x of the channel
    normalises row x of the weights.
    """
    row_count(omega.n, m)  # refuses an m that does not divide the table
    rows = [omega.weights[k : k + m] for k in range(0, omega.n, m)]
    sums = [sum(row) for row in rows]
    for x, s in enumerate(sums):
        if s == 0:
            raise ValueError(f"first marginal vanishes at index {x}; no conditional exists")
    channel = Channel(tuple(_normalised(row, s) for row, s in zip(rows, sums)))
    return _normalised(sums, omega.total), channel


def pair_graph(c: Channel, omega: Dist) -> Dist:
    """Couple an input distribution with a channel: (x, y) -> omega(x)*c(x)(y).

    The result is a joint distribution over the row-major product c.n * c.m.
    """
    factors, total = _row_factors(c, omega)
    return _normalised([f * q for f, row in zip(factors, c.rows) for q in row.weights], total)


def _weighted(omega: Dist, p: Predicate) -> tuple[list[int], int]:
    """omega(x) * p(x) as integers over one denominator: omega's weights times
    the predicate's values over the lcm L of their denominators, and the
    denominator omega.total * L.
    """
    if p.n != omega.n:
        raise ValueError(f"size mismatch: distribution over {omega.n}, predicate over {p.n}")
    common = math.lcm(*(v.denominator for v in p.values))
    products = [w * v.numerator * (common // v.denominator)
                for w, v in zip(omega.weights, p.values)]
    return products, omega.total * common


def validity(omega: Dist, p: Predicate) -> Fraction:
    """The expected value of the predicate p under omega."""
    products, total = _weighted(omega, p)
    return Fraction(sum(products), total)


def condition(omega: Dist, p: Predicate) -> Dist:
    """Update omega with evidence p: result(x) = omega(x)*p(x) / validity.

    Undefined (raises) when the validity of p is zero.
    """
    products, _ = _weighted(omega, p)
    mass = sum(products)
    if mass == 0:
        raise ValueError("cannot condition on a predicate with zero validity")
    return _normalised(products, mass)

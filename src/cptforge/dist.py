"""Discrete probability distributions with exact rational entries.

Distributions, channels (row-stochastic matrices) and predicates all carry
`fractions.Fraction` values, so every identity in this layer holds with zero
tolerance.  Conversion to binary64 happens only at the continuous boundary.

A joint distribution is a Dist over the row-major product n*m (see finset),
the only 2-D form: its marginals are dist_map along FinMap.proj1/proj2, and
disintegrate takes the row length m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .finset import FinMap, row_count

ONE = Fraction(1)
ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Dist:
    """A probability vector over {0..n-1}; entries sum to exactly 1."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = tuple(_frac(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if not probs:
            raise ValueError("distribution over empty index set")
        # Both tests are on integers (a Fraction's denominator is positive):
        # 0 <= numerator <= denominator, and the numerators over the lcm L of
        # the denominators add up to L.
        for k, p in enumerate(probs):
            if not 0 <= p.numerator <= p.denominator:
                raise ValueError(f"probability {p} at index {k} outside [0,1]")
        common = math.lcm(*(p.denominator for p in probs))
        if sum(p.numerator * (common // p.denominator) for p in probs) != common:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")

    @property
    def n(self) -> int:
        return len(self.probs)

    def has_full_support(self) -> bool:
        return all(p > 0 for p in self.probs)

    def __getitem__(self, i: int) -> Fraction:
        return self.probs[i]

    @staticmethod
    def point(n: int, i: int) -> Dist:
        """The point mass at index i."""
        if not 0 <= i < n:
            raise ValueError(f"index {i} outside range of size {n}")
        return Dist(tuple(ONE if j == i else ZERO for j in range(n)))


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
        if not 0 <= i < n:
            raise ValueError(f"index {i} outside range of size {n}")
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
    """Push a distribution forward along h; for projections this marginalises."""
    if omega.n != h.domain_size:
        raise ValueError(f"size mismatch: distribution over {omega.n}, map domain {h.domain_size}")
    out = [ZERO] * h.codomain_size
    for x, p in enumerate(omega.probs):
        out[h.targets[x]] += p
    return Dist(tuple(out))


def state_transform(c: Channel, omega: Dist) -> Dist:
    """Push omega through the channel: result[y] = sum_x c(x)(y) * omega(x)."""
    if omega.n != c.n:
        raise ValueError(f"size mismatch: distribution over {omega.n}, channel domain {c.n}")
    out = [ZERO] * c.m
    for x, p in enumerate(omega.probs):
        if p == 0:
            continue
        for y, q in enumerate(c.rows[x].probs):
            out[y] += p * q
    return Dist(tuple(out))


def disintegrate(omega: Dist, m: int) -> tuple[Dist, Channel]:
    """Split a joint distribution with rows of length m into its first
    marginal and a channel.

    The channel entry c(x)(y) is the conditional probability
    omega(x,y) / first(x); it exists only when the first marginal has full
    support.  Together with the marginal it reconstructs omega via
    pair_graph, and it is the unique channel doing so.
    """
    first = dist_map(FinMap.proj1(row_count(omega.n, m), m), omega)
    for x, p in enumerate(first.probs):
        if p == 0:
            raise ValueError(f"first marginal vanishes at index {x}; no conditional exists")
    rows = tuple(
        Dist(tuple(p / q for p in omega.probs[x * m : (x + 1) * m]))
        for x, q in enumerate(first.probs)
    )
    return first, Channel(rows)


def pair_graph(c: Channel, omega: Dist) -> Dist:
    """Couple an input distribution with a channel: (x, y) -> omega(x)*c(x)(y).

    The result is a joint distribution over the row-major product c.n * c.m.
    """
    if omega.n != c.n:
        raise ValueError(f"size mismatch: distribution over {omega.n}, channel domain {c.n}")
    return Dist(tuple(p * q for p, row in zip(omega.probs, c.rows) for q in row.probs))


def validity(omega: Dist, p: Predicate) -> Fraction:
    """The expected value of the predicate p under omega."""
    if p.n != omega.n:
        raise ValueError(f"size mismatch: distribution over {omega.n}, predicate over {p.n}")
    return sum((w * v for w, v in zip(omega.probs, p.values)), start=ZERO)


def condition(omega: Dist, p: Predicate) -> Dist:
    """Update omega with evidence p: result(x) = omega(x)*p(x) / validity.

    Undefined (raises) when the validity of p is zero.
    """
    v = validity(omega, p)
    if v == 0:
        raise ValueError("cannot condition on a predicate with zero validity")
    return Dist(tuple(w * q / v for w, q in zip(omega.probs, p.values)))

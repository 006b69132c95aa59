"""Count vectors over finite index sets and their structure-preserving maps.

Index sets are contiguous 0-based integer ranges.  A product index set of
shape (n, m) is flattened row-major: (i, j) -> i*m + j.  That flattening is
the only 2-D form in this package: a count table is a Multiset over n*m,
FinMap.proj1/proj2 are its projections, and a table is split into its rows
by `row_extract` and its row totals by `ms_map` along proj1.

A multiset in which every index occurs is full-support, as the Dirichlet's
pseudo-counts, `dirichlet.HyperParams`, are.  `+`, `ms_map` and `row_extract`
keep their argument's type, so `alpha + data` is a Bayesian update and
`ms_map` along a surjection is M*.  `multisets(n, K)` enumerates M[K], the
multisets of total K over {0..n-1}: every law that ranges over fixed-size
count vectors (a likelihood grid, pseudo-counts, moment exponents) takes
them from it.  A count, size or row length that is not a Python or numpy
integer is refused, not truncated; all values are immutable.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations_with_replacement


class ZeroRowError(ValueError):
    """A 2-D count table has an all-zero row where a positive one is required."""

    def __init__(self, row: int):
        super().__init__(f"row {row} has zero total count")
        self.row = row


def integer_tuple(values, noun: str, least: int | None = None) -> tuple[int, ...]:
    """The values as Python ints, each at least `least` if it is given.
    `operator.index` admits exactly the integer types, Python's and numpy's;
    a float, a Fraction or a string is refused, named by its repr and index,
    rather than truncated, and so is the first value below `least`."""
    values = tuple(values)
    try:
        ints = tuple(map(operator.index, values))
    except TypeError:
        i = next(i for i, v in enumerate(values) if not hasattr(type(v), "__index__"))
        raise ValueError(f"{noun} {values[i]!r} at index {i} is not an integer") from None
    if least is not None and ints and min(ints) < least:
        i = next(i for i, v in enumerate(ints) if v < least)
        raise ValueError(f"{noun} {ints[i]} at index {i} must be at least {least}")
    return ints


def integer(v, noun: str) -> int:
    """v as a Python int; a ValueError names it unless it is an integer."""
    if not hasattr(type(v), "__index__"):
        raise ValueError(f"{noun} {v!r} is not an integer")
    return operator.index(v)


def index_below(i, n: int) -> int:
    """i as a Python int; a ValueError names it unless it is an integer in 0..n-1."""
    if hasattr(type(i), "__index__") and 0 <= i < n:
        return operator.index(i)
    raise ValueError(f"index {i!r} is not one of 0..{n - 1}")


@dataclass(frozen=True)
class FinMap:
    """A function {0..n-1} -> {0..m-1} between finite index sets."""

    targets: tuple[int, ...]
    codomain_size: int

    def __post_init__(self):
        object.__setattr__(self, "targets", integer_tuple(self.targets, "image"))
        object.__setattr__(self, "codomain_size", integer(self.codomain_size, "codomain size"))
        if self.codomain_size < 1:
            raise ValueError("codomain must be non-empty")
        if not self.targets:
            raise ValueError("domain must be non-empty")
        for x, y in enumerate(self.targets):
            if not 0 <= y < self.codomain_size:
                raise ValueError(
                    f"image {y} of index {x} is outside codomain of size"
                    f" {self.codomain_size}"
                )

    @property
    def domain_size(self) -> int:
        return len(self.targets)

    def __call__(self, x: int) -> int:
        return self.targets[x]

    def after(self, other: FinMap) -> FinMap:
        """Composite self . other (apply `other` first)."""
        if other.codomain_size != self.domain_size:
            raise ValueError("composition mismatch: codomain != domain")
        return FinMap(tuple(self.targets[y] for y in other.targets), self.codomain_size)

    @staticmethod
    def identity(n: int) -> FinMap:
        return FinMap(tuple(range(n)), n)

    @staticmethod
    def proj1(n: int, m: int) -> FinMap:
        """First projection n*m -> n of the row-major product index."""
        return FinMap(tuple(k // m for k in range(n * m)), n)

    @staticmethod
    def proj2(n: int, m: int) -> FinMap:
        """Second projection n*m -> m of the row-major product index."""
        return FinMap(tuple(k % m for k in range(n * m)), m)


@dataclass(frozen=True)
class Multiset:
    """A count vector: how often each index of {0..n-1} occurs."""

    counts: tuple[int, ...]
    # What an entry is called, and its least value; a subclass narrows them.
    _noun = "count"
    _least = 0

    def __post_init__(self):
        object.__setattr__(self, "counts", integer_tuple(self.counts, self._noun, self._least))
        if not self.counts:
            raise ValueError("index set must be non-empty")

    @property
    def n(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __add__(self, other: Multiset) -> Multiset:
        """The sum, of self's type: pseudo-counts plus data are pseudo-counts."""
        if other.n != self.n:
            raise ValueError("size mismatch in multiset sum")
        return type(self)(tuple(a + b for a, b in zip(self.counts, other.counts)))


def multisets(n: int, size: int) -> Iterator[Multiset]:
    """M[size] over {0..n-1}: every Multiset of total `size`, once each, in
    the order combinations_with_replacement(range(n), size) draws them.
    There are C(n + size - 1, size) of them."""
    n, size = integer(n, "index set size"), integer(size, "multiset size")
    if n < 1 or size < 0:
        raise ValueError(f"need n >= 1 and size >= 0, got n={n}, size={size}")
    return (Multiset(tuple(map(draw.count, range(n))))
            for draw in combinations_with_replacement(range(n), size))


def ms_map(h: FinMap, phi: Multiset) -> Multiset:
    """Push counts forward along h: result[y] = sum of phi[x] over h(x)=y.

    The total count is preserved; for a projection this is marginalisation
    of a count table.  The result has phi's type, so pseudo-counts stay pseudo-counts.
    """
    if phi.n != h.domain_size:
        raise ValueError(f"size mismatch: multiset over {phi.n}, map domain {h.domain_size}")
    out = [0] * h.codomain_size
    for x, c in enumerate(phi.counts):
        out[h.targets[x]] += c
    return type(phi)(tuple(out))


def row_count(size: int, m: int) -> int:
    """The number of rows of length m in a table of `size` cells."""
    m = integer(m, "row length")
    if m < 1 or size % m:
        raise ValueError(f"row length {m} does not divide table size {size}")
    return size // m


def row_extract(phi: Multiset, m: int) -> tuple[Multiset, ...]:
    """Slice a count table with rows of length m into its rows, of phi's type.

    With `ms_map` along `FinMap.proj1`, the row totals, this is the one split
    of a table.  Nothing is normalised, so a row may be all zero.
    """
    row_count(phi.n, m)
    return tuple(type(phi)(phi.counts[k : k + m]) for k in range(0, phi.n, m))


def ms_tensor(phi: Multiset, psi: Multiset) -> Multiset:
    """Outer product of two count vectors over phi.n * psi.n: (i, j) -> phi[i]*psi[j]."""
    return Multiset(tuple(a * b for a in phi.counts for b in psi.counts))

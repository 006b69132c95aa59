"""The integer kernels of `dist`, `mle` and `dirichlet` against the Fraction
arithmetic they replace, with zero tolerance, and the canonical form of a
`Dist`: coprime integer weights over their total.

Each `ref_*` function is the Fraction expression the kernel used to
evaluate, entry by entry.
"""

import copy
import itertools
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cptforge.dirichlet import HyperParams
from cptforge.dist import (
    Channel,
    Dist,
    Predicate,
    condition,
    disintegrate,
    dist_map,
    pair_graph,
    state_transform,
    validity,
)
from cptforge.finset import FinMap, Multiset, multisets
from cptforge.mle import likelihood, mle


def ref_normalise(counts):
    return tuple(F(c, sum(counts)) for c in counts)


def ref_dist_map(h, omega):
    out = [F(0)] * h.codomain_size
    for x, p in enumerate(omega.probs):
        out[h(x)] += p
    return tuple(out)


def ref_state_transform(c, omega):
    return tuple(sum((p * row[y] for p, row in zip(omega.probs, c.rows)), F(0)) for y in range(c.m))


def ref_pair_graph(c, omega):
    return tuple(p * q for p, row in zip(omega.probs, c.rows) for q in row.probs)


def ref_disintegrate(omega, m):
    first = ref_dist_map(FinMap.proj1(omega.n // m, m), omega)
    return first, tuple(tuple(p / q for p in omega.probs[x * m : (x + 1) * m])
                        for x, q in enumerate(first))


def ref_validity(omega, p):
    return sum((w * v for w, v in zip(omega.probs, p.values)), F(0))


def ref_condition(omega, p):
    v = ref_validity(omega, p)
    return tuple(w * q / v for w, q in zip(omega.probs, p.values))


def ref_likelihood(phi, omega):
    return math.prod((p**c for c, p in zip(phi.counts, omega.probs) if c), start=F(1))


def ref_simplex_grid(n, denominator):
    return [tuple(F(c, denominator) for c in (*head, denominator - sum(head)))
            for head in itertools.product(range(denominator + 1), repeat=n - 1)
            if sum(head) <= denominator]


def assert_canonical(omega):
    assert all(w >= 0 for w in omega.weights)
    assert math.gcd(*omega.weights) == 1
    assert sum(omega.weights) == omega.total
    assert omega.probs == tuple(F(w, omega.total) for w in omega.weights)


weights_st = st.lists(st.integers(0, 9), min_size=1, max_size=4).filter(any)


@st.composite
def dists(draw, n=None, hi=9):
    """A Dist from either constructor: normalised weights, or its entries."""
    n = n if n is not None else draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, hi), min_size=n, max_size=n).filter(any))
    if draw(st.booleans()):
        return Dist.normalise(counts)
    return Dist(ref_normalise(counts))


@st.composite
def channels(draw, n, m):
    return Channel(tuple(draw(dists(m)) for _ in range(n)))


@st.composite
def predicates(draw, n):
    return Predicate(tuple(F(draw(st.integers(0, d)), d) for d in draw(
        st.lists(st.integers(1, 6), min_size=n, max_size=n))))


@st.composite
def maps_with_dist(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return FinMap(tuple(draw(st.integers(0, m - 1)) for _ in range(n)), m), draw(dists(n))


@st.composite
def channels_with_dist(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(channels(n, m)), draw(dists(n))


@st.composite
def dists_with_predicate(draw):
    omega = draw(dists())
    return omega, draw(predicates(omega.n))


@st.composite
def joints(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(dists(n * m)), m


class TestKernelsMatchFractionArithmetic:
    @given(maps_with_dist())
    def test_dist_map(self, case):
        h, omega = case
        got = dist_map(h, omega)
        assert got.probs == ref_dist_map(h, omega)
        assert_canonical(got)

    @given(channels_with_dist())
    def test_state_transform_and_pair_graph(self, case):
        c, omega = case
        for kernel, ref in ((state_transform, ref_state_transform), (pair_graph, ref_pair_graph)):
            got = kernel(c, omega)
            assert got.probs == ref(c, omega)
            assert_canonical(got)

    @given(joints())
    def test_disintegrate(self, case):
        omega, m = case
        try:
            want = ref_disintegrate(omega, m)
        except ZeroDivisionError:
            x = next(x for x in range(omega.n // m) if not any(omega.weights[x * m : (x + 1) * m]))
            with pytest.raises(ValueError) as err:
                disintegrate(omega, m)
            assert str(err.value) == f"first marginal vanishes at index {x}; no conditional exists"
            return
        first, channel = disintegrate(omega, m)
        assert (first.probs, tuple(row.probs for row in channel.rows)) == want
        for d in (first, *channel.rows):
            assert_canonical(d)

    @given(dists_with_predicate())
    def test_validity_and_condition(self, case):
        omega, p = case
        assert validity(omega, p) == ref_validity(omega, p)
        if ref_validity(omega, p) == 0:
            with pytest.raises(ValueError, match="cannot condition on a predicate with zero validity"):
                condition(omega, p)
            return
        got = condition(omega, p)
        assert got.probs == ref_condition(omega, p)
        assert_canonical(got)

    @given(weights_st, st.data())
    def test_mle_likelihood_and_mean(self, counts, data):
        phi = Multiset(tuple(counts))
        assert mle(phi).probs == ref_normalise(counts)
        assert_canonical(mle(phi))
        omega = data.draw(dists(len(counts)))
        seen = Multiset(tuple(data.draw(st.integers(0, 4)) for _ in counts))
        assert likelihood(seen, omega) == ref_likelihood(seen, omega)
        alpha = HyperParams(tuple(c + 1 for c in counts))
        assert mle(alpha).probs == ref_normalise(alpha.counts)

    @pytest.mark.parametrize("n,denominator", [(1, 4), (2, 6), (3, 12), (4, 5)])
    def test_simplex_grid(self, n, denominator):
        # M[denominator] comes in descending order, the reference ascending.
        grid = [mle(m) for m in multisets(n, denominator)]
        assert [d.probs for d in grid] == ref_simplex_grid(n, denominator)[::-1]
        for d in grid:
            assert_canonical(d)


class TestCanonicalForm:
    @given(dists(n=2, hi=3), dists(n=2, hi=3))
    def test_equal_exactly_when_entries_are(self, a, b):
        assert (a == b) == (a.probs == b.probs)
        if a == b:
            assert hash(a) == hash(b)

    @given(dists(), st.integers(1, 7))
    def test_both_constructors_agree(self, omega, k):
        for other in (Dist(omega.probs), Dist.normalise([w * k for w in omega.weights])):
            assert other == omega and hash(other) == hash(omega)
            assert (other.weights, other.total) == (omega.weights, omega.total)

    def test_entries_are_coprime_weights_over_total(self):
        omega = Dist((F(1, 4), F(1, 6), F(7, 12)))
        assert (omega.weights, omega.total) == ((3, 2, 7), 12)
        assert Dist.normalise((6, 4, 14)) == omega


class TestDistApi:
    @pytest.mark.parametrize(
        "weights,message",
        [
            ((), "cannot normalise an empty weight vector"),
            ((1, -1), "weight -1 at index 1 must be at least 0"),
            ((0, 0), "cannot normalise weights that sum to zero"),
            ((1, 1.5), "weight 1.5 at index 1 is not an integer"),
        ],
    )
    def test_normalise_refuses(self, weights, message):
        with pytest.raises(ValueError) as err:
            Dist.normalise(weights)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["weights", "total", "probs"])
    def test_frozen(self, name):
        omega = Dist.normalise((1, 2))
        with pytest.raises(FrozenInstanceError):
            setattr(omega, name, None)

    @pytest.mark.parametrize("cached", [False, True])
    def test_pickle_and_deepcopy(self, cached):
        omega = Dist.normalise((2, 0, 5))
        if cached:
            omega.probs
        for copied in (pickle.loads(pickle.dumps(omega)), copy.deepcopy(omega)):
            assert copied == omega and copied.probs == omega.probs

    def test_repr(self):
        text = "Dist(probs=(Fraction(1, 3), Fraction(0, 1), Fraction(2, 3)))"
        assert repr(Dist.normalise((1, 0, 2))) == text
        assert repr(Dist((F(1, 3), 0, F(2, 3)))) == text

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cptforge.dist import Dist
from cptforge.finset import Multiset
from cptforge.mle import likelihood, mle, mle_decompose


@st.composite
def nonempty_multiset(draw):
    n = draw(st.integers(1, 6))
    counts = [draw(st.integers(0, 9)) for _ in range(n)]
    if sum(counts) == 0:
        counts[draw(st.integers(0, n - 1))] = draw(st.integers(1, 9))
    return Multiset(tuple(counts))


class TestMle:
    def test_row_totals(self):
        assert mle(Multiset((70, 30))).probs == (F(7, 10), F(3, 10))

    def test_single_outcome(self):
        assert mle(Multiset((17,))).probs == (F(1),)

    def test_empty_rejected(self):
        # One refusal, Dist.normalise's: mle adds no check of its own.
        with pytest.raises(ValueError, match="^cannot normalise weights that sum to zero$"):
            mle(Multiset((0, 0)))

    @given(nonempty_multiset())
    def test_full_support_iff_counts_full_support(self, phi):
        assert mle(phi).has_full_support() == all(phi.counts)


class TestLikelihood:
    def test_two_fair_coin_observations(self):
        assert likelihood(Multiset((1, 1)), Dist((F(1, 2), F(1, 2)))) == F(1, 4)

    def test_empty_counts_give_one(self):
        assert likelihood(Multiset((0, 0, 0)), mle(Multiset((1, 2, 3)))) == 1

    def test_zero_prob_against_zero_count_is_fine(self):
        omega = Dist((F(1), F(0)))
        assert likelihood(Multiset((3, 0)), omega) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            likelihood(Multiset((1,)), Dist((F(1, 2), F(1, 2))))


class TestMleDecompose:
    def test_single_row(self):
        first, channel = mle_decompose(Multiset((3, 1, 0)), 3)
        assert first.probs == (F(1),)
        assert channel.rows[0] == mle(Multiset((3, 1, 0)))

    def test_zero_row_propagates(self):
        with pytest.raises(ValueError):
            mle_decompose(Multiset((1, 2, 0, 0)), 2)

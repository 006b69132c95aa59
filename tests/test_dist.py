from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from cptforge.finset import FinMap, Multiset
from cptforge.mle import mle

GOLDEN_JOINT = Dist(tuple(F(c, 100) for c in (10, 35, 25, 5, 10, 15)))


def normalized(counts) -> Dist:
    return mle(Multiset(tuple(counts)))


def reference_error(probs):
    """The validation rule in Fraction arithmetic: the error message, or None."""
    for k, p in enumerate(probs):
        if p < 0 or p > 1:
            return f"probability {p} at index {k} outside [0,1]"
    if sum(probs) != 1:
        return f"probabilities sum to {sum(probs)}, not 1"
    return None


@st.composite
def prob_tuples(draw):
    """Tuples of Fractions with denominators up to 2**70: exact distributions,
    then with one entry moved by 1/2**70, negated or raised above 1, or
    arbitrary entries."""
    n = draw(st.integers(1, 6))
    big = 2**70
    if draw(st.booleans()):
        nums = st.integers(-big, 2 * big)
        return tuple(F(draw(nums), draw(st.integers(1, big))) for _ in range(n))
    parts = [F(draw(st.integers(0, big)), draw(st.integers(1, big))) for _ in range(n)]
    if not any(parts):
        parts[0] = F(1)
    probs = [p / sum(parts) for p in parts]
    k = draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "nudge up", "nudge down", "negate", "above one"]))
    if change == "nudge up":
        probs[k] += F(1, big)
    elif change == "nudge down":
        probs[k] -= F(1, big)
    elif change == "negate":
        probs[k] = -probs[k] - F(1, big)
    elif change == "above one":
        probs[k] += 1
    return tuple(probs)


class TestDistValidation:
    def test_full_support_flag(self):
        assert Dist((F(1, 2), F(1, 2))).has_full_support()
        assert not Dist((F(1), F(0))).has_full_support()

    @given(prob_tuples())
    def test_integer_checks_agree_with_fraction_arithmetic(self, probs):
        want = reference_error(probs)
        try:
            Dist(probs)
            got = None
        except ValueError as err:
            got = str(err)
        assert got == want

    @pytest.mark.parametrize(
        "probs,message",
        [
            ((F(1, 2), F(-1, 2), F(1)), "probability -1/2 at index 1 outside [0,1]"),
            ((F(3, 2), F(-1, 2)), "probability 3/2 at index 0 outside [0,1]"),
            ((F(1, 2), F(1, 2) - F(1, 2**70)), f"probabilities sum to {1 - F(1, 2**70)}, not 1"),
        ],
    )
    def test_error_messages(self, probs, message):
        with pytest.raises(ValueError) as err:
            Dist(probs)
        assert str(err.value) == message


class TestDistMap:
    def test_identity(self):
        assert dist_map(FinMap.identity(6), GOLDEN_JOINT) == GOLDEN_JOINT

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist_map(FinMap.identity(2), Dist((F(1),)))


class TestStateTransform:
    def test_identity_channel(self):
        omega = normalized((2, 5, 3))
        assert state_transform(Channel.deterministic(FinMap.identity(3)), omega) == omega

    def test_deterministic_channel_is_pushforward(self):
        # Brute force: every map between index sets of size <= 4, on a few states.
        for n, m in product(range(1, 5), range(1, 5)):
            states = [Dist((F(1, n),) * n), normalized(range(1, n + 1))]
            for targets in product(range(m), repeat=n):
                h = FinMap(targets, m)
                c = Channel.deterministic(h)
                for omega in states:
                    assert state_transform(c, omega) == dist_map(h, omega)


class TestDisintegrate:
    def test_product_distribution_gives_constant_channel(self):
        first = normalized((1, 3))
        second = normalized((2, 1, 2))
        joint = Dist(tuple(p * q for p in first.probs for q in second.probs))
        got_first, channel = disintegrate(joint, 3)
        assert got_first == first
        assert all(row == second for row in channel.rows)

    def test_zero_marginal_rejected(self):
        joint = Dist((F(1, 2), F(1, 2), F(0), F(0)))
        with pytest.raises(ValueError, match="index 1"):
            disintegrate(joint, 2)


class TestPairGraph:
    def test_uniform_with_copy_channel_is_diagonal(self):
        c = Channel.deterministic(FinMap.identity(3))
        joint = pair_graph(c, Dist((F(1, 3),) * 3))
        for i in range(3):
            for j in range(3):
                assert joint[i * 3 + j] == (F(1, 3) if i == j else F(0))


class TestValidityAndCondition:
    def test_point_predicate_picks_probability(self):
        omega = Dist((F(7, 10), F(3, 10)))
        assert validity(omega, Predicate.point(2, 0)) == F(7, 10)
        # An index that is not an integer is named, not read as no index.
        with pytest.raises(ValueError, match=r"^index 0.5 is not one of 0..2$"):
            Predicate.point(3, 0.5)

    def test_column_event_matches_marginal(self):
        p = Predicate(tuple(1 if k % 3 == 1 else 0 for k in range(6)))
        assert validity(GOLDEN_JOINT, p) == F(9, 20)

    def test_point_conditioning_gives_point_mass(self):
        omega = normalized((3, 2, 5))
        assert condition(omega, Predicate.point(3, 2)) == Dist.point(3, 2)
        with pytest.raises(ValueError, match=r"^index 0.5 is not one of 0..2$"):
            Dist.point(3, 0.5)

    def test_zero_validity_rejected(self):
        omega = Dist((F(1), F(0)))
        with pytest.raises(ValueError):
            condition(omega, Predicate.point(2, 1))

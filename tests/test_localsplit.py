import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

from cptforge.dirichlet import HyperParams
from cptforge.dist import Channel, Dist, disintegrate, pair_graph
from cptforge.finset import row_extract
from cptforge.localsplit import local_update_audit, pdf_factorization_check, shifted_prefactor
from cptforge.network import learn_bayes

GOLDEN_POINT = Dist.normalise((10, 35, 25, 5, 10, 15))
UNIFORM_POINT = Dist.normalise((1,) * 6)
ALL_ONES = (HyperParams((1, 1, 1)),) * 2
SHAPES = [(2, 3), (1, 3), (3, 1), (3, 2), (2, 4), (4, 3)]


def table(alphas, cols):
    """A pseudo-count table: the flat alphas cut into rows of `cols`."""
    return row_extract(HyperParams(alphas), cols)


def rational_points(count, seed, shape=(2, 3)):
    """`count` points of the open joint simplex of the given shape, row-major:
    positive integer weights, normalised."""
    rng = random.Random(seed)
    rows, cols = shape
    return [Dist.normalise([rng.randint(1, 9) for _ in range(rows * cols)])
            for _ in range(count)]


class TestSplit:
    """The split of a joint point is `disintegrate`, and `pair_graph` inverts it."""

    def test_worked_example(self):
        totals, shares = disintegrate(GOLDEN_POINT, 3)
        assert totals.probs == (F(7, 10), F(3, 10))
        assert tuple(row.probs for row in shares.rows) == (
            (F(1, 7), F(1, 2), F(5, 14)), (F(1, 6), F(1, 3), F(1, 2)))

    def test_uniform_point(self):
        assert disintegrate(UNIFORM_POINT, 3) == (
            Dist((F(1, 2),) * 2), Channel((Dist((F(1, 3),) * 3),) * 2))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_round_trip_on_random_interior_points(self, shape):
        rows, cols = shape
        for x in rational_points(100, 31, shape):
            totals, shares = disintegrate(x, cols)
            assert totals.n == rows and shares.m == cols
            # The split in plain Fractions: the totals are the row sums, and
            # each row of shares is its row over its sum.
            cells = [x.probs[k : k + cols] for k in range(0, x.n, cols)]
            assert totals.probs == tuple(sum(row) for row in cells)
            assert tuple(r.probs for r in shares.rows) == tuple(
                tuple(v / sum(row) for v in row) for row in cells)
            assert pair_graph(shares, totals) == x

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="row length 2 does not divide table size 3"):
            disintegrate(Dist((F(1, 2), F(1, 4), F(1, 4))), 2)
        with pytest.raises(ValueError, match="sum to 6/5, not 1"):
            Dist((F(1, 5),) * 6)

    def test_boundary_rejected_by_construction(self):
        # A vanishing row has no shares; a zero cell is off the open simplex,
        # where the joint density is not evaluated.
        with pytest.raises(ValueError, match="first marginal vanishes at index 0"):
            disintegrate(Dist.normalise((0, 0, 0, 5, 10, 15)), 3)
        with pytest.raises(ValueError, match="coordinate 0 is 0"):
            pdf_factorization_check(ALL_ONES, Dist.normalise((0, 35, 35, 5, 10, 15)))


class TestFactorization:
    def test_all_ones_at_uniform_point(self):
        # By hand: joint density 120; totals factor d2(3,3)(.5,.5)/(1/16) = 30,
        # each row factor 2, so 30*2*2 = 120; shifted constant 30, d2(1,1)=1.
        assert pdf_factorization_check(ALL_ONES, UNIFORM_POINT) == (120, 120, 120)

    def test_table_counts_at_empirical_point(self):
        lhs, rhs1, rhs2 = pdf_factorization_check(table((10, 35, 25, 5, 10, 15), 3), GOLDEN_POINT)
        assert lhs == rhs1 == rhs2

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_randomised_suite(self, shape):
        rows, cols = shape
        rng = random.Random(33)
        for trial in range(20):
            alpha = table(tuple(rng.randint(1, 8) for _ in range(rows * cols)), cols)
            for x in rational_points(5, 3300 + trial, shape):
                lhs, rhs1, rhs2 = pdf_factorization_check(alpha, x)
                assert lhs == rhs1 == rhs2

    def test_malformed_arguments_rejected(self):
        with pytest.raises(ValueError, match="^the pseudo-count table has no rows$"):
            pdf_factorization_check((), UNIFORM_POINT)
        ragged = (HyperParams((1, 1, 1)), HyperParams((1, 1)))
        with pytest.raises(ValueError, match="^every row needs the same number of pseudo-counts$"):
            pdf_factorization_check(ragged, Dist.normalise((1,) * 5))
        for n in (4, 5, 9):
            with pytest.raises(ValueError, match=f"^expected a point of 6 coordinates, got {n}$"):
                pdf_factorization_check(ALL_ONES, Dist.normalise((1,) * n))

    def test_small_row_total_rejected_for_shifted_form(self):
        # Row totals below 3 cannot arise from three pseudo-counts >= 1,
        # but lowering them by two is refused all the same.
        with pytest.raises(ValueError):
            shifted_prefactor(HyperParams((2, 3)), 2)
        with pytest.raises(ValueError):
            shifted_prefactor(HyperParams((4, 1)), 2)


class TestUpdateConstant:
    """The audit's constant: `shifted_prefactor` of the totals after the update."""

    def test_row_asymmetry(self):
        assert shifted_prefactor(HyperParams((4, 5)).increment(0), 2) == F(
            9 * 8 * 7 * 6, 4 * 3 * 4 * 3
        )
        assert shifted_prefactor(HyperParams((4, 5)).increment(1), 2) == F(
            9 * 8 * 7 * 6, 5 * 4 * 3 * 2
        )

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            shifted_prefactor(HyperParams((2, 2)).increment(0), 2)


class TestLocalUpdateAudit:
    def test_all_ones_increment(self):
        audit = local_update_audit(ALL_ONES, (0, 2))
        direct = next(c for c in audit.candidates if c.name == "direct")
        shifted = next(c for c in audit.candidates if c.name == "shifted")
        assert direct.matches and direct.totals_params == (4, 3)
        assert audit.row_params == ((1, 1, 2), (1, 1, 1))
        assert audit.identities == 27 and (direct.failed, direct.first_gap) == (0, 0)
        # E[x02] = 2/7 against 2/3 * 1/4 under the shifted totals Dir(2, 1).
        assert not shifted.matches and shifted.failed == 27
        assert shifted.first_gap == F(1, 7) - F(2, 3) * F(1, 4)
        assert audit.matching_candidates == ("direct",)
        assert audit.shifted_constant == F(30)

    @pytest.mark.parametrize("alpha", [table((2, 1, 3), 3), table((2, 1, 3), 1)],
                             ids=["1x3", "3x1"])
    def test_single_row_or_column(self, alpha):
        # A one-outcome factor is a point mass, and the constant is 1, so
        # both candidates describe the same pushforward.
        audit = local_update_audit(alpha, (0, 0))
        assert audit.matching_candidates == ("direct", "shifted")
        assert [c.failed for c in audit.candidates] == [0, 0]
        assert audit.shifted_constant == 1

    def test_learned_posteriors_go_in_unchanged(self, golden_table, golden_graph):
        medicine = next(c for c in learn_bayes(golden_table, golden_graph) if c.node == "Medicine")
        audit = local_update_audit(medicine.posteriors, (0, 2))
        assert audit.alpha_rows == medicine.posteriors
        assert audit.matching_candidates == ("direct",)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            local_update_audit(ALL_ONES, (2, 0))
        with pytest.raises(ValueError):
            local_update_audit(ALL_ONES, (0, 3))
        with pytest.raises(ValueError):
            local_update_audit(table((1, 1, 1, 1, 1), 3), (0, 0))
        with pytest.raises(ValueError, match="no rows"):
            local_update_audit((), (0, 0))
        # A coordinate that is not an integer is refused naming the cell as
        # given; an integer type is read as the int it stands for.
        for cell in [(0.5, 1), (0, 1.0), (0, "1"), (0,), (0, 1, 2)]:
            with pytest.raises(ValueError, match=rf"^cell {re.escape(str(cell))} outside the 2x3 table$"):
                local_update_audit(ALL_ONES, cell)
        audit = local_update_audit(ALL_ONES, (True, np.int64(2)))
        assert audit.cell == (1, 2) and all(type(k) is int for k in audit.cell)
        assert "incremented cell=(1, 2)" in audit.format_report()

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from cptforge.dirichlet import HyperParams, dirichlet_sample_many, make_rng
from cptforge.localsplit import (
    local_update_audit,
    pdf_factorization_check,
    shifted_prefactor,
    split,
    unsplit,
)
from cptforge.network import learn_bayes

GOLDEN_POINT = np.array([[[0.10, 0.35, 0.25], [0.05, 0.10, 0.15]]])
UNIFORM_POINT = np.full((1, 2, 3), 1 / 6)
ALL_ONES = (HyperParams((1, 1, 1)),) * 2
SHAPES = [(2, 3), (1, 3), (3, 1), (3, 2), (2, 4), (4, 3)]


def table(alphas, cols):
    """A pseudo-count table: the flat alphas cut into rows of `cols`."""
    return tuple(HyperParams(alphas[k : k + cols]) for k in range(0, len(alphas), cols))


def interior_points(count, seed, shape=(2, 3)):
    flat = dirichlet_sample_many(HyperParams((1,) * (shape[0] * shape[1])), count, make_rng(seed))
    return flat.reshape(count, *shape)


class TestSplit:
    def test_worked_example(self):
        totals, shares = split(GOLDEN_POINT)
        assert totals[0] == pytest.approx((0.7, 0.3), abs=1e-15)
        assert shares[0, 0] == pytest.approx((1 / 7, 1 / 2, 5 / 14), abs=1e-15)
        assert shares[0, 1] == pytest.approx((1 / 6, 1 / 3, 1 / 2), abs=1e-15)

    def test_uniform_point(self):
        totals, shares = split(UNIFORM_POINT)
        assert totals[0] == pytest.approx((0.5, 0.5), abs=1e-15)
        assert shares[0, 0] == pytest.approx((1 / 3,) * 3, abs=1e-15)
        assert shares[0, 1] == pytest.approx((1 / 3,) * 3, abs=1e-15)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_round_trip_on_random_interior_points(self, shape):
        xs = interior_points(100, 31, shape)
        totals, shares = split(xs)
        assert totals.shape == (100, shape[0]) and shares.shape == (100, *shape)
        assert np.abs(unsplit(totals, shares) - xs).max() <= 1e-12

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            split(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            split(np.full((1, 2, 3), 0.2))

    def test_boundary_rejected_by_construction(self):
        with pytest.raises(ValueError):
            split(np.array([[[0.0, 0.35, 0.35], [0.05, 0.10, 0.15]]]))


class TestFactorization:
    def test_all_ones_at_uniform_point(self):
        # By hand: joint density 120; totals factor d2(3,3)(.5,.5)/(1/16) = 30,
        # each row factor 2, so 30*2*2 = 120; shifted constant 30, d2(1,1)=1.
        lhs, rhs1, rhs2 = pdf_factorization_check(ALL_ONES, UNIFORM_POINT)
        assert lhs == pytest.approx([120.0], rel=1e-12)
        assert rhs1 == pytest.approx([120.0], rel=1e-12)
        assert rhs2 == pytest.approx([120.0], rel=1e-12)

    def test_table_counts_at_empirical_point(self):
        lhs, rhs1, rhs2 = pdf_factorization_check(
            table((10, 35, 25, 5, 10, 15), 3), GOLDEN_POINT
        )
        assert (np.abs(lhs - rhs1) / lhs).max() <= 1e-9
        assert (np.abs(lhs - rhs2) / lhs).max() <= 1e-9

    def test_exponent_cancellation_at_fixed_points(self):
        # The totals-coordinate exponents introduced by the quotient cancel
        # against the shares' change of variables at any interior point.
        alpha = table((2, 1, 3, 4, 2, 2), 3)
        lhs, rhs1, _ = pdf_factorization_check(alpha, interior_points(3, 32))
        assert (np.abs(lhs - rhs1) / lhs).max() <= 1e-9

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_randomised_suite(self, shape):
        rows, cols = shape
        rng = random.Random(33)
        for trial in range(20):
            alpha = table(tuple(rng.randint(1, 8) for _ in range(rows * cols)), cols)
            points = interior_points(20, 3300 + trial, shape)
            lhs, rhs1, rhs2 = pdf_factorization_check(alpha, points)
            rel = np.maximum(np.abs(lhs - rhs1), np.abs(lhs - rhs2)) / np.abs(lhs)
            assert rel.max() <= 1e-9

    def test_small_row_total_rejected_for_shifted_form(self):
        # Row totals below 3 cannot arise from three pseudo-counts >= 1,
        # but lowering them by two is refused all the same.
        with pytest.raises(ValueError):
            shifted_prefactor(HyperParams((2, 3)), 2)
        with pytest.raises(ValueError):
            shifted_prefactor(HyperParams((4, 1)), 2)


class TestUpdateConstant:
    """The audit's constant: `shifted_prefactor` of the totals after the update."""

    def test_symmetric_three_three(self):
        assert shifted_prefactor(HyperParams((3, 3)).increment(0), 2) == F(30)

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


# The four tables of scripts/local_audit_demo.py, with their incremented cells.
DEMO_TABLES = [
    (table((1, 1, 1, 1, 1, 1), 3), (0, 2)),
    (table((2, 3, 1, 4, 2, 2), 3), (1, 0)),
    (table((10, 35, 25, 5, 10, 15), 3), (0, 2)),
    (table((1, 2, 3, 1, 2, 2), 2), (2, 1)),
]


class TestLocalUpdateAudit:
    def test_all_ones_increment(self):
        audit = local_update_audit(ALL_ONES, (0, 2))
        direct = next(c for c in audit.candidates if c.name == "direct")
        shifted = next(c for c in audit.candidates if c.name == "shifted")
        assert direct.matches and direct.totals_params == (4, 3)
        assert direct.row_params == ((1, 1, 2), (1, 1, 1))
        assert audit.identities == 27 and (direct.failed, direct.first_gap) == (0, 0)
        # E[x02] = 2/7 against 2/3 * 1/4 under the shifted totals Dir(2, 1).
        assert not shifted.matches and shifted.failed == 27
        assert shifted.first_gap == F(1, 7) - F(2, 3) * F(1, 4)
        assert audit.matching_candidates == ("direct",)
        assert audit.shifted_constant == F(30)

    @pytest.mark.parametrize("alpha,cell", DEMO_TABLES, ids=["ones", "generic", "golden", "3x2"])
    def test_demo_tables_split_directly(self, alpha, cell):
        audit = local_update_audit(alpha, cell)
        direct, shifted = audit.candidates
        assert (direct.name, direct.failed) == ("direct", 0)
        assert shifted.failed > 0 and isinstance(shifted.first_gap, F) and shifted.first_gap != 0
        assert audit.matching_candidates == ("direct",)

    def test_generic_parameters(self):
        audit = local_update_audit(table((2, 3, 1, 4, 2, 2), 3), (1, 0))
        assert [c.totals_params for c in audit.candidates] == [(6, 9), (4, 7)]
        assert audit.candidates[0].row_params == ((2, 3, 1), (5, 2, 2))
        assert audit.shifted_constant == F(429, 20)

    def test_three_by_two(self):
        audit = local_update_audit(table((1, 2, 3, 1, 2, 2), 2), (2, 1))
        assert audit.matching_candidates == ("direct",)
        shifted = next(c for c in audit.candidates if c.name == "shifted")
        assert shifted.totals_params == (2, 3, 4)
        assert audit.shifted_constant == shifted_prefactor(HyperParams((3, 4, 4)).increment(2), 1)
        assert audit.shifted_constant == F(165, 4)

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

    def test_report_text_mentions_the_tension(self):
        text = local_update_audit(ALL_ONES, (0, 2)).format_report()
        assert "constant" in text and "30" in text
        assert "total mass 1" in text
        assert "fails 27 of 27 moment identities -> MISMATCH (first gap -1/42)" in text

    def test_pushforward_blocks_are_uncorrelated(self):
        # Totals and row proportions should be independent after the update;
        # check every cross covariance at four standard errors.
        alpha = HyperParams((1,) * 6).increment(2)
        draws = dirichlet_sample_many(alpha, 100_000, make_rng(8))
        totals, shares = split(draws.reshape(-1, 2, 3))
        y0 = totals[:, 0] - totals[:, 0].mean()
        n = len(y0)
        for block in (shares[:, 0, :], shares[:, 1, :]):
            for k in range(3):
                uk = block[:, k] - block[:, k].mean()
                prods = y0 * uk
                se = prods.std(ddof=1) / math.sqrt(n)
                assert abs(prods.mean()) <= 4 * se

    def test_preconditions(self):
        with pytest.raises(ValueError):
            local_update_audit(ALL_ONES, (2, 0))
        with pytest.raises(ValueError):
            local_update_audit(ALL_ONES, (0, 3))
        with pytest.raises(ValueError):
            local_update_audit(table((1, 1, 1, 1, 1), 3), (0, 0))

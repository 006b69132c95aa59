import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from cptforge.dirichlet import HyperParams, dirichlet_sample_many
from cptforge.localsplit import (
    local_update_audit,
    pdf_factorization_check,
    shifted_prefactor,
    split,
    unsplit,
    update_constant,
)
from cptforge.rng import make_rng

GOLDEN_POINT = np.array([[0.10, 0.35, 0.25, 0.05, 0.10, 0.15]])
UNIFORM_POINT = np.full((1, 6), 1 / 6)


def interior_points(count, seed):
    return dirichlet_sample_many(HyperParams((1,) * 6), count, make_rng(seed))


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

    def test_round_trip_on_random_interior_points(self):
        xs = interior_points(100, 31)
        assert np.abs(unsplit(*split(xs)) - xs).max() <= 1e-12

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            split(np.array([[0.5, 0.5]]))

    def test_boundary_rejected_by_construction(self):
        with pytest.raises(ValueError):
            split(np.array([[0.0, 0.35, 0.35, 0.05, 0.10, 0.15]]))


class TestFactorization:
    def test_all_ones_at_uniform_point(self):
        # By hand: joint density 120; totals factor d2(3,3)(.5,.5)/(1/16) = 30,
        # each row factor 2, so 30*2*2 = 120; shifted constant 30, d2(1,1)=1.
        lhs, rhs1, rhs2 = pdf_factorization_check(HyperParams((1,) * 6), UNIFORM_POINT)
        assert lhs == pytest.approx([120.0], rel=1e-12)
        assert rhs1 == pytest.approx([120.0], rel=1e-12)
        assert rhs2 == pytest.approx([120.0], rel=1e-12)

    def test_table_counts_at_empirical_point(self):
        lhs, rhs1, rhs2 = pdf_factorization_check(
            HyperParams((10, 35, 25, 5, 10, 15)), GOLDEN_POINT
        )
        assert (np.abs(lhs - rhs1) / lhs).max() <= 1e-9
        assert (np.abs(lhs - rhs2) / lhs).max() <= 1e-9

    def test_exponent_cancellation_at_fixed_points(self):
        # The totals-coordinate exponents introduced by the quotient cancel
        # against the shares' change of variables at any interior point.
        alpha = HyperParams((2, 1, 3, 4, 2, 2))
        lhs, rhs1, _ = pdf_factorization_check(alpha, interior_points(3, 32))
        assert (np.abs(lhs - rhs1) / lhs).max() <= 1e-9

    def test_randomised_suite(self):
        rng = random.Random(33)
        for trial in range(20):
            while True:
                alpha = HyperParams(tuple(rng.randint(1, 8) for _ in range(6)))
                if sum(alpha.alphas[:3]) >= 3 and sum(alpha.alphas[3:]) >= 3:
                    break
            lhs, rhs1, rhs2 = pdf_factorization_check(alpha, interior_points(20, 3300 + trial))
            rel = np.maximum(np.abs(lhs - rhs1), np.abs(lhs - rhs2)) / np.abs(lhs)
            assert rel.max() <= 1e-9

    def test_small_row_total_rejected_for_shifted_form(self):
        # Row totals below 3 cannot arise from three pseudo-counts >= 1,
        # but the prefactor itself guards the degenerate denominators.
        with pytest.raises(ValueError):
            shifted_prefactor(2, 3)
        with pytest.raises(ValueError):
            shifted_prefactor(4, 1)


class TestUpdateConstant:
    def test_symmetric_three_three(self):
        assert update_constant(3, 3, row=0) == F(30)

    def test_row_asymmetry(self):
        assert update_constant(4, 5, row=0) == F(9 * 8 * 7 * 6, 4 * 3 * 4 * 3)
        assert update_constant(4, 5, row=1) == F(9 * 8 * 7 * 6, 5 * 4 * 3 * 2)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            update_constant(2, 2, row=0)


class TestLocalUpdateAudit:
    def test_all_ones_increment(self):
        audit = local_update_audit(HyperParams((1,) * 6), (0, 2), samples=100_000, seed=5)
        assert audit.pushforward_mass == 1.0
        direct = next(c for c in audit.candidates if c.name == "direct")
        shifted = next(c for c in audit.candidates if c.name == "shifted")
        assert direct.matches and direct.totals_params == (4, 3)
        assert direct.row0_params == (1, 1, 2) and direct.row1_params == (1, 1, 1)
        assert not shifted.matches
        assert audit.matching_candidates == ("direct",)
        assert audit.shifted_constant == F(30)
        assert not audit.constant_is_one

    def test_generic_parameters(self):
        audit = local_update_audit(HyperParams((2, 3, 1, 4, 2, 2)), (1, 0), samples=50_000, seed=6)
        assert audit.matching_candidates == ("direct",)

    def test_report_text_mentions_the_tension(self):
        audit = local_update_audit(HyperParams((1,) * 6), (0, 2), samples=20_000, seed=7)
        text = audit.format_report()
        assert "constant" in text and "30" in text
        assert "total mass 1" in text

    def test_pushforward_blocks_are_uncorrelated(self):
        # Totals and row proportions should be independent after the update;
        # check every cross covariance at four standard errors.
        alpha = HyperParams((1,) * 6).increment(2)
        draws = dirichlet_sample_many(alpha, 100_000, make_rng(8))
        totals, shares = split(draws)
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
            local_update_audit(HyperParams((1,) * 6), (0, 2), samples=100)
        with pytest.raises(ValueError):
            local_update_audit(HyperParams((1,) * 6), (2, 0))
        with pytest.raises(ValueError):
            local_update_audit(HyperParams((1, 1, 1, 1, 1)), (0, 0), samples=10_000, seed=1)

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cptforge.dirichlet import (
    HyperParams,
    aggregate_params,
    dirichlet_covariance,
    dirichlet_density,
    dirichlet_mean,
    dirichlet_normalizer,
    dirichlet_pdf_many,
    dirichlet_sample_many,
    gamma_nat,
    one_sum_check,
    push_coords,
    simplex_cells,
    simplex_quadrature,
    simplex_rows,
)
from cptforge.finset import FinMap, Multiset
from cptforge.mle import mle
from cptforge.rng import make_rng
from cptforge.verify import _all_hyperparams, normalisation_errors

hyperparams_st = st.lists(st.integers(1, 8), min_size=1, max_size=5).map(
    lambda a: HyperParams(tuple(a))
)


class TestGammaNat:
    def test_base_cases(self):
        assert gamma_nat(1) == 1
        assert gamma_nat(2) == 1

    def test_recursion(self):
        assert gamma_nat(5) == 24
        for k in range(1, 30):
            assert gamma_nat(k + 1) == k * gamma_nat(k)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gamma_nat(0)

    def test_exact_for_large_arguments(self):
        assert gamma_nat(25) == math.factorial(24)


class TestHyperParams:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            HyperParams((1, 0))

    def test_increment(self):
        assert HyperParams((2, 3)).increment(1).alphas == (2, 4)

    def test_total_at_least_n(self):
        a = HyperParams((1, 1, 1))
        assert a.total >= a.n


class TestSimplexRows:
    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            one_sum_check(HyperParams((1, 1, 1)), (0.0, 1.0), 100)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            one_sum_check(HyperParams((1, 1, 1)), (0.5, 0.6), 100)

    def test_rejects_coordinate_above_one(self):
        # The row sum is within the 1e-12 tolerance; the coordinate is not.
        with pytest.raises(ValueError):
            simplex_rows([[1.0 + 4e-13, 1e-13]], 2)

    def test_single_outcome_point(self):
        assert simplex_rows([[1.0]], 1).tolist() == [[1.0]]


class TestDirichletPdf:
    def test_uniform_on_two_outcomes(self):
        a = HyperParams((1, 1))
        ts = np.array([0.1, 0.5, 0.93])
        assert (dirichlet_pdf_many(a, np.column_stack([ts, 1 - ts])) == 1.0).all()

    def test_linear_case(self):
        got = dirichlet_pdf_many(HyperParams((2, 1)), [[0.3, 0.7]])
        assert got[0] == pytest.approx(0.6)

    def test_uniform_on_three_outcomes(self):
        assert dirichlet_pdf_many(HyperParams((1, 1, 1)), [[0.2, 0.3, 0.5]])[0] == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_pdf_many(HyperParams((1, 1)), [[0.2, 0.3, 0.5]])

    def test_normalizer_is_exact(self):
        assert dirichlet_normalizer(HyperParams((2, 3, 4))) == F(
            gamma_nat(9), gamma_nat(2) * gamma_nat(3) * gamma_nat(4)
        )


class TestSimplexQuadrature:
    def test_cell_weights_sum_to_simplex_volume(self):
        for n in (2, 3, 4):
            _, w = simplex_cells(n, 23)
            assert w.sum() == pytest.approx(1 / math.factorial(n - 1), abs=1e-14)

    def test_constant_on_two_outcomes(self):
        got = simplex_quadrature(lambda pts: np.ones(len(pts)), 2, 100)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_coordinate_mean_by_symmetry(self):
        got = simplex_quadrature(lambda pts: pts[:, 0], 2, 100)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_linear_density_normalisation(self):
        a = HyperParams((2, 1, 1))
        got = simplex_quadrature(lambda pts: dirichlet_pdf_many(a, pts), 3, 400)
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_four_outcome_normalisation(self):
        a = HyperParams((2, 1, 1, 2))
        got = simplex_quadrature(lambda pts: dirichlet_pdf_many(a, pts), 4, 40)
        assert got == pytest.approx(1.0, abs=5e-3)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            simplex_quadrature(lambda pts: np.ones(len(pts)), 5, 10)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            simplex_quadrature(lambda pts: np.ones(len(pts)), 2, 1)

    def test_degenerate_dimension(self):
        assert simplex_quadrature(lambda pts: np.full(len(pts), 3.0), 1, 10) == 3.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batched_normalisation_matches_quadrature(self, n):
        # normalisation_errors accumulates exp(log-points @ exponents) over
        # blocks of grid points; the reference integrates each pdf in one go.
        # Resolution 400 at n = 3 spans several blocks.
        alphas = [a for a in _all_hyperparams(3, 7) if a.n == n][:6]
        for res in (10, 400):
            errs = normalisation_errors(alphas, res)
            for a, e in zip(alphas, errs):
                want = abs(simplex_quadrature(lambda p: dirichlet_pdf_many(a, p), n, res) - 1)
                assert abs(e - want) <= 1e-12, (a.alphas, res, e, want)


class TestDirichletSampler:
    def test_mean_within_four_standard_errors(self):
        a = HyperParams((2, 1, 1))
        draws = 100_000
        xs = dirichlet_sample_many(a, draws, make_rng(11))
        for i, target in enumerate((0.5, 0.25, 0.25)):
            se = xs[:, i].std(ddof=1) / math.sqrt(draws)
            assert abs(xs[:, i].mean() - target) <= 4 * se

    def test_symmetric_case(self):
        xs = dirichlet_sample_many(HyperParams((1, 1)), 100_000, make_rng(12))
        se = xs[:, 0].std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs[:, 0].mean() - 0.5) <= 4 * se

    def test_fixed_seed_replays_bit_identically(self):
        a = HyperParams((3, 2, 4))
        xs = dirichlet_sample_many(a, 1000, make_rng(99))
        ys = dirichlet_sample_many(a, 1000, make_rng(99))
        assert np.array_equal(xs, ys)
        x = dirichlet_sample_many(a, 1, make_rng(5))
        assert np.array_equal(x, dirichlet_sample_many(a, 1, make_rng(5)))

    def test_single_draw_is_valid_point(self):
        x = dirichlet_sample_many(HyperParams((2, 5)), 1, make_rng(0))
        assert simplex_rows(x, 2).shape == (1, 2)

    def test_covariances_match_analytic_moments(self):
        # Oracle: textbook covariance formulas, exact rationals.
        a = HyperParams((2, 3, 1))
        draws = 100_000
        xs = dirichlet_sample_many(a, draws, make_rng(13))
        cov = dirichlet_covariance(a)
        centered = xs - xs.mean(axis=0)
        for i in range(3):
            for j in range(i, 3):
                prods = centered[:, i] * centered[:, j]
                se = prods.std(ddof=1) / math.sqrt(draws)
                assert abs(prods.mean() - float(cov[i][j])) <= 4 * se


class TestDirichletMean:
    def test_example(self):
        assert dirichlet_mean(HyperParams((2, 1, 1))).probs == (F(1, 2), F(1, 4), F(1, 4))

    def test_symmetric(self):
        assert dirichlet_mean(HyperParams((1, 1))).probs == (F(1, 2), F(1, 2))

    @given(hyperparams_st)
    def test_mean_is_normalised_pseudo_counts(self, alpha):
        assert dirichlet_mean(alpha) == mle(Multiset(alpha.alphas))

    def test_mean_integral_matches(self):
        a = HyperParams((2, 1, 1))
        for i in range(3):
            got = simplex_quadrature(lambda pts: pts[:, i] * dirichlet_pdf_many(a, pts), 3, 400)
            assert got == pytest.approx(float(F(a.alphas[i], a.total)), abs=1e-3)


class TestAggregateParams:
    def test_merge_first_two(self):
        h = FinMap((0, 0, 1), 2)
        assert aggregate_params(h, HyperParams((2, 3, 4))).alphas == (5, 4)

    def test_identity(self):
        a = HyperParams((2, 3, 4))
        assert aggregate_params(FinMap.identity(3), a) == a

    def test_constant_map_gives_total(self):
        assert aggregate_params(FinMap.constant(3), HyperParams((2, 3, 4))).alphas == (9,)

    def test_non_surjective_rejected(self):
        with pytest.raises(ValueError):
            aggregate_params(FinMap((0, 0), 2), HyperParams((1, 1)))


class TestPushCoords:
    def test_sums_fibres(self):
        h = FinMap((0, 1, 0), 2)
        xs = np.array([[0.2, 0.3, 0.5]])
        assert np.allclose(push_coords(h, xs), [[0.7, 0.3]])

    def test_rows_still_sum_to_one(self):
        h = FinMap((0, 1, 0, 1), 2)
        xs = dirichlet_sample_many(HyperParams((1, 2, 3, 4)), 50, make_rng(3))
        pushed = push_coords(h, xs)
        assert np.allclose(pushed.sum(axis=1), 1.0)


class TestOneSumCheck:
    def test_uniform_case_is_exact(self):
        # Integrand is the constant 2 on (0, s): midpoint rule is exact.
        a = HyperParams((1, 1, 1))
        for s in (0.25, 0.5, 0.8):
            lhs, rhs = one_sum_check(a, (s, 1 - s), 50)
            assert lhs == pytest.approx(2 * s, abs=1e-12)
            assert rhs == pytest.approx(lhs, abs=1e-12)

    def test_two_outcome_degenerate_case(self):
        # Merging both coordinates: the merged density is the point mass,
        # and the integral recovers total mass 1.
        lhs, rhs = one_sum_check(HyperParams((2, 1)), (1.0,), 10_000)
        assert lhs == 1.0
        assert rhs == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_against_quadrature(self):
        a = HyperParams((2, 2, 1))
        lhs, rhs = one_sum_check(a, (0.5, 0.5), 10_000)
        assert lhs == pytest.approx(0.5, abs=1e-12)  # 4 * 0.5**3
        assert abs(lhs - rhs) <= 1e-4

    def test_requires_matching_sizes(self):
        with pytest.raises(ValueError):
            one_sum_check(HyperParams((1, 1, 1)), (1.0,), 100)


class TestSimplexDensity:
    def test_dirichlet_density_integrates_to_one(self):
        d = dirichlet_density(HyperParams((2, 3, 1)))
        got = simplex_quadrature(d.eval_many, 3, 200)
        assert got == pytest.approx(1.0, abs=1e-3)

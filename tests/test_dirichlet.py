import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cptforge.dirichlet import (
    MAX_QUADRATURE_CELLS,
    SAMPLE_BLOCK,
    HyperParams,
    cell_rule_integrals,
    dirichlet_moment,
    dirichlet_normalizer,
    dirichlet_pdf,
    dirichlet_sample_blocks,
    gamma_nat,
    make_rng,
    moment_z,
    one_sum_check,
    simplex_cell_count,
    simplex_moments,
)
from cptforge.dist import Dist
from cptforge.finset import FinMap, ms_map, multisets
from cptforge.mle import mle
from cptforge.verify import (
    check_stoch_normalisation,
    check_stoch_sampler_moments,
    pushed_moment,
)

from conftest import cells_by_meshgrid


def all_hyperparams(n, max_total):
    """Every pseudo-count vector over n outcomes with sum <= max_total:
    all ones plus a multiset of the rest."""
    return [HyperParams((1,) * n) + m
            for size in range(max_total - n + 1) for m in multisets(n, size)]


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
        with pytest.raises(ValueError, match=r"^pseudo-count 0 at index 1 must be at least 1$"):
            HyperParams((1, 0))

    @pytest.mark.parametrize(
        "counts,message",
        [
            ((1.9, 2), "pseudo-count 1.9 at index 0 is not an integer"),
            ((3, np.float64(2.0)), "pseudo-count np.float64(2.0) at index 1 is not an integer"),
        ],
    )
    def test_rejects_non_integer_pseudo_counts(self, counts, message):
        with pytest.raises(ValueError) as err:
            HyperParams(counts)
        assert str(err.value) == message

    def test_increment(self):
        assert HyperParams((2, 3)).increment(1).counts == (2, 4)
        # An index that is not an integer is named, not matched against none.
        with pytest.raises(ValueError, match=r"^index 0.5 is not one of 0..1$"):
            HyperParams((2, 3)).increment(0.5)

    def test_total_at_least_n(self):
        a = HyperParams((1, 1, 1))
        assert a.total() >= a.n


class TestDirichletPdf:
    def test_uniform_on_two_outcomes(self):
        a = HyperParams((1, 1))
        assert all(dirichlet_pdf(a, Dist((t, 1 - t))) == 1 for t in (F(1, 10), F(1, 2), F(93, 100)))

    def test_linear_case(self):
        assert dirichlet_pdf(HyperParams((2, 1)), Dist((F(3, 10), F(7, 10)))) == F(3, 5)

    def test_uniform_on_three_outcomes(self):
        assert dirichlet_pdf(HyperParams((1, 1, 1)), Dist((F(1, 5), F(3, 10), F(1, 2)))) == 2

    def test_single_outcome_point(self):
        # The one-outcome simplex is the point 1, where every density is 1.
        assert dirichlet_pdf(HyperParams((3,)), Dist((F(1),))) == 1

    def test_normalizer_is_exact(self):
        assert dirichlet_normalizer(HyperParams((2, 3, 4))) == F(
            gamma_nat(9), gamma_nat(2) * gamma_nat(3) * gamma_nat(4)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected a point of 2 coordinates, got 3"):
            dirichlet_pdf(HyperParams((1, 1)), Dist((F(1, 5), F(3, 10), F(1, 2))))

    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 50)), min_size=1, max_size=6))
    def test_matches_the_exact_density_at_rational_points(self, pairs):
        # The normaliser times the monomial, in plain Fraction powers.
        alpha = HyperParams(tuple(a for a, _ in pairs))
        point = [F(w, sum(w for _, w in pairs)) for _, w in pairs]
        exact = dirichlet_normalizer(alpha) * math.prod(
            x ** (a - 1) for x, a in zip(point, alpha.counts)
        )
        assert dirichlet_pdf(alpha, Dist(point)) == exact

    @pytest.mark.parametrize("point,message", [
        ((F(0), F(1, 2), F(1, 2)), "coordinate 0 is 0: .* strictly positive"),
        ((F(-1, 2), F(1), F(1, 2)), r"probability -1/2 at index 0 outside \[0,1\]"),
        ((F(1, 2), F(3, 5), F(1, 10)), "sum to 6/5, not 1"),
        ((F(1, 3), F(1, 3), F(1, 3) - F(1, 10**30)), r"sum to .*, not 1"),
    ], ids=["zero", "negative", "sum-above-one", "sum-just-below-one"])
    def test_refuses_a_point_off_the_open_simplex(self, point, message):
        # A point is a Dist, which refuses a negative entry or a sum other
        # than 1; the density refuses a zero entry, on the boundary.
        with pytest.raises(ValueError, match=message):
            dirichlet_pdf(HyperParams((1, 2, 1)), Dist(point))


class TestIntPower:
    """The density's monomial raises integer numerators to the integer
    exponents alpha_i - 1: on two outcomes, Dirichlet(k + 1, 1) is
    (k + 1) x**k, here against plain Fraction powers."""

    POINTS = [F(1, 10**3), F(999, 10**6), F(1001, 10**6), F(3, 10), F(1, 2), F(999999, 10**6)]

    @pytest.mark.parametrize("k", list(range(65)) + [200])
    def test_matches_pow(self, k):
        for p in self.POINTS:
            assert dirichlet_pdf(HyperParams((k + 1, 1)), Dist((p, 1 - p))) == (k + 1) * p**k
            assert dirichlet_pdf(HyperParams((1, k + 1)), Dist((1 - p, p))) == (k + 1) * p**k

    def test_zeroth_power_is_one_everywhere(self):
        # All exponents zero: the density is its normaliser (n - 1)! at every point.
        for n in (2, 3, 4):
            rng = random.Random(n)
            for _ in range(5):
                point = Dist.normalise([rng.randint(1, 9) for _ in range(n)])
                assert dirichlet_pdf(HyperParams((1,) * n), point) == math.factorial(n - 1)


class TestSimplexQuadrature:
    def test_cell_weights_sum_to_simplex_volume(self):
        for n in (2, 3, 4):
            got = simplex_moments(n, 23, np.zeros((1, n), np.int64))[0]
            assert got == pytest.approx(1 / math.factorial(n - 1), abs=1e-14)

    def test_constant_on_two_outcomes(self):
        assert simplex_moments(2, 100, [[0, 0]])[0] == pytest.approx(1.0, abs=1e-9)

    def test_coordinate_mean_by_symmetry(self):
        assert simplex_moments(2, 100, [[1, 0]])[0] == pytest.approx(0.5, abs=1e-6)

    def test_linear_density_normalisation(self):
        got = cell_rule_integrals([HyperParams((2, 1, 1))], [(0, 0, 0)], 400)[0]
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_four_outcome_normalisation(self):
        got = cell_rule_integrals([HyperParams((2, 1, 1, 2))], [(0, 0, 0, 0)], 40)[0]
        assert got == pytest.approx(1.0, abs=5e-3)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            simplex_moments(5, 10, np.zeros((1, 5), np.int64))

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            simplex_moments(2, 1, [[0, 0]])

    def test_exponents_are_refused_not_truncated(self):
        with pytest.raises(ValueError, match="exponent 1.7 at index 0 is not an integer"):
            cell_rule_integrals([HyperParams((1, 2))], [[1.7, 0]], 50)
        with pytest.raises(ValueError, match="exponent 1.7 at index 0 is not an integer"):
            simplex_moments(2, 50, [[1.7, 0]])
        with pytest.raises(ValueError, match="exponent -1 at index 1 must be at least 0"):
            simplex_moments(2, 50, [[1, -1]])
        with pytest.raises(ValueError, match="exponent -1 at index 1 must be at least 0"):
            simplex_moments(2, 50, [[0, 0], [1, -1]])  # the index within its row
        # A table of another shape is refused, not reshaped, and so is a row
        # count other than the number of densities.
        with pytest.raises(ValueError, match=r"table of exponents, got shape \(1, 4\)"):
            simplex_moments(2, 50, [[1, 0, 0, 1]])
        with pytest.raises(ValueError, match=r"table of exponents, got shape \(2,\)"):
            simplex_moments(2, 50, [1, 0])
        with pytest.raises(ValueError, match=r"table of exponents, got shape \(1, 1\)"):
            cell_rule_integrals([HyperParams((1, 2))], [[1]], 50)
        with pytest.raises(ValueError, match="need one exponent row per density: 1, got 2"):
            cell_rule_integrals([HyperParams((1, 2))], [[0, 0], [1, 0]], 50)
        with pytest.raises(ValueError, match="need one exponent row per density: 2, got 1"):
            cell_rule_integrals([HyperParams((1, 2))] * 2, [[0, 0]], 50)

    def test_degenerate_dimension(self):
        # The one-outcome simplex is the point x0 = 1, of weight 1.
        assert simplex_moments(1, 10, [[0], [3]]).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_normalisation_matches_quadrature(self, n):
        # The reference integrates each pdf over the whole grid.
        alphas = all_hyperparams(n, 8)[:6]
        for res in (10, 40 if n == 4 else 400):
            got = cell_rule_integrals(alphas, [(0,) * n] * len(alphas), res)
            points, weights = cells_by_meshgrid(n, res)
            for a, g in zip(alphas, got):
                monomial = np.prod(points ** (np.array(a.counts) - 1), axis=1)
                want = weights @ (float(dirichlet_normalizer(a)) * monomial)
                assert abs(g - want) <= 1e-12, (a.counts, res, g, want)

    def test_normalisation_memory_is_bounded_by_the_block(self):
        # No grid is built.  Building and caching the whole grids peaked at
        # 24.9 MiB at resolution 800 and 162 MiB at 2046, a 3-outcome grid
        # just under MAX_QUADRATURE_CELLS.
        alphas = [a for n in (1, 2, 3) for a in all_hyperparams(n, 12)]  # the law's 298
        for resolution in (800, 2046):
            tracemalloc.start()
            try:
                cell_rule_integrals(alphas, [(0,) * a.n for a in alphas], resolution)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, resolution

    def test_normalisation_detail_at_resolution_400(self):
        result = check_stoch_normalisation(42)
        assert result.passed
        assert result.detail == (
            "all 298 pseudo-count vectors with n<=3, sum<=12: worst |err| = 8.51e-05 "
            "(tol 1.0e-03), errors shrink when the resolution doubles"
        )


class TestSimplexCells:
    @pytest.mark.parametrize(
        "n,res",
        [(n, res) for n in (1, 2, 3, 4) for res in (2, 23, 40)]
        + [(2, 50), (3, 400), (3, 800), (4, 100)]
        + [(n, res) for n in (1, 2, 3, 4) for res in (3, 5)],
    )
    def test_matches_the_meshgrid_construction(self, n, res):
        # simplex_moments sums the cell rule's monomials by convolving power
        # tables; the reference sums them over the whole grid.
        points, weights = cells_by_meshgrid(n, res)
        assert len(weights) == simplex_cell_count(n, res)
        exps = np.array([*itertools.product(range(4), repeat=n), (11,) + (0,) * (n - 1),
                         (0,) * (n - 1) + (11,)])
        powers = [col ** np.arange(12)[:, None] for col in points.T]
        want = np.array([weights @ np.prod([p[k] for p, k in zip(powers, e)], axis=0)
                         for e in exps])
        got = simplex_moments(n, res, exps)
        assert np.all(np.abs(got - want) <= 1e-13 * want), np.abs(got / want - 1).max()

    @pytest.mark.parametrize("n,res", [(2, MAX_QUADRATURE_CELLS + 1), (3, 10**6), (4, 10**30)])
    def test_cell_cap_fires_before_allocation(self, n, res):
        message = rf"needs \d+ cells .*cap of {MAX_QUADRATURE_CELLS}"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                simplex_moments(n, res, np.zeros((1, n), np.int64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def sample(alpha, size, rng):
    return np.concatenate(list(dirichlet_sample_blocks(alpha, size, rng)))


class TestDirichletSampler:
    def test_symmetric_case(self):
        xs = sample(HyperParams((1, 1)), 100_000, make_rng(12))
        se = xs[:, 0].std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs[:, 0].mean() - 0.5) <= 4 * se

    def test_fixed_seed_replays_bit_identically(self):
        a = HyperParams((3, 2, 4))
        xs = sample(a, 1000, make_rng(99))
        ys = sample(a, 1000, make_rng(99))
        assert np.array_equal(xs, ys)
        x = sample(a, 1, make_rng(5))
        assert np.array_equal(x, sample(a, 1, make_rng(5)))

    @pytest.mark.parametrize("total", range(1, 14))
    def test_blocks_replay_the_one_shot_draw(self, total):
        def one_shot(alpha, size, rng):
            exps = rng.standard_exponential((size, alpha.total()))
            gammas = np.add.reduceat(exps, np.cumsum((0,) + alpha.counts)[:-1], axis=1)
            return gammas / gammas.sum(axis=1, keepdims=True)

        cuts = sorted(random.Random(total).sample(range(1, total), min(total - 1, 4)))
        alpha = HyperParams(tuple(b - a for a, b in zip((0, *cuts), (*cuts, total))))
        rows = SAMPLE_BLOCK // total
        for size in sorted({1, rows - 1, rows, rows + 1, 100_000}):
            ref, streamed = make_rng(size), make_rng(size)
            blocks = list(dirichlet_sample_blocks(alpha, size, streamed))
            assert all(len(block) <= rows for block in blocks)
            assert np.array_equal(np.concatenate(blocks), one_shot(alpha, size, ref))
            assert streamed.standard_exponential(3).tolist() == ref.standard_exponential(3).tolist()

    def test_blocks_are_drawn_as_they_are_consumed(self):
        rng = make_rng(8)

        def counter():
            return rng.bit_generator.state["state"]["counter"].tolist()

        start = counter()
        blocks = dirichlet_sample_blocks(HyperParams((1, 1)), 100_000, rng)
        assert counter() == start
        next(blocks)
        assert counter() != start
        with pytest.raises(ValueError, match="need at least one draw"):
            dirichlet_sample_blocks(HyperParams((1, 1)), 0, rng)

    def test_single_draw_is_valid_point(self):
        x = sample(HyperParams((2, 5)), 1, make_rng(0))
        assert x.shape == (1, 2) and (x > 0).all() and abs(x.sum() - 1) <= 1e-12


class TestStreamedStatistics:
    @pytest.mark.parametrize("law", [check_stoch_sampler_moments], ids=lambda law: law.__name__)
    def test_sampling_laws_hold_no_whole_sample(self, law):
        # Holding its 100k-draw sample whole, sampler-moments peaked at
        # 6.1 MiB.
        tracemalloc.start()
        try:
            assert law(1).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestExactReferences:
    ALPHAS = [HyperParams(c) for c in [(1,), (2, 1, 1), (2, 1, 3), (3, 7), (2, 2, 5, 1, 3)]]

    def test_moment_by_hand(self):
        # 2 * (3 * 4) / (6 * 7 * 8), and also Z(alpha) / Z(alpha + phi).
        alpha, phi = HyperParams((2, 1, 3)), (1, 0, 2)
        assert dirichlet_moment(alpha, phi) == F(1, 14)
        posterior = HyperParams((3, 1, 5))
        assert dirichlet_normalizer(alpha) / dirichlet_normalizer(posterior) == F(1, 14)
        assert dirichlet_moment(alpha, (0, 0, 0)) == 1
        with pytest.raises(ValueError, match="3 non-negative exponents"):
            dirichlet_moment(alpha, (1, -1, 0))
        with pytest.raises(ValueError, match="exponent 0.5 at index 0 is not an integer"):
            dirichlet_moment(alpha, (0.5, 1, 0))

    def test_degree_one_and_two_are_the_mean_and_covariance(self):
        for a in self.ALPHAS:
            total, n = a.total(), a.n
            mean = mle(a).probs
            for i in range(n):
                assert dirichlet_moment(a, [int(k == i) for k in range(n)]) == mean[i]
                for j in range(n):
                    # E[x_i x_j] is the textbook covariance plus mean * mean.
                    num = a[i] * (total - a[i]) if i == j else -a[i] * a[j]
                    cov = F(num, total * total * (total + 1))
                    ks = [(k == i) + (k == j) for k in range(n)]
                    assert dirichlet_moment(a, ks) == cov + mean[i] * mean[j]

    @staticmethod
    def exact_sums(a, draws):
        """Column sums and Gram sums of a sample whose means are exact."""
        def moment(*idx):
            return float(dirichlet_moment(a, [idx.count(i) for i in range(a.n)]))

        sums = np.array([draws * moment(j) for j in range(a.n)])
        gram = np.array([[draws * moment(j, k) for k in range(a.n)] for j in range(a.n)])
        return sums, gram

    def test_moment_z_of_the_exact_moments_is_zero(self):
        for a in self.ALPHAS[1:]:
            assert moment_z(a, 1000, *self.exact_sums(a, 1000)) < 1e-9

    @pytest.mark.parametrize("k", [0.5, 3.0, -7.25])
    def test_moment_z_counts_exact_standard_errors(self, k):
        a, draws = HyperParams((2, 1, 3)), 100
        for j in range(a.n):
            sums, gram = self.exact_sums(a, draws)
            ks = [int(i == j) for i in range(a.n)]
            var = dirichlet_moment(a, [2 * e for e in ks]) - dirichlet_moment(a, ks) ** 2
            sums[j] += k * draws * math.sqrt(float(var) / draws)
            assert moment_z(a, draws, sums, gram) == pytest.approx(abs(k), rel=1e-12, abs=0)

    def test_moment_z_of_one_outcome_is_zero(self):
        # The one-outcome simplex is a single point: every sample matches.
        assert moment_z(HyperParams((3,)), 10, np.array([10.0]), np.array([[10.0]])) == 0.0


class TestDirichletMean:
    def test_example(self):
        assert mle(HyperParams((2, 1, 1))).probs == (F(1, 2), F(1, 4), F(1, 4))

    def test_symmetric(self):
        assert mle(HyperParams((1, 1))).probs == (F(1, 2), F(1, 2))

    def test_mean_integral_matches(self):
        a = HyperParams((2, 1, 1))
        got = cell_rule_integrals([a] * 3, np.eye(3, dtype=np.int64), 400)
        assert got == pytest.approx([float(F(k, a.total())) for k in a.counts], abs=1e-3)


class TestAggregateParams:
    def test_merge_first_two(self):
        h = FinMap((0, 0, 1), 2)
        assert ms_map(h, HyperParams((2, 3, 4))) == HyperParams((5, 4))

    def test_identity(self):
        a = HyperParams((2, 3, 4))
        assert ms_map(FinMap.identity(3), a) == a

    def test_constant_map_gives_total(self):
        assert ms_map(FinMap((0,) * 3, 1), HyperParams((2, 3, 4))) == HyperParams((9,))

    def test_non_surjective_rejected(self):
        with pytest.raises(ValueError, match=r"^pseudo-count 0 at index 1 must be at least 1$"):
            ms_map(FinMap((0, 0), 2), HyperParams((1, 1)))


@st.composite
def surjections(draw, max_n=5):
    """(alpha, h, g): pseudo-counts over n <= max_n outcomes and two
    surjections onto the same codomain."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, n))
    alpha = HyperParams(tuple(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))))

    def onto():
        extra = draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
        return FinMap(tuple(draw(st.permutations([*range(m), *extra]))), m)

    return alpha, onto(), onto()


class TestPushedMoments:
    @staticmethod
    def exponents(m):
        """Every exponent vector of degree 1-4 over m outcomes."""
        return [ks.counts for d in range(1, 5) for ks in multisets(m, d)]

    def test_by_hand(self):
        # y0 = x0 + x2 under Dir(2, 3, 1): E[y0] = 3/6, E[y0^2] = 3 * 4 / (6 * 7).
        alpha, h = HyperParams((2, 3, 1)), FinMap((0, 1, 0), 2)
        assert pushed_moment(alpha, h, (1, 0)) == F(1, 2)
        assert pushed_moment(alpha, h, (2, 0)) == F(2, 7)
        identity = FinMap.identity(3)
        assert pushed_moment(alpha, identity, (1, 0, 2)) == dirichlet_moment(alpha, (1, 0, 2))

    @given(surjections())
    def test_push_is_dirichlet_of_the_aggregated_counts(self, case):
        # Exactly when the other surjection aggregates alpha differently, some
        # moment of degree 1-4 tells the two pushforwards apart.
        alpha, h, g = case
        merged, other = ms_map(h, alpha), ms_map(g, alpha)
        pushed = [(ks, pushed_moment(alpha, h, ks)) for ks in self.exponents(h.codomain_size)]
        assert all(got == dirichlet_moment(merged, ks) for ks, got in pushed)
        assert any(got != dirichlet_moment(other, ks) for ks, got in pushed) == (other != merged)


class TestOneSumCheck:
    def test_uniform_case_is_exact(self):
        # The integrand is the constant 2 on (0, s).
        for s in (F(1, 4), F(1, 2), F(4, 5)):
            assert one_sum_check(HyperParams((1, 1, 1)), Dist((s, 1 - s))) == (2 * s, 2 * s)

    def test_two_outcome_degenerate_case(self):
        # Merging both coordinates: the merged density is the point mass,
        # and the integral recovers total mass 1.
        assert one_sum_check(HyperParams((2, 1)), Dist((F(1),))) == (1, 1)

    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 30)), min_size=2, max_size=5))
    def test_fibre_integral_is_the_beta_closed_form(self, pairs):
        # The integral of y**(a-1) (s-y)**(b-1) on (0, s) is B(a, b) s**(a+b-1),
        # with B(a, b) = (a-1)! (b-1)! / (a+b-1)!.
        alpha = HyperParams(tuple(a for a, _ in pairs))
        weights = [w for _, w in pairs[1:]]
        x = [F(w, sum(weights)) for w in weights]
        a, b = alpha.counts[:2]
        beta = F(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))
        rest = math.prod(v ** (c - 1) for v, c in zip(x[1:], alpha.counts[2:]))
        want = dirichlet_normalizer(alpha) * beta * x[0] ** (a + b - 1) * rest
        assert one_sum_check(alpha, Dist(x)) == (want, want)

    def test_requires_matching_sizes(self):
        with pytest.raises(ValueError, match="expected a point of 2 coordinates, got 1"):
            one_sum_check(HyperParams((1, 1, 1)), Dist((F(1),)))

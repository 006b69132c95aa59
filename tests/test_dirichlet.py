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
    SAMPLE_BLOCK,
    HyperParams,
    density_integral,
    dirichlet_moment,
    dirichlet_normalizer,
    dirichlet_pdf,
    dirichlet_sample_blocks,
    gamma_nat,
    make_rng,
    moment_z,
    one_sum_check,
    simplex_integral,
)
from cptforge.dist import Dist
from cptforge.finset import FinMap, ms_map, multisets
from cptforge.mle import mle
from cptforge.verify import check_stoch_sampler_moments, pushed_moment


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


def closed_form(ks):
    """The integral of prod x_i**k_i over the projected simplex as the
    Dirichlet closed form prod k_i! / (sum k + n - 1)!."""
    return F(math.prod(map(math.factorial, ks)), math.factorial(sum(ks) + len(ks) - 1))


class TestSimplexQuadrature:
    """Exact integrals over the projected simplex: of monomials
    (simplex_integral) and of monomials times densities (density_integral)."""

    def test_cell_weights_sum_to_simplex_volume(self):
        for n in (1, 2, 3, 4, 7):
            assert simplex_integral((0,) * n) == F(1, math.factorial(n - 1))

    def test_constant_on_two_outcomes(self):
        assert simplex_integral([0, 0]) == 1

    def test_coordinate_mean_by_symmetry(self):
        assert simplex_integral([1, 0]) == simplex_integral([0, 1]) == F(1, 2)

    def test_linear_density_normalisation(self):
        assert density_integral(HyperParams((2, 1, 1)), (0, 0, 0)) == 1

    def test_four_outcome_normalisation(self):
        assert density_integral(HyperParams((2, 1, 1, 2)), (0, 0, 0, 0)) == 1

    def test_exponents_are_refused_not_truncated(self):
        with pytest.raises(ValueError, match="exponent 1.7 at index 0 is not an integer"):
            density_integral(HyperParams((1, 2)), [1.7, 0])
        with pytest.raises(ValueError, match="exponent 1.7 at index 0 is not an integer"):
            simplex_integral([1.7, 0])
        with pytest.raises(ValueError, match="exponent -1 at index 1 must be at least 0"):
            simplex_integral([1, -1])
        # A row of another length is refused, not cut or padded.
        with pytest.raises(ValueError, match="^expected 2 exponents, got 1$"):
            density_integral(HyperParams((1, 2)), [1])
        with pytest.raises(ValueError, match="^need the exponent of at least one coordinate$"):
            simplex_integral([])

    def test_degenerate_dimension(self):
        # The one-outcome simplex is the point x0 = 1, of weight 1.
        assert simplex_integral([0]) == simplex_integral([3]) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_normalisation_matches_quadrature(self, n):
        # Every density integrates to 1, and its monomial to the closed form.
        for a in all_hyperparams(n, 10):
            assert simplex_integral([k - 1 for k in a.counts]) == closed_form(
                [k - 1 for k in a.counts])
            assert density_integral(a, (0,) * n) == 1

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6), st.data())
    def test_density_integrals_are_the_moments(self, alpha, data):
        # The integral of x**k times the density is E[x**k], the rising-factorial
        # route, which the integrator never evaluates.
        alpha = HyperParams(tuple(alpha))
        ks = [data.draw(st.integers(0, 6)) for _ in range(alpha.n)]
        assert simplex_integral(ks) == closed_form(ks)
        assert density_integral(alpha, ks) == dirichlet_moment(alpha, ks)


def cells_by_meshgrid(n, res):
    """A centroid rule over the projected simplex, built independently of
    the integrator: the cubes of side 1 / res of a meshgrid, masked to the
    simplex, with each cube on the boundary clipped to its part inside
    (which is convex).  Each cell is its centroid, weighted by its volume,
    so the rule is exact for affine functions."""
    d = n - 1
    if d == 0:
        return np.array([[1.0]]), np.array([1.0])
    if d == 1:
        firsts = (np.arange(res, dtype=float).reshape(-1, 1) + 0.5) / res
        weights = np.full(res, 1.0 / res)
    else:
        ii, jj = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
        mask = ii + jj <= res - 1
        cells = np.stack([ii[mask], jj[mask]], axis=1)
        if d == 3:
            counts = res - cells.sum(axis=1)
            base = np.repeat(cells, counts, axis=0)
            ends = np.cumsum(counts)
            k = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
            cells = np.column_stack([base, k])
        # (volume, centroid offset) of the clipped cube, by its slack.
        clip = {2: {1: (1 / 2, 1 / 3)}, 3: {1: (1 / 6, 1 / 4), 2: (5 / 6, 9 / 20)}}[d]
        slack = res - cells.sum(axis=1)
        offsets, fracs = np.full(len(cells), 0.5), np.ones(len(cells))
        for t, (frac, centroid) in clip.items():
            offsets[slack == t], fracs[slack == t] = centroid, frac
        firsts = (cells + offsets[:, None]) / res
        weights = fracs / res**d
    return np.column_stack([firsts, 1.0 - firsts.sum(axis=1)]), weights


class TestSimplexCells:
    @pytest.mark.parametrize(
        "n,res",
        [(n, res) for n in (1, 2, 3, 4) for res in (2, 23, 40)]
        + [(2, 50), (3, 400), (3, 800), (4, 100)]
        + [(n, res) for n in (1, 2, 3, 4) for res in (3, 5)],
    )
    def test_matches_the_meshgrid_construction(self, n, res):
        # The centroid rule integrates every affine monomial exactly, and any
        # other within its second-order bound: on a convex cell of diameter
        # at most sqrt(d) / res, the Taylor remainder after the affine part
        # is at most half the Hessian's norm times the squared diameter.  In
        # the d leading coordinates, with x_last = 1 - sum, the Hessian entry
        # (a, b) of x**e is at most (e_a + e_last)(e_b + e_last) on the
        # simplex, so its Frobenius norm is at most sum_a (e_a + e_last)**2.
        d = n - 1
        points, weights = cells_by_meshgrid(n, res)
        assert weights.sum() == pytest.approx(1 / math.factorial(d), rel=1e-13)
        exps = [*itertools.product(range(4), repeat=n), (11,) + (0,) * d, (0,) * d + (11,)]
        for e in exps:
            exact = simplex_integral(e)
            rule = weights @ np.prod(points ** np.array(e), axis=1)
            if sum(e) <= 1 or d == 0:
                assert rule == pytest.approx(float(exact), rel=1e-12), e
                continue
            hessian = sum((a + e[-1]) ** 2 for a in e[:-1])
            bound = hessian * d / (2 * res**2 * math.factorial(d))
            assert abs(rule - float(exact)) <= bound * (1 + 1e-9), (e, rule, exact, bound)


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
            words = np.frombuffer(rng.randbytes(8 * size * alpha.total()), "<u8")
            u = (words >> 11) * 2.0**-53
            exps = -np.log1p(-u).reshape(size, alpha.total())
            gammas = np.add.reduceat(exps, np.cumsum((0,) + alpha.counts)[:-1], axis=1)
            return gammas / gammas.sum(axis=1, keepdims=True)

        cuts = sorted(random.Random(total).sample(range(1, total), min(total - 1, 4)))
        alpha = HyperParams(tuple(b - a for a, b in zip((0, *cuts), (*cuts, total))))
        rows = SAMPLE_BLOCK // total  # a block's rows: about SAMPLE_BLOCK exponentials
        for size in sorted({1, rows - 1, rows, rows + 1, 2 * rows, 3 * rows + 1}):
            ref, streamed = make_rng(size), make_rng(size)
            blocks = list(dirichlet_sample_blocks(alpha, size, streamed))
            assert all(len(block) <= rows for block in blocks)
            assert np.concatenate(blocks).tobytes() == one_shot(alpha, size, ref).tobytes()
            assert streamed.getstate() == ref.getstate()

    def test_blocks_are_drawn_as_they_are_consumed(self):
        rng, ref = make_rng(8), make_rng(8)
        blocks = dirichlet_sample_blocks(HyperParams((1, 1)), 100_000, rng)
        assert rng.getstate() == ref.getstate()
        next(blocks)
        ref.randbytes(8 * SAMPLE_BLOCK)  # one block: SAMPLE_BLOCK // 2 rows of 2 exponentials
        assert rng.getstate() == ref.getstate()
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
        got = [density_integral(a, [int(j == i) for j in range(3)]) for i in range(3)]
        assert got == list(mle(a).probs) == [F(1, 2), F(1, 4), F(1, 4)]


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

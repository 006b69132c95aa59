from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cptforge.bayes import (
    batch_update,
    cont_condition,
    cont_validity,
    lift_predicate,
    validity_transfer_check,
)
from cptforge.dirichlet import (
    HyperParams,
    dirichlet_density,
    dirichlet_pdf_many,
    dirichlet_sample_many,
)
from cptforge.dist import Predicate
from cptforge.finset import Multiset
from cptforge.rng import make_rng

hyperparams_st = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(
    lambda a: HyperParams(tuple(a))
)


def interior_panel(n, count, seed):
    return dirichlet_sample_many(HyperParams((1,) * n), count, make_rng(seed))


POINT = np.array([[0.2, 0.3, 0.5]])


class TestLiftPredicate:
    def test_point_predicate_lifts_to_coordinate(self):
        q = lift_predicate(Predicate.point(3, 1))
        assert q.eval_many(POINT)[0] == pytest.approx(0.3)

    def test_ones_lift_to_constant_one(self):
        q = lift_predicate(Predicate((1,) * 3))
        assert q.eval_many(POINT)[0] == pytest.approx(1.0)

    def test_dot_product(self):
        q = lift_predicate(Predicate((F(1, 2), F(1, 2), F(0))))
        assert q.eval_many(POINT)[0] == pytest.approx(0.25)

    def test_values_stay_in_unit_interval(self):
        q = lift_predicate(Predicate((F(1, 3), F(1), F(0))))
        values = q.eval_many(interior_panel(3, 50, 1))
        assert ((0.0 <= values) & (values <= 1.0)).all()


class TestContValidity:
    # Each value is checked twice: exactly through the closed form that
    # validity_transfer_check reports, and by cont_validity's quadrature.
    def test_point_predicate_gives_mean_coordinate(self):
        alpha, p = HyperParams((2, 1, 1)), Predicate.point(3, 0)
        assert validity_transfer_check(alpha, p)[1] == float(F(1, 2))
        got = cont_validity(dirichlet_density(alpha), lift_predicate(p), 200)
        assert got == pytest.approx(0.5, abs=1e-3)

    def test_constant_one(self):
        alpha, p = HyperParams((3, 1)), Predicate((1,) * 2)
        assert validity_transfer_check(alpha, p)[1] == 1.0
        got = cont_validity(dirichlet_density(alpha), lift_predicate(p), 200)
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_beta_example(self):
        alpha, p = HyperParams((3, 1)), Predicate((F(1), F(0)))
        assert validity_transfer_check(alpha, p)[1] == 0.75
        got = cont_validity(dirichlet_density(alpha), lift_predicate(p), 200)
        assert got == pytest.approx(0.75, abs=1e-3)

    def test_quadrature_agrees_with_closed_form(self):
        alpha = HyperParams((2, 3, 1))
        p = Predicate((F(1, 2), F(1, 3), F(1)))
        closed = validity_transfer_check(alpha, p)[1]
        numeric = cont_validity(dirichlet_density(alpha), lift_predicate(p), 200)
        assert numeric == pytest.approx(closed, abs=1e-3)

    def test_closed_form_unavailable_for_untagged_density(self):
        base = dirichlet_density(HyperParams((1, 1)))
        untagged = type(base)(
            n=2,
            dirichlet_params=None,
            _eval_many=base.eval_many,
        )
        got = cont_validity(untagged, lift_predicate(Predicate((1,) * 2)), resolution=100)
        assert got == pytest.approx(1.0, abs=1e-6)


class TestContCondition:
    def test_two_outcome_example(self):
        # Conditioning the flat prior on outcome 0 doubles the first coordinate.
        d = cont_condition(
            dirichlet_density(HyperParams((1, 1))),
            lift_predicate(Predicate.point(2, 0)),
        )
        assert d.dirichlet_params.alphas == (2, 1)
        ts = np.array([0.2, 0.5, 0.9])
        xs = np.column_stack([ts, 1 - ts])
        assert d.eval_many(xs) == pytest.approx(2 * ts, rel=1e-12)
        assert d.eval_many(xs) == pytest.approx(
            dirichlet_pdf_many(HyperParams((2, 1)), xs), rel=1e-12
        )

    def test_row_major_cell_update(self):
        # Observing cell (0, 2) of a 2x3 table is outcome index 2.
        alpha = HyperParams((10, 35, 25, 5, 10, 15))
        d = cont_condition(
            dirichlet_density(alpha), lift_predicate(Predicate.point(6, 2))
        )
        assert d.dirichlet_params.alphas == (10, 35, 26, 5, 10, 15)

    def test_conditioned_density_matches_incremented_pdf(self):
        alpha = HyperParams((3, 1, 2))
        d = cont_condition(
            dirichlet_density(alpha), lift_predicate(Predicate.point(3, 1))
        )
        panel = interior_panel(3, 100, 21)
        got = d.eval_many(panel)
        want = dirichlet_pdf_many(alpha.increment(1), panel)
        assert np.max(np.abs(got - want) / want) <= 1e-9

    def test_repeated_updates_commute(self):
        alpha = HyperParams((2, 2, 2))
        qi = lift_predicate(Predicate.point(3, 0))
        qj = lift_predicate(Predicate.point(3, 2))
        d_ij = cont_condition(cont_condition(dirichlet_density(alpha), qi), qj)
        d_ji = cont_condition(cont_condition(dirichlet_density(alpha), qj), qi)
        assert d_ij.dirichlet_params == d_ji.dirichlet_params
        panel = interior_panel(3, 50, 22)
        assert np.allclose(d_ij.eval_many(panel), d_ji.eval_many(panel), rtol=1e-12)

    def test_non_point_predicate_rejected(self):
        with pytest.raises(ValueError):
            cont_condition(
                dirichlet_density(HyperParams((1, 1))),
                lift_predicate(Predicate((F(1, 2), F(1, 2)))),
            )


class TestBatchUpdate:
    def test_entrywise_addition(self):
        got = batch_update(HyperParams((1, 1, 1)), Multiset((10, 5, 5)))
        assert got.alphas == (11, 6, 6)

    def test_zero_data_is_identity(self):
        a = HyperParams((2, 3))
        assert batch_update(a, Multiset((0, 0))) == a

    def test_batches_compose_additively(self):
        a = HyperParams((1, 2))
        b1, b2 = Multiset((3, 0)), Multiset((1, 4))
        assert batch_update(batch_update(a, b1), b2) == batch_update(a, b1 + b2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            batch_update(HyperParams((1, 1)), Multiset((1, 2, 3)))

    @given(hyperparams_st, st.data())
    def test_posterior_mean_is_normalised_updated_counts(self, alpha, data):
        from cptforge.dirichlet import dirichlet_mean
        from cptforge.mle import mle

        counts = Multiset(
            tuple(data.draw(st.integers(0, 20)) for _ in range(alpha.n))
        )
        posterior = batch_update(alpha, counts)
        assert dirichlet_mean(posterior) == mle(
            Multiset(tuple(a + c for a, c in zip(alpha.alphas, counts.counts)))
        )


class TestValidityTransfer:
    def test_beta_point_case(self):
        lhs, rhs = validity_transfer_check(HyperParams((3, 1)), Predicate.point(2, 0))
        assert lhs == F(3, 4)
        assert rhs == 0.75

    def test_constant_one(self):
        lhs, rhs = validity_transfer_check(HyperParams((2, 5)), Predicate((1,) * 2))
        assert lhs == 1 and rhs == 1.0

    @given(hyperparams_st, st.data())
    def test_exact_agreement(self, alpha, data):
        values = tuple(
            F(data.draw(st.integers(0, 6)), 6) for _ in range(alpha.n)
        )
        lhs, rhs = validity_transfer_check(alpha, Predicate(values))
        assert float(lhs) == rhs

import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cptforge import verify
from cptforge.bayes import cont_condition, cont_validity, validity_transfer_check
from cptforge.dirichlet import HyperParams, dirichlet_pdf
from cptforge.dist import Dist, Predicate
from cptforge.finset import Multiset

hyperparams_st = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(
    lambda a: HyperParams(tuple(a))
)


class TestContValidity:
    # Each value is checked twice, exactly: through the closed form that
    # validity_transfer_check reports, and by cont_validity's integral.
    @pytest.mark.parametrize(
        "alpha,p,value",
        [
            (HyperParams((2, 1, 1)), Predicate.point(3, 0), F(1, 2)),
            (HyperParams((2, 3, 1)), Predicate((F(1, 2), F(1, 3), F(1))), F(1, 2)),
        ],
        ids=["point-gives-mean-coordinate", "fuzzy"],
    )
    def test_worked_examples(self, alpha, p, value):
        assert validity_transfer_check(alpha, p) == (value, value)
        assert cont_validity(alpha, p) == value

    def test_constant_one(self):
        alpha, p = HyperParams((3, 1)), Predicate((1,) * 2)
        assert validity_transfer_check(alpha, p) == (1, 1)
        assert cont_validity(alpha, p) == 1
        assert type(cont_validity(alpha, p)) is F

    def test_beta_example(self):
        alpha, p = HyperParams((3, 1)), Predicate((F(1), F(0)))
        assert validity_transfer_check(alpha, p) == (F(3, 4), F(3, 4))
        assert cont_validity(alpha, p) == F(3, 4)

    @pytest.mark.parametrize("p", [Predicate.point(2, 1), Predicate.point(4, 3)],
                             ids=["shorter", "longer"])
    @pytest.mark.parametrize("call", [cont_condition, cont_validity],
                             ids=["cont_condition", "cont_validity"])
    def test_size_mismatch_refused(self, call, p):
        # A shorter point predicate would otherwise increment a coordinate
        # of the wrong Dirichlet.
        with pytest.raises(ValueError) as err:
            call(HyperParams((1, 1, 1)), p)
        assert str(err.value) == f"size mismatch: density over 3, predicate over {p.n}"

    @pytest.mark.parametrize("law", [verify.check_stoch_mean_integrals,
                                     verify.check_stoch_transfer_quadrature],
                             ids=lambda law: law.__name__)
    def test_integral_laws_run_in_little_memory(self, law):
        # The exact integrals hold a few Fractions at a time.
        tracemalloc.start()
        try:
            assert law(42).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestContCondition:
    def test_two_outcome_example(self):
        # Conditioning the flat prior on outcome 0 doubles the first coordinate.
        alpha = cont_condition(HyperParams((1, 1)), Predicate.point(2, 0))
        assert alpha == HyperParams((2, 1))
        for t in (F(1, 5), F(1, 2), F(9, 10)):
            assert dirichlet_pdf(alpha, Dist((t, 1 - t))) == 2 * t

    def test_row_major_cell_update(self):
        # Observing cell (0, 2) of a 2x3 table is outcome index 2.
        alpha = HyperParams((10, 35, 25, 5, 10, 15))
        assert cont_condition(alpha, Predicate.point(6, 2)).counts == (10, 35, 26, 5, 10, 15)

    def test_repeated_updates_commute(self):
        alpha = HyperParams((2, 2, 2))
        pi, pj = Predicate.point(3, 0), Predicate.point(3, 2)
        a_ij = cont_condition(cont_condition(alpha, pi), pj)
        a_ji = cont_condition(cont_condition(alpha, pj), pi)
        assert a_ij == a_ji == HyperParams((3, 2, 3))

    def test_non_point_predicate_rejected(self):
        with pytest.raises(ValueError, match="only point predicates"):
            cont_condition(HyperParams((1, 1)), Predicate((F(1, 2), F(1, 2))))


class TestBatchUpdate:
    def test_pseudo_counts_plus_data_are_pseudo_counts(self):
        # The multiset sum keeps the prior's type, so no re-wrapping is needed.
        assert type(HyperParams((1, 2)) + Multiset((0, 3))) is HyperParams
        assert HyperParams((1, 1)) + Multiset((4, 0)) == HyperParams((5, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            HyperParams((1, 1)) + Multiset((1, 2, 3))


class TestValidityTransfer:
    @given(hyperparams_st, st.data())
    def test_exact_agreement(self, alpha, data):
        values = tuple(
            F(data.draw(st.integers(0, 6)), 6) for _ in range(alpha.n)
        )
        lhs, rhs = validity_transfer_check(alpha, Predicate(values))
        assert lhs == rhs == cont_validity(alpha, Predicate(values))  # 1-6 outcomes

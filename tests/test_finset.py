import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cptforge.dirichlet import HyperParams
from cptforge.dist import disintegrate
from cptforge.finset import (
    FinMap,
    Multiset,
    ZeroRowError,
    ms_map,
    ms_tensor,
    multisets,
    row_extract,
)
from cptforge.mle import mle, mle_decompose

counts_st = st.lists(st.integers(0, 9), min_size=1, max_size=6).map(tuple)


class TestFinMap:
    def test_identity_and_call(self):
        h = FinMap.identity(4)
        assert [h(i) for i in range(4)] == [0, 1, 2, 3]
        assert ms_map(h, HyperParams((1,) * 4)) == HyperParams((1,) * 4)

    def test_projections_are_row_major(self):
        p1, p2 = FinMap.proj1(2, 3), FinMap.proj2(2, 3)
        assert p1.targets == (0, 0, 0, 1, 1, 1)
        assert p2.targets == (0, 1, 2, 0, 1, 2)

    def test_composition(self):
        h = FinMap((0, 0, 1), 2)
        g = FinMap((1, 0), 2)
        assert g.after(h).targets == (1, 1, 0)
        with pytest.raises(ValueError):
            h.after(g.after(h))

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            FinMap((0, 3), 3)
        # A value that is not an integer is named, not kept for ms_map to trip on.
        with pytest.raises(ValueError, match=r"^image 1.0 at index 0 is not an integer$"):
            FinMap((1.0, 0), 2)
        with pytest.raises(ValueError, match=r"^codomain size 1.5 is not an integer$"):
            FinMap((0,), 1.5)


class TestMultiset:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=r"^count -1 at index 1 must be at least 0$"):
            Multiset((1, -1))
        with pytest.raises(ValueError, match=r"^count -2 at index 0 must be at least 0$"):
            Multiset(np.array([-2, -3]))

    def test_rejects_empty_index_set(self):
        with pytest.raises(ValueError):
            Multiset(())

    @pytest.mark.parametrize(
        "counts,message",
        [
            ((1.5, 2), "count 1.5 at index 0 is not an integer"),
            ((1, np.float64(2.0)), "count np.float64(2.0) at index 1 is not an integer"),
            ((1, 2, Fraction(3, 1)), "count Fraction(3, 1) at index 2 is not an integer"),
            (("3",), "count '3' at index 0 is not an integer"),
        ],
    )
    def test_rejects_non_integer_counts(self, counts, message):
        with pytest.raises(ValueError) as err:
            Multiset(counts)
        assert str(err.value) == message

    def test_numpy_integers_become_python_ints(self):
        phi = Multiset(np.array([2**62, 3], dtype=np.int64))
        assert phi.counts == (2**62, 3) and all(type(c) is int for c in phi.counts)

    def test_sum_of_multisets_is_a_multiset(self):
        total = Multiset((1, 0)) + Multiset((2, 3))
        assert type(total) is Multiset and total.counts == (3, 3)


class TestMultisets:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_brute_force(self, n):
        # Every count vector of the total, from all vectors with entries up
        # to it; combinations_with_replacement's draw order is the count
        # vectors' descending lexicographic order.
        for size in range(7):
            got = [m.counts for m in multisets(n, size)]
            every = [c for c in itertools.product(range(size + 1), repeat=n) if sum(c) == size]
            assert len(got) == math.comb(n + size - 1, size)
            assert got == sorted(every, reverse=True)

    def test_rejects_an_empty_index_set_or_a_negative_size(self):
        for n, size in [(0, 0), (0, 2), (2, -1)]:
            with pytest.raises(ValueError):
                multisets(n, size)
        with pytest.raises(ValueError, match=r"^multiset size 1\.0 is not an integer$"):
            multisets(2, 1.0)
        with pytest.raises(ValueError, match=r"^index set size 2\.0 is not an integer$"):
            multisets(2.0, 1)


class TestMsMap:
    def test_first_projection_gives_row_totals(self):
        phi = Multiset((10, 35, 25, 5, 10, 15))
        assert ms_map(FinMap.proj1(2, 3), phi).counts == (70, 30)

    def test_second_projection_gives_column_totals(self):
        phi = Multiset((10, 35, 25, 5, 10, 15))
        assert ms_map(FinMap.proj2(2, 3), phi).counts == (15, 45, 40)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ms_map(FinMap.identity(2), Multiset((1, 2, 3)))


class TestMsMapFull:
    def test_merge_preserves_full_support(self):
        h = FinMap((0, 0, 1), 2)
        out = ms_map(h, HyperParams((1, 2, 3)))
        assert out == HyperParams((3, 3))
        assert type(ms_map(h, Multiset((1, 2, 3)))) is Multiset

    def test_constant_collapses_to_total(self):
        assert ms_map(FinMap((0,) * 2, 1), HyperParams((2, 5))) == HyperParams((7,))

    def test_rejects_non_surjective(self):
        with pytest.raises(ValueError, match="^pseudo-count 0 at index 1 must be at least 1$"):
            ms_map(FinMap((0, 0), 2), HyperParams((1, 1)))

    def test_rejects_missing_support(self):
        with pytest.raises(ValueError, match="pseudo-count 0 at index 0 must be at least 1"):
            ms_map(FinMap.identity(2), HyperParams((0, 1)))


class TestRowExtract:
    def test_example_table(self):
        rows = row_extract(Multiset((10, 35, 25, 5, 10, 15)), 3)
        assert rows[0].counts == (10, 35, 25)
        assert rows[1].counts == (5, 10, 15)
        assert all(r.total() > 0 for r in rows)

    def test_rows_keep_the_table_type(self):
        rows = row_extract(HyperParams((1, 2, 3, 4, 5, 6)), 2)
        assert rows == (HyperParams((1, 2)), HyperParams((3, 4)), HyperParams((5, 6)))
        assert all(type(row) is HyperParams for row in rows)

    def test_zero_row_reports_index(self):
        # A row of counts may be empty; only normalising it fails, naming it.
        phi = Multiset((1, 2, 0, 0, 3, 4))
        assert row_extract(phi, 2)[1] == Multiset((0, 0))
        with pytest.raises(ZeroRowError) as exc:
            mle_decompose(phi, 2)
        assert exc.value.row == 1

    @given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=2), min_size=3, max_size=3))
    def test_row_totals_match_first_marginal(self, raw):
        rows = [row if sum(row) else [1, 0] for row in raw]
        phi = Multiset(tuple(c for row in rows for c in row))
        totals = ms_map(FinMap.proj1(3, 2), phi)
        for i, row in enumerate(row_extract(phi, 2)):
            assert row.total() == totals[i]

    # Every function that splits a table into rows, on a table of 6 cells.
    SPLITS = {
        "row_extract": row_extract,
        "mle_decompose": mle_decompose,
        "disintegrate": lambda phi, m: disintegrate(mle(phi), m),
    }

    @pytest.mark.parametrize("m", [0, -1, 4, 7])
    @pytest.mark.parametrize("split", list(SPLITS.values()), ids=list(SPLITS))
    def test_row_length_must_divide_the_table(self, split, m):
        with pytest.raises(ValueError, match=rf"^row length {m} does not divide table size 6$"):
            split(Multiset((1,) * 6), m)

    @pytest.mark.parametrize("m", [1.5, 2.0, "3"])
    @pytest.mark.parametrize("split", list(SPLITS.values()), ids=list(SPLITS))
    def test_row_length_must_be_an_integer(self, split, m):
        with pytest.raises(ValueError, match=rf"^row length {m!r} is not an integer$"):
            split(Multiset((1,) * 6), m)


class TestMsTensor:
    def test_small_product(self):
        out = ms_tensor(Multiset((2, 3)), Multiset((1, 1)))
        assert out.counts == (2, 2, 3, 3)

    def test_unit_on_the_right(self):
        out = ms_tensor(Multiset((4, 7)), Multiset((1,)))
        assert out.counts == (4, 7)

    def test_zeros_propagate(self):
        out = ms_tensor(Multiset((0, 1)), Multiset((4, 0)))
        assert out.counts == (0, 0, 4, 0)

    @given(counts_st, counts_st)
    def test_tensor_total_is_product(self, a, b):
        phi, psi = Multiset(a), Multiset(b)
        assert ms_tensor(phi, psi).total() == phi.total() * psi.total()

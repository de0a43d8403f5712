"""Statistics kernel tests against brute-force definitions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkmetrics.errors import DomainError, UndefinedCorrelationError
from folkmetrics.stats import (
    BinSpec,
    average_ranks,
    binned_mean,
    log_bins,
    median_iqr,
    population_zscores,
    rank_descending,
)

from analysis_oracle import cosine
from test_similarity import coded, curve_rho


def brute_force_ranks(x):
    """Average-tie ranks by counting: 1 + #smaller + #equal/2 (excluding self)."""
    x = list(x)
    ranks = []
    for xi in x:
        smaller = sum(1 for xj in x if xj < xi)
        equal = sum(1 for xj in x if xj == xi)
        ranks.append(smaller + (equal + 1) / 2.0)
    return ranks


def brute_force_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def spearman(x, y):
    """Spearman's rho of two vectors of positive counts over the same keys, as the similarity
    curve computes it: the top-N rho with N covering every key."""
    keys = [f"k{j}" for j in range(len(x))]
    return curve_rho(*coded(dict(zip(keys, x)), dict(zip(keys, y))), len(keys))


class TestSpearman:
    def test_identity(self):
        assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversal(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 51))
            x = rng.integers(1, 11, size=n)
            y = rng.integers(1, 11, size=n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expected = brute_force_pearson(brute_force_ranks(x), brute_force_ranks(y))
            assert spearman(x, y) == pytest.approx(expected, abs=1e-9)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.integers(1, 1000, size=40)
        y = rng.integers(1, 1000, size=40)
        base = spearman(x, y)
        assert spearman(x ** 2, y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3 * y + 7) == pytest.approx(base, abs=1e-12)

    def test_constant_vector_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_too_short_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1], [2])


class TestCosine:
    def test_identical(self):
        assert cosine([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.random(10)
            y = rng.random(10)
            expected = float(np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))
            got = cosine(x, y)
            assert got == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= got <= 1.0

    def test_zero_vector_raises(self):
        with pytest.raises(DomainError):
            cosine([0, 0], [1, 2])


class TestRankDescending:
    def test_basic(self):
        assert rank_descending([5, 3, 3, 2]).tolist() == [1.0, 2.5, 2.5, 4.0]


# few distinct values, so that most draws hold many ties
tied_floats = st.lists(
    st.one_of(
        st.sampled_from([-np.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300, np.inf]),
        st.floats(allow_nan=False),
    ),
    max_size=80,
)


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(tied_floats)
    def test_equal_scipy_rankdata_to_the_bit(self, values):
        from scipy.stats import rankdata

        got = average_ranks(values)
        want = rankdata(values, method="average")
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_brute_force(self):
        values = [3.0, 1.0, 3.0, 2.0, 3.0, 1.0]
        assert average_ranks(values).tolist() == brute_force_ranks(values)


class TestMedianIQR:
    def test_odd(self):
        assert median_iqr([1, 2, 3]) == (2, 1, 3)

    def test_singleton(self):
        assert median_iqr([7]) == (7, 7, 7)

    def test_lower_median_even(self):
        assert median_iqr([1, 2, 3, 4]).median == 2

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            vals = rng.integers(0, 100, size=int(rng.integers(1, 30))).tolist()
            s = sorted(vals)
            n = len(s)
            got = median_iqr(vals)
            assert got.median == s[(n - 1) // 2]
            assert got.q25 == s[max(math.ceil(0.25 * n), 1) - 1]
            assert got.q75 == s[max(math.ceil(0.75 * n), 1) - 1]
            assert median_iqr(np.array(vals)) == got

    def test_any_iterable(self):
        assert median_iqr(v for v in [3, 1, 2]) == (2, 1, 3)
        with pytest.raises(DomainError):
            median_iqr(v for v in [])
        with pytest.raises(DomainError):
            median_iqr(np.zeros(0, dtype=np.int64))

    def test_values_keep_their_types(self):
        # a list's picks are its own values; an array's come back as Python numbers
        got = median_iqr([1, 2.5, 3])
        assert list(map(type, got)) == [float, int, int]
        assert list(map(type, median_iqr(np.array([4, 1, 3], dtype=np.int32)))) == [int] * 3
        assert list(map(type, median_iqr(np.array([0.5, 2.0])))) == [float] * 3


class TestLogBins:
    def test_powers_of_two(self):
        spec = BinSpec(base=2.0, exponent_step=1.0, max_exponent=3.0)
        assert log_bins(spec).tolist() == [1.0, 2.0, 4.0, 8.0]

    def test_single_bin_when_step_equals_max(self):
        spec = BinSpec(base=2.0, exponent_step=5.0, max_exponent=5.0)
        assert log_bins(spec).tolist() == [1.0, 32.0]

    def test_default_spec_membership_of_five(self):
        # log2(5) ~= 2.3219 -> bin [2**2.3, 2**2.4)
        edges = log_bins(BinSpec())
        idx = np.searchsorted(edges, 5.0, side="right") - 1
        assert edges[idx] == pytest.approx(2 ** 2.3)
        assert edges[idx + 1] == pytest.approx(2 ** 2.4)

    def test_invalid_spec(self):
        for spec in (dict(base=1.0), dict(exponent_step=0.0), dict(base=math.nan),
                     dict(base=math.inf), dict(exponent_step=math.nan), dict(max_exponent=math.inf),
                     dict(max_exponent=math.nan), dict(max_exponent=1e300, exponent_step=1e-300),
                     dict(base=10.0, exponent_step=1.0, max_exponent=400.0)):
            with pytest.raises(DomainError):
                BinSpec(**spec)


class TestBinnedMean:
    def test_single_bin_mean(self):
        spec = BinSpec(base=2.0, exponent_step=10.0, max_exponent=10.0)
        series = binned_mean(np.array([2.0, 3.0, 5.0]), np.array([1.0, 2.0, 6.0]), spec)
        assert len(series.rows) == 1
        assert series.rows[0].mean == pytest.approx(3.0)
        assert series.rows[0].n == 3

    def test_singleton_bins_have_zero_stderr(self):
        spec = BinSpec(base=2.0, exponent_step=1.0, max_exponent=4.0)
        series = binned_mean(np.array([1.0, 4.0]), np.array([5.0, 2.0]), spec)
        assert all(row.stderr == 0.0 for row in series.rows)
        assert all(row.n == 1 for row in series.rows)

    def test_matches_grouping_oracle(self):
        rng = np.random.default_rng(13)
        spec = BinSpec(base=2.0, exponent_step=0.5, max_exponent=6.0)
        edges = log_bins(spec)
        keys = rng.uniform(0.5, 200.0, size=300)
        values = rng.normal(size=300)
        series = binned_mean(keys, values, spec)

        groups = {}
        for k, v in zip(keys, values):
            idx = int(np.searchsorted(edges, k, side="right")) - 1
            groups.setdefault(idx, []).append(v)
        assert len(series.rows) == len(groups)
        assert series.total_count == 300
        by_low = {row.bin_low: row for row in series.rows}
        for idx, vals in groups.items():
            if idx < 0:
                low = min(k for k in keys if k < edges[0])
            elif idx == len(edges) - 1:
                low = float(edges[-1])
            else:
                low = float(edges[idx])
            row = by_low[low]
            # each bin's values add up in input order, as the dict's lists hold them
            assert row.mean == np.mean(vals)
            expected_err = 0.0 if len(vals) == 1 else np.std(vals, ddof=1) / math.sqrt(len(vals))
            assert row.stderr == expected_err
            assert row.n == len(vals)

    def test_bins_contiguous_and_sorted(self):
        rng = np.random.default_rng(17)
        series = binned_mean(rng.integers(1, 10_000, size=500), np.ones(500), BinSpec())
        lows = [row.bin_low for row in series.rows]
        assert lows == sorted(lows)
        for a, b in zip(series.rows, series.rows[1:]):
            assert a.bin_high <= b.bin_low or a.bin_high == b.bin_low

    def test_empty_input(self):
        assert binned_mean(np.zeros(0), np.zeros(0), BinSpec()).rows == ()

    def test_keys_and_values_of_different_lengths(self):
        with pytest.raises(DomainError):
            binned_mean(np.ones(3), np.ones(2), BinSpec())


class TestPopulationZscores:
    def test_two_point(self):
        z = population_zscores(np.array([1.0, 3.0]))
        assert z.tolist() == [-1.0, 1.0]

    def test_constant_maps_to_zero(self):
        assert population_zscores(np.array([4.0, 4.0, 4.0])).tolist() == [0.0, 0.0, 0.0]

    def test_equal_values_with_rounded_std_map_to_zero(self):
        values = np.full(7, 1 / 7)
        assert values.std() > 0
        assert population_zscores(values).tolist() == [0.0] * 7

    def test_mean_zero_std_one(self):
        rng = np.random.default_rng(23)
        z = population_zscores(rng.random(100))
        assert abs(z.mean()) < 1e-9
        assert abs(z.std(ddof=0) - 1.0) < 1e-9

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4)])
    def test_empty_input_maps_to_empty_without_warnings(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert population_zscores(np.zeros(shape)).shape == shape

    @pytest.mark.parametrize("width", [1, 2, 7, 129, 9000])
    def test_rows_equal_one_dimensional_calls_bit_for_bit(self, width):
        rng = np.random.default_rng(width)
        block = rng.random((6, width)) ** 3
        block[1] = 1 / 7
        block[2] = 4.0
        block[3, : width // 2] = 0.0
        rows = population_zscores(block)
        for row, values in zip(rows, block):
            assert row.tobytes() == population_zscores(values).tobytes()
            if not np.all(values == values[0]):
                expected = (values - values.mean()) / values.std(ddof=0)
                assert row.tobytes() == expected.tobytes()
        assert rows[1].tolist() == rows[2].tolist() == [0.0] * width

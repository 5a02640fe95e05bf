"""Spacing counts: oracle equivalence, conventions, seam handling, scans."""

import csv
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersieve import spacing
from powersieve.rationals import enumerate_set
from powersieve.spacing import (
    BRUTEFORCE_MAX_POINTS,
    ScanReport,
    SpacingQuery,
    conjecture_scan,
    neighbor_counts_bruteforce,
    neighbor_counts_sorted,
    spacing_bound_ratio,
    spacing_count_bruteforce,
    spacing_count_fast,
    table1_statistic,
)


def fraction_columns(points):
    pts = sorted(points)
    nums = np.array([p.numerator for p in pts], dtype=object)
    dens = np.array([p.denominator for p in pts], dtype=object)
    return nums, dens


def fraction_counts(points, t):
    """Plain Fraction count of the x' != x with ||x - x'|| < t, per point."""
    out = []
    for x in points:
        dists = [min((x - y) % 1, (y - x) % 1) for y in points if y != x]
        out.append(sum(d < t for d in dists))
    return out


class TestQueryValidation:
    def test_rejects_bad_parameters(self):
        for bad in [(0, 2, 1), (1, 1, 1), (1, 2, 0)]:
            with pytest.raises(ValueError):
                SpacingQuery(*bad)


class TestKnownCounts:
    def test_singleton_window_boundary(self):
        # S(1,2) = {1/4, 3/4}: the only gap is exactly 1/2, strict < fails
        res = spacing_count_bruteforce(SpacingQuery(1, 2, 1))
        assert res.count == 0

    def test_self_exclusion_forced_by_singleton(self):
        # with the self pair included this would be 1, never 0
        assert table1_statistic(1) == 0

    def test_q2_wide_threshold_still_empty(self):
        # minimal gap 1/144 > 1/2000
        res = spacing_count_bruteforce(SpacingQuery(2, 2, 1000))
        assert res.count == 0
        assert spacing_count_fast(SpacingQuery(2, 2, 1000)).count == 0

    def test_witness_attains_the_count(self):
        res = spacing_count_fast(SpacingQuery(4, 2, 64))
        hist = dict(
            (str(p), c) for p, c in res.neighbor_histogram
        )
        assert hist[str(res.witness)] == res.count
        assert res.count == max(hist.values())

    def test_bruteforce_guard(self):
        query = SpacingQuery(13, 3, 10)
        with pytest.raises(ValueError, match="spacing_count_fast"):
            spacing_count_bruteforce(query)
        assert len(enumerate_set(13, 3)) > BRUTEFORCE_MAX_POINTS


class TestOracleEquivalence:
    @pytest.mark.parametrize("Q", range(1, 8))
    @pytest.mark.parametrize("k", [2, 3])
    def test_fast_equals_bruteforce_small(self, Q, k):
        fs = enumerate_set(Q, k)
        Ns = (10, Q ** 3, Q ** (k + 1), 2 * Q ** (k + 1))
        brute_rows = neighbor_counts_bruteforce(
            fs.numerators, fs.denominators(), [1] * 4, [2 * N for N in Ns]
        )
        for N, brute_counts in zip(Ns, brute_rows):
            fast = spacing_count_fast(SpacingQuery(Q, k, N), fs)
            assert fast.count == brute_counts.max()
            assert np.array_equal(fast.counts, brute_counts)

    def test_per_point_counts_agree(self):
        fs = enumerate_set(5, 2)
        nums, dens = fs.numerators, fs.denominators()
        for t_num, t_den in [(1, 2 * 125), (1, 144), (1, 100), (1, 2)]:
            cb = neighbor_counts_bruteforce(nums, dens, t_num, t_den)
            cf = neighbor_counts_sorted(nums, dens, t_num, t_den)
            assert np.array_equal(cb, cf)


class TestMonotonicity:
    @pytest.mark.parametrize("Q,k", [(3, 2), (5, 2), (2, 3)])
    def test_shrinking_threshold_never_gains(self, Q, k):
        fs = enumerate_set(Q, k)
        prev = None
        for N in sorted({1, 2, 5, 10, 50, Q ** 3, 2 * Q ** 3, 10 * Q ** 3}):
            m = spacing_count_fast(SpacingQuery(Q, k, N), fs).count
            if prev is not None:
                assert m <= prev
            prev = m


class TestSeam:
    def test_rotation_invariance_on_synthetic_points(self):
        # generic rationals pushed against the 0/1 seam, then rotated by 1/2
        rng = random.Random(99)
        pts = {Fraction(1, 500), Fraction(499, 500), Fraction(3, 500)}
        while len(pts) < 40:
            pts.add(Fraction(rng.randrange(1, 999), 999))
        for t_num, t_den in [(1, 100), (1, 40), (3, 1000)]:
            base = neighbor_counts_sorted(*fraction_columns(pts), t_num, t_den)
            rotated = [(p + Fraction(1, 2)) % 1 for p in pts]
            rot = neighbor_counts_sorted(*fraction_columns(rotated), t_num, t_den)
            assert sorted(base.tolist()) == sorted(rot.tolist())
            brute = neighbor_counts_bruteforce(*fraction_columns(pts), t_num, t_den)
            assert sorted(base.tolist()) == sorted(brute.tolist())

    def test_threshold_above_half_counts_everything(self):
        pts = [Fraction(i, 7) for i in range(7)]
        counts = neighbor_counts_sorted(*fraction_columns(pts), 2, 3)
        assert counts.tolist() == [6] * 7

    def test_sorted_engine_rejects_unsorted_input(self):
        nums = np.array([3, 1], dtype=object)
        dens = np.array([7, 7], dtype=object)
        with pytest.raises(ValueError, match="strictly increasing"):
            neighbor_counts_sorted(nums, dens, 1, 10)

    def test_point_at_zero_is_its_own_mirror(self):
        # 0 sits on the seam; its backward arc must wrap to the top points
        pts = [Fraction(0), Fraction(1, 50), Fraction(49, 50), Fraction(1, 2)]
        for t_num, t_den in [(1, 20), (1, 40), (1, 3)]:
            fast = neighbor_counts_sorted(*fraction_columns(pts), t_num, t_den)
            brute = neighbor_counts_bruteforce(*fraction_columns(pts), t_num, t_den)
            assert fast.tolist() == brute.tolist()


@st.composite
def seam_point_sets(draw):
    """Distinct fractions with denominators <= 12, always holding 0 and a
    point on each side of the 0/1 seam, plus the distance of one pair."""
    e = draw(st.integers(2, 12))
    pts = {Fraction(0), Fraction(1, e), Fraction(e - 1, e)}
    for a, d in draw(st.lists(st.tuples(st.integers(0, 11), st.integers(1, 12)))):
        pts.add(Fraction(a % d, d))
    pts = sorted(pts)
    x, y = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=2, unique=True))
    d = (x - y) % 1
    return pts, min(d, 1 - d)


class TestEngineProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        case=seam_point_sets(),
        t_free=st.fractions(min_value=Fraction(1, 200), max_value=1, max_denominator=200),
    )
    def test_sorted_equals_bruteforce_per_point(self, case, t_free):
        pts, tie = case
        nums, dens = fraction_columns(pts)
        # t = 1/2 is the largest threshold the cover count handles; at t = tie
        # the pair that set it sits exactly on the strict < boundary
        for t in (Fraction(1, 2), tie, t_free):
            fast = neighbor_counts_sorted(nums, dens, t.numerator, t.denominator)
            brute = neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator)
            assert fast.tolist() == brute.tolist()


def wide_denominator_case():
    """Points with denominators past 2**31, near twins across the seam, and
    four thresholds, one of them a pair distance."""
    rng = random.Random(31)
    pts = set()
    while len(pts) < 60:
        d, e = rng.randrange(2 ** 31 + 1, 2 ** 34), rng.randrange(2 ** 31 + 1, 2 ** 34)
        a = rng.randrange(d)
        pts.add(Fraction(a, d))
        # a near twin a few units of 1/e away, across the seam when a/d is near 0
        pts.add(Fraction((a * e // d + rng.randrange(-3, 4)) % e, e))
    pts = sorted(pts)
    d = (pts[7] - pts[3]) % 1
    return pts, [Fraction(1, 40), Fraction(1, 2), min(d, 1 - d), Fraction(1, 2 ** 32)]


def wide_threshold_case():
    """Denominators <= 12 with thresholds near 1/30 and just above the minimal
    gap 1/132, whose numerators and denominators are near 10**18."""
    pts = sorted({Fraction(a, d) for d in range(1, 13) for a in range(d)})
    return pts, [Fraction(10 ** 17 + 3, 3 * 10 ** 18), Fraction(1, 132) + Fraction(1, 10 ** 17)]


class TestObjectWidth:
    """Columns whose engine products reach 2**62 run in Python integers."""

    @staticmethod
    def check_both_engines(pts, t):
        nums, dens = fraction_columns(pts)
        wide, _ = spacing._engine_columns(nums, dens, t.numerator, t.denominator)
        assert wide.dtype == object
        expected = fraction_counts(pts, t)
        fast = neighbor_counts_sorted(nums, dens, t.numerator, t.denominator)
        brute = neighbor_counts_bruteforce(nums, dens, t.numerator, t.denominator)
        assert fast.tolist() == expected
        assert brute.tolist() == expected

    def test_denominators_above_2_31(self):
        pts, thresholds = wide_denominator_case()
        for t in thresholds:
            self.check_both_engines(pts, t)

    def test_threshold_pushes_small_denominators_past_2_62(self):
        pts, thresholds = wide_threshold_case()
        for t in thresholds:  # 2 * 12**2 * t_den > 2**62
            assert 2 * 12 ** 2 * t.denominator >= 2 ** 62
            self.check_both_engines(pts, t)


class TestOracleBroadcast:
    """A threshold sequence gives one row per threshold from one sweep."""

    @staticmethod
    def check_rows(nums, dens, thresholds):
        t_nums = [t.numerator for t in thresholds]
        t_dens = [t.denominator for t in thresholds]
        rows = neighbor_counts_bruteforce(nums, dens, t_nums, t_dens)
        assert rows.shape == (len(thresholds), len(nums))
        for row, t_num, t_den in zip(rows, t_nums, t_dens):
            single = neighbor_counts_bruteforce(nums, dens, t_num, t_den)
            assert single.shape == (len(nums),)
            assert row.tolist() == single.tolist()
        return rows

    def test_rows_equal_scalar_calls_on_a_fraction_set(self):
        fs = enumerate_set(5, 2)
        thresholds = [Fraction(1, 2 * N) for N in (10, 125, 625, 1250)]
        thresholds += [Fraction(1, 2), Fraction(3, 1000)]
        self.check_rows(fs.numerators, fs.denominators(), thresholds)

    @settings(max_examples=50, deadline=None)
    @given(
        case=seam_point_sets(),
        t_free=st.fractions(min_value=Fraction(1, 200), max_value=1, max_denominator=200),
    )
    def test_rows_equal_scalar_calls_on_seam_sets(self, case, t_free):
        pts, tie = case
        self.check_rows(*fraction_columns(pts), [Fraction(1, 2), tie, t_free])

    @pytest.mark.parametrize("case", [wide_denominator_case, wide_threshold_case])
    def test_rows_equal_scalar_calls_at_object_width(self, case):
        pts, thresholds = case()
        nums, dens = fraction_columns(pts)
        t_num = max(t.numerator for t in thresholds)
        t_den = max(t.denominator for t in thresholds)
        assert spacing._engine_columns(nums, dens, t_num, t_den)[0].dtype == object
        rows = self.check_rows(nums, dens, thresholds)
        assert rows.tolist() == [fraction_counts(pts, t) for t in thresholds]

    def test_threshold_above_half_counts_every_other_point(self):
        fs = enumerate_set(3, 2)
        n = len(fs)
        rows = self.check_rows(
            fs.numerators, fs.denominators(), [Fraction(2, 3), Fraction(1, 54), Fraction(3, 5)]
        )
        assert rows[0].tolist() == rows[2].tolist() == [n - 1] * n
        assert rows[1].max() < n - 1

    def test_empty_point_set(self):
        empty = np.zeros(0, dtype=np.int64)
        assert neighbor_counts_bruteforce(empty, empty, 1, 10).shape == (0,)
        assert neighbor_counts_bruteforce(empty, empty, [1, 2], [10, 3]).shape == (2, 0)

    def test_threshold_lengths_must_match(self):
        fs = enumerate_set(2, 2)
        nums, dens = fs.numerators, fs.denominators()
        for t_num, t_den in [([1, 1], [10]), ([1], [10, 20]), (1, [10]), ([1], 10)]:
            with pytest.raises(ValueError, match="one length"):
                neighbor_counts_bruteforce(nums, dens, t_num, t_den)


class TestOracleMemory:
    def test_block_buffers_bound_the_peak(self):
        # four int64 block buffers and a bool mask are 33 bytes a cell; 40
        # leaves room for the row and column sums, while forming the
        # products as fresh temporaries per block takes about 49
        fs = enumerate_set(6, 3)
        nums, dens = fs.numerators, fs.denominators()
        tracemalloc.start()
        try:
            counts = neighbor_counts_bruteforce(nums, dens, 1, 2 * 6 ** 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < spacing._BLOCK_ROWS * len(nums) * 40 + counts.nbytes


class TestScanStatistic:
    def test_matches_frozen_regression(self, data_dir):
        # frozen from this engine after the oracle-equivalence run; guards drift
        with open(data_dir / "table1_computed.csv") as fh:
            frozen = {int(r["Q"]): int(r["M"]) for r in csv.DictReader(fh)}
        for Q in range(1, 26):
            assert table1_statistic(Q) == frozen[Q]

    def test_published_reference_diverges_from_the_definition(self, data_dir):
        """The published reference pairs are not the computed statistic.

        The witness: 7/16 and 4/9 both lie in S(2, 2) and are exactly 1/144
        apart, so twice the distance is 1/72 < 1/8 and M(2) >= 1, yet the
        published value for Q = 2 is 0.  Kept as a pinned fact so the
        discrepancy is visible and intentional, not a silent regression.
        """
        with open(data_dir / "table1_expected.csv") as fh:
            published = {int(r["Q"]): int(r["M"]) for r in csv.DictReader(fh)}
        assert published[2] == 0
        assert table1_statistic(2) == 1


class TestBoundRatio:
    def test_zero_numerator(self):
        assert spacing_bound_ratio(1, 1, 0.0) == 0.0

    def test_frozen_regression_values(self):
        assert spacing_bound_ratio(10, 1000, 0.0) == pytest.approx(
            0.6826352974790716, rel=1e-12
        )
        assert spacing_bound_ratio(100, 10 ** 6, 0.0) == pytest.approx(
            0.8571428571428571, rel=1e-12
        )

    def test_epsilon_only_shrinks(self):
        assert spacing_bound_ratio(10, 1000, 0.5) < spacing_bound_ratio(10, 1000, 0.0)


class TestConjectureScan:
    def test_singleton_cubic_window(self):
        report = conjecture_scan(1, 1, 3)
        # S(1,3) = {1/8, 3/8, 5/8, 7/8}; at threshold 1/2 each point sees the
        # two neighbors at distance 1/4 but not the antipode at exactly 1/2;
        # the open threshold is 1 > 1/2, so every other point counts
        assert report.rows[0].count == 2
        assert report.rows[0].count_open == 3

    def test_running_max_prefix(self):
        report = conjecture_scan(1, 10, 2)
        counts = [r.count for r in report.rows]
        assert counts == [table1_statistic(Q) for Q in range(1, 11)]
        assert report.running_max == max(counts)

    def test_open_threshold_counts_at_least_as_many(self):
        # the open convention threshold 1/Q**(k+1) is twice as wide
        for row in conjecture_scan(2, 8, 2).rows:
            assert row.count_open >= row.count

    def test_fit_shape(self):
        report = conjecture_scan(1, 12, 2)
        assert isinstance(report, ScanReport)
        assert report.fit_slope > 0  # counts grow with Q in this range

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            conjecture_scan(5, 4, 2)

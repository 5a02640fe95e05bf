"""Enumeration, exact order, width guards and the set cache."""

import re
import struct
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from powersieve import rationals
from powersieve.arith import totient, totients
from powersieve.rationals import (
    FractionSet,
    PowerFraction,
    enumerate_set,
    expected_cardinality,
    strictly_increasing,
)


def brute_count(Q: int, k: int) -> int:
    """Independent double-loop count of coprime pairs (a, q)."""
    n = 0
    for q in range(Q + 1, 2 * Q + 1):
        for a in range(1, q ** k):
            if gcd(a, q) == 1:
                n += 1
    return n


def float_sorted_set(Q: int, k: int):
    """S(Q, k) as (a, q) columns built from a gcd mask and sorted by float value,
    checked strictly increasing by exact cross products."""
    a, q = (np.concatenate(c) for c in zip(*[
        (np.arange(1, b ** k), np.full(b ** k - 1, b)) for b in range(Q + 1, 2 * Q + 1)]))
    a, q = a[np.gcd(a, q) == 1], q[np.gcd(a, q) == 1]
    order = np.argsort(a / q ** k, kind="stable")
    a, q, d = a[order], q[order], q[order] ** k
    assert np.all(a[:-1] * d[1:] < a[1:] * d[:-1])
    return a, q


class TestEnumeration:
    def test_smallest_window(self):
        fs = enumerate_set(1, 2)
        assert [(p.a, p.q) for p in fs] == [(1, 2), (3, 2)]
        assert [p.as_fraction() for p in fs] == [Fraction(1, 4), Fraction(3, 4)]

    def test_q2_cardinality(self):
        fs = enumerate_set(2, 2)
        assert len(fs) == 14  # q=3 gives 6, q=4 gives 8

    @pytest.mark.parametrize("Q", range(1, 11))
    @pytest.mark.parametrize("k", [2, 3])
    def test_cardinality_vs_double_loop(self, Q, k):
        assert len(enumerate_set(Q, k)) == brute_count(Q, k)

    def test_cardinality_vs_totient_formula(self):
        # compare the phi-sum closed form against a gcd count, independent of arith.totient
        fs = enumerate_set(10, 2)
        formula = sum(q * sum(gcd(a, q) == 1 for a in range(q)) for q in range(11, 21))
        assert len(fs) == formula == expected_cardinality(10, 2)

    @pytest.mark.parametrize("Q,k", [(1, 2), (4, 2), (9, 2), (3, 3), (6, 3)])
    def test_sorted_strictly_increasing(self, Q, k):
        fs = enumerate_set(Q, k)
        vals = [p.as_fraction() for p in fs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("Q,k", [(1, 2), (2, 2), (5, 2), (7, 3), (1, 4), (3, 4)])
    def test_columns_equal_an_independent_sort(self, Q, k):
        # each base's block is written in place; the columns are the sorted set all the same
        fs = enumerate_set(Q, k)
        points = sorted((Fraction(a, q ** k), a, q) for q in range(Q + 1, 2 * Q + 1)
                        for a in range(1, q ** k) if gcd(a, q) == 1)
        assert fs.numerators.tolist() == [a for _, a, _ in points]
        assert fs.bases.tolist() == [q for _, _, q in points]
        assert fs.numerators.dtype == fs.bases.dtype == np.int64

    @pytest.mark.parametrize("Q,k", [*((Q, 2) for Q in range(1, 41)), (100, 2), (30, 3), (12, 4)])
    def test_columns_equal_a_whole_set_float_sort(self, Q, k):
        # only the lower half is sorted, on packed keys, and then mirrored
        a, q = float_sorted_set(Q, k)
        fs = enumerate_set(Q, k)
        assert np.array_equal(fs.numerators, a) and np.array_equal(fs.bases, q)

    def test_expected_cardinality_equals_the_per_base_totient_sum(self):
        # one sieve of the window against a factorization per base
        for Q in [*range(1, 301), 27554]:
            for k in ((2, 3, 4) if Q <= 300 else (2,)):
                assert expected_cardinality(Q, k) == sum(
                    q ** (k - 1) * totient(q) for q in range(Q + 1, 2 * Q + 1))

    def test_totients_of_a_window(self):
        assert totients(1, 1000).tolist() == [totient(n) for n in range(1, 1000)]
        assert totients(97, 211).tolist() == [totient(n) for n in range(97, 211)]
        assert totients(7, 7).tolist() == [] and totients(1, 2).tolist() == [1]
        with pytest.raises(ValueError, match="1 <= lo <= hi"):
            totients(0, 5)

    def test_all_elements_valid(self):
        for p in enumerate_set(3, 2):
            assert gcd(p.a, p.q) == 1
            assert 1 <= p.a < p.q ** p.k
            assert 3 < p.q <= 6

    def test_window_never_empty(self):
        assert len(enumerate_set(1, 3)) == 4  # q=2: a in {1,3,5,7}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_set(0, 2)
        with pytest.raises(ValueError):
            enumerate_set(3, 1)

    def test_overflow_guard_names_the_denominator(self):
        # S(3, 12) is the smallest set whose cross products (2Q)**(2k) reach
        # 2**62; it has 929,295,220 points and is refused before any of them.
        # At k = 10**7 the bit-length bound refuses before (2Q)**k (1.25 MB
        # at Q = 1) is formed.
        for Q, k in [(2 ** 32, 2), (3, 12), (1, 10 ** 7), (500, 10 ** 7)]:
            tracemalloc.start()
            try:
                with pytest.raises(OverflowError, match=r"q\*\*k"):
                    enumerate_set(Q, k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20
        assert expected_cardinality(3, 12) == 929_295_220

    def test_one_count_per_set(self, monkeypatch, tmp_path):
        # enumerate_set and read_cache check (Q, k) before allocating, and the
        # FractionSet they build checks it again: the closed form runs once
        calls = []
        count = rationals.expected_cardinality
        monkeypatch.setattr(rationals, "expected_cardinality",
                            lambda Q, k: calls.append((Q, k)) or count(Q, k))
        rationals._checked_size.cache_clear()
        enumerate_set(7, 2).write_cache(tmp_path / "s.bin")
        assert calls == [(7, 2)]
        rationals._checked_size.cache_clear()
        FractionSet.read_cache(tmp_path / "s.bin")
        assert calls == [(7, 2)] * 2
        rationals._checked_size.cache_clear()  # drop counts taken through the spy

    def test_admitted_points_are_at_least_2_to_the_minus_48_apart(self):
        # enumerate_set's sort keys cannot tie or swap because distinct points
        # of an admitted S(Q, k) differ by (2Q)**(-2k), 4 units of 2**-50 or
        # more; the widest admitted sets, S(2, 12) and S(1, 24), reach 2**-48
        widest = []
        for k in range(2, 32):
            for Q in range(1, 200):
                try:
                    rationals._checked_size(Q, k)
                except (ValueError, OverflowError):
                    break
                widest.append(((2 * Q) ** (2 * k), Q, k))
        assert max(widest)[0] == 2 ** 48
        assert sorted(w[1:] for w in widest if w[0] == 2 ** 48) == [(1, 24), (2, 12)]


    def test_admitted_sets_meet_the_sort_key_premises(self):
        # with no enumeration: for every admitted S(Q, k) the key
        # floor(a 2**50 / q**k) of a point below 1/2 (under 2**49) packs its
        # base into bits(Q - 1) low bits below 2**62, distinct points are 4
        # key units apart or more, and q**k <= 2**24 puts the rebuilt a
        # within 2**-26 of it
        admitted = 0
        for k in range(2, 32):
            for Q in range(1, 200):
                try:
                    rationals._checked_size(Q, k)
                except (ValueError, OverflowError):
                    break
                admitted += 1
                assert (2 * Q) ** k <= 2 ** 24 and (2 * Q) ** (2 * k) <= 2 ** 48
                assert (2 * Q) ** k * 2 ** 26 <= 2 ** rationals._KEY_BITS
                assert 4 * (2 * Q) ** (2 * k) <= 2 ** rationals._KEY_BITS
                assert 2 ** (rationals._KEY_BITS - 1) << (Q - 1).bit_length() <= 2 ** 62
        assert admitted > 200


class TestOrderCertificate:
    """The blocked certificate equals the one-shot cross-product expression."""

    @staticmethod
    def full_array(nums, dens):
        return bool(np.all(nums[:-1] * dens[1:] < nums[1:] * dens[:-1]))

    @pytest.mark.parametrize("extra", [0, 1, 2])
    @pytest.mark.parametrize("blocks", [0, 1])
    def test_matches_the_full_array_expression(self, blocks, extra):
        n = blocks * rationals._CERTIFY_BLOCK + extra  # 0, 1, 2, a block, + 1, + 2
        fs = enumerate_set(40, 2)  # 118,548 points, more than seven blocks
        nums, dens = fs.numerators[:n], fs.denominators()[:n]
        assert strictly_increasing(nums, dens) is self.full_array(nums, dens) is True
        for pos in {0, n // 2, rationals._CERTIFY_BLOCK - 1, n - 2} & set(range(n - 1)):
            swapped_nums, swapped_dens = nums.copy(), dens.copy()
            swapped_nums[[pos, pos + 1]] = nums[[pos + 1, pos]]
            swapped_dens[[pos, pos + 1]] = dens[[pos + 1, pos]]
            got = strictly_increasing(swapped_nums, swapped_dens)
            assert got is self.full_array(swapped_nums, swapped_dens) is False

    def test_pair_across_a_block_seam(self):
        # the pair (B - 1, B) straddles the first two blocks; a tie there fails
        fs = enumerate_set(40, 2)
        b = rationals._CERTIFY_BLOCK
        nums, bases = fs.numerators[: 2 * b].copy(), fs.bases[: 2 * b].copy()
        nums[b], bases[b] = nums[b - 1], bases[b - 1]
        assert not strictly_increasing(nums, bases, 2)
        assert not self.full_array(nums, bases ** 2)
        assert strictly_increasing(fs.numerators, fs.bases, 2)

    def test_powers_the_bases_block_by_block(self):
        # k raises the bases per block: the same answer as a full q**k column
        fs = enumerate_set(30, 2)
        assert strictly_increasing(fs.numerators, fs.bases, 2)
        assert strictly_increasing(fs.numerators, fs.denominators())
        assert not strictly_increasing(fs.numerators[::-1], fs.bases[::-1], 2)


class TestPowerFraction:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PowerFraction(2, 4, 2)  # gcd(2, 4) != 1
        with pytest.raises(ValueError):
            PowerFraction(9, 3, 2)  # a = q**k
        with pytest.raises(ValueError):
            PowerFraction(0, 3, 2)
        with pytest.raises(ValueError):
            PowerFraction(1, 3, 1)

    def test_huge_power_refused_before_it_is_formed(self):
        # 1000**300000 has about 3 million bits; the bit-length bound refuses it
        # from 1000 >= 2**9 alone, so the message names 300000*9 + 1 bits
        start = time.process_time()
        with pytest.raises(OverflowError, match=r"1000\*\*300000 has at least 2700001 bits"):
            PowerFraction(1, 1000, 300000)
        assert time.process_time() - start < 0.05

    def test_largest_denominator_inside_the_budget(self):
        # q**k = (2**32 - 1)**2 < 2**64 is accepted, 2**64 is refused
        assert PowerFraction(1, 2 ** 32 - 1, 2).denominator < 2 ** 64
        with pytest.raises(OverflowError, match="more than 64"):
            PowerFraction(1, 2 ** 32, 2)

    def test_value_in_unit_interval(self):
        p = PowerFraction(7, 4, 2)
        assert 0 < float(p) < 1
        assert p.as_fraction() == Fraction(7, 16)


class TestSpacingFloor:
    @pytest.mark.parametrize("Q", range(1, 7))
    def test_exact_floor_for_quadratic_sets(self, Q):
        """Distinct elements are at least 1/(2Q)**4 apart; report the min."""
        fs = enumerate_set(Q, 2)
        vals = [p.as_fraction() for p in fs]
        gaps = [b - a for a, b in zip(vals, vals[1:])]
        gaps.append(1 - (vals[-1] - vals[0]))
        min_gap = min(min(g, 1 - g) for g in gaps)
        floor = Fraction(1, (2 * Q) ** 4)
        assert min_gap >= floor
        # the constant-free Q**-4 statement is reported, not asserted
        print(f"Q={Q}: exact min gap {min_gap} (floor {floor}, Q**-4 = {Fraction(1, Q**4)})")


class TestSerialization:
    def test_binary_cache_roundtrip(self, tmp_path):
        fs = enumerate_set(3, 2)
        path = tmp_path / "s32.bin"
        fs.write_cache(path)
        back = FractionSet.read_cache(path)
        assert back.Q == 3 and back.k == 2 and len(back) == len(fs)
        assert np.array_equal(
            np.asarray(back.numerators, dtype=np.int64),
            np.asarray(fs.numerators, dtype=np.int64),
        )
        assert np.array_equal(
            np.asarray(back.bases, dtype=np.int64),
            np.asarray(fs.bases, dtype=np.int64),
        )

    def test_cache_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a cache at all")
        with pytest.raises(ValueError, match="not a fraction-set cache"):
            FractionSet.read_cache(path)
        # a header claiming S(3, 12), too wide for int64 columns
        path.write_bytes(rationals._CACHE_MAGIC + struct.pack("<QQQ", 3, 12, 929_295_220))
        with pytest.raises(OverflowError, match=r"q\*\*k = 2176782336"):
            FractionSet.read_cache(path)
        # a whole-set file of the earlier format, which held all |S| records
        path.write_bytes(b"PWFRSET1" + struct.pack("<QQQ", 2, 2, 14) + bytes(16 * 14))
        with pytest.raises(ValueError, match="not a fraction-set cache"):
            FractionSet.read_cache(path)

    @pytest.mark.parametrize("Q,k,message", [(3, 1, "k must be >= 2, got 1"),
                                             (0, 2, "Q must be >= 1, got 0")])
    def test_cache_refuses_headers_enumerate_set_refuses(self, tmp_path, Q, k, message):
        # a k = 1 header is refused here, not only by the CLI's (Q, k) match
        path = tmp_path / "bad.bin"
        path.write_bytes(rationals._CACHE_MAGIC + struct.pack("<QQQ", Q, k, 0))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            FractionSet.read_cache(path)
        with pytest.raises(ValueError, match=message):
            enumerate_set(Q, k)

    def test_cache_rejects_truncation(self, tmp_path):
        fs = enumerate_set(2, 2)
        path = tmp_path / "s22.bin"
        fs.write_cache(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        # S(2, 2) has 14 points: the file holds the 7 records of L, 112 bytes
        with pytest.raises(ValueError, match="truncated or overlong cache: 104 bytes "
                                             "of records, expected 112"):
            FractionSet.read_cache(path)

    @pytest.mark.parametrize("Q,k", [(Q, 2) for Q in range(1, 51)]
                             + [(Q, 3) for Q in range(1, 16)] + [(12, 4)])
    def test_roundtrip_equals_enumeration(self, tmp_path, Q, k):
        # the file holds L alone (S(1, 2) = {1/4, 3/4}: one record), and the
        # read mirrors it back to the columns enumerate_set builds
        fs = enumerate_set(Q, k)
        path = tmp_path / "s.bin"
        fs.write_cache(path)
        assert path.stat().st_size == 8 + 24 + 16 * (len(fs) // 2)
        back = FractionSet.read_cache(path)
        assert (back.Q, back.k) == (Q, k)
        assert back.numerators.dtype == back.bases.dtype == np.int64
        assert np.array_equal(back.numerators, fs.numerators)
        assert np.array_equal(back.bases, fs.bases)


class TestWholeSetView:
    """A set holds L alone; its whole-set columns, elements and iteration are
    built from L on demand, from enumeration and from a cache file alike."""

    @pytest.mark.parametrize("Q,k", [(3, 2), (12, 3), (50, 2)])
    def test_enumerated_and_cached_sets_are_the_float_sorted_set(self, tmp_path, Q, k):
        a, q = float_sorted_set(Q, k)
        h = len(a) // 2
        fs = enumerate_set(Q, k)
        fs.write_cache(tmp_path / "s.bin")
        for s in (fs, FractionSet.read_cache(tmp_path / "s.bin")):
            assert len(s) == len(a) and len(s.lower[0]) == len(s.lower[1]) == h
            assert np.array_equal(s.lower[0], a[:h]) and np.array_equal(s.lower[1], q[:h])
            assert np.array_equal(s.numerators, a) and np.array_equal(s.bases, q)
            assert np.array_equal(s.denominators(), q ** k)
            assert s.numerators.dtype == s.bases.dtype == s.denominators().dtype == np.int64
            assert [(p.a, p.q) for p in s] == list(zip(a.tolist(), q.tolist()))
            for i in (0, h - 1, h, len(a) - 1, -1, -len(a)):
                assert (s[i].a, s[i].q, s[i].k) == (a[i], q[i], k)
            for i in (len(a), -len(a) - 1):
                with pytest.raises(IndexError):
                    s[i]


# records of L, the 20 points of S(3, 2) below 1/2 and all a cache file holds,
# replaced by a non-member a/q**2 that keeps the order of L: the order
# certificate alone passes each of them
NON_MEMBERS = {
    "non_reduced": (8, 8, 6),            # 3/16 < 8/36 < 6/25, gcd(8, 6) = 2
    "base_outside_window": (0, 1, 7),    # 1/49 below the least point 1/36
    "base_below_window": (4, 1, 3),      # 2/25 < 1/9 < 5/36
    "numerator_past_one": (19, 37, 6),   # 37/36 past L's last point 12/25
}


def with_record(fs, i, a, q):
    """A copy of ``fs`` whose record i of L is a/q**k; the constructor checks
    only (Q, k) and the count, so the copy can be written as a cache file."""
    nums, bases = (c.copy() for c in fs.lower)
    nums[i], bases[i] = a, q
    return FractionSet(fs.Q, fs.k, nums, bases)


class TestCacheCertificate:
    """read_cache returns a set only when its records are exactly S(Q, k)."""

    @pytest.mark.parametrize("case", sorted(NON_MEMBERS))
    def test_read_cache_refuses_non_member(self, tmp_path, case):
        i, a, q = NON_MEMBERS[case]
        tampered = with_record(enumerate_set(3, 2), i, a, q)
        assert strictly_increasing(*tampered.lower, 2)
        path = tmp_path / "s32.bin"
        tampered.write_cache(path)
        message = f"{path}: cache record {i}, {a}/{q}**2, is not in S(3, 2) below 1/2"
        with pytest.raises(ValueError, match=re.escape(message)):
            FractionSet.read_cache(path)

    def test_upper_half_record_refused_by_the_half_bound(self, tmp_path):
        # 13/25 is in S(3, 2), a unit mod 5 and above L's record 18, 17/36:
        # only 2a < q**k refuses it in place of L's last record 12/25
        fs = enumerate_set(3, 2)
        assert (fs.lower[0][19], fs.lower[1][19]) == (12, 5) and len(fs) == 40
        tampered = with_record(fs, 19, 13, 5)
        assert strictly_increasing(*tampered.lower, 2)
        path = tmp_path / "s32.bin"
        tampered.write_cache(path)
        message = f"{path}: cache record 19, 13/5**2, is not in S(3, 2) below 1/2"
        with pytest.raises(ValueError, match=re.escape(message)):
            FractionSet.read_cache(path)

    def test_numerator_past_2_to_the_62_refused_as_non_member(self, tmp_path):
        # 2a wraps int64 for a = 2**62 + 1, an odd unit mod 4; the bound must not
        a = 2 ** 62 + 1
        path = tmp_path / "s32.bin"
        with_record(enumerate_set(3, 2), 0, a, 4).write_cache(path)
        message = f"{path}: cache record 0, {a}/4**2, is not in S(3, 2) below 1/2"
        with pytest.raises(ValueError, match=re.escape(message)):
            FractionSet.read_cache(path)

    def test_last_pair_of_the_half_out_of_order_refused(self, tmp_path):
        # records 18 and 19 of S(3, 2), 17/36 and 12/25, swapped: both stay
        # members of L, and only the order certificate's last pair sees it
        fs = enumerate_set(3, 2)
        nums, bases = (c.copy() for c in fs.lower)
        nums[[18, 19]], bases[[18, 19]] = nums[[19, 18]], bases[[19, 18]]
        path = tmp_path / "s32.bin"
        FractionSet(3, 2, nums, bases).write_cache(path)
        with pytest.raises(ValueError, match="cache records are not strictly increasing"):
            FractionSet.read_cache(path)

    @pytest.mark.parametrize("i", [0, rationals._CERTIFY_BLOCK - 1, rationals._CERTIFY_BLOCK,
                                   2 * rationals._CERTIFY_BLOCK + 5, 38_629, 39_319])
    def test_non_member_named_in_any_block(self, tmp_path, i):
        # S(38, 2) has 78,640 points, so L's 39,320 records span three
        # blocks, the last is 39,319; a base of 77 is outside (38, 76]
        fs = enumerate_set(38, 2)
        assert len(fs) // 2 == 39_320
        path = tmp_path / "s382.bin"
        with_record(fs, i, 1, 77).write_cache(path)
        with pytest.raises(ValueError, match=re.escape(f"cache record {i}, 1/77**2, is not")):
            FractionSet.read_cache(path)

    def test_constructor_refuses_partial_and_inadmissible_sets(self):
        # the constructor takes the 20 records of L; a shorter L and the
        # whole set's 40 columns are both refused by the count
        a, q = enumerate_set(3, 2).lower
        with pytest.raises(ValueError, match=r"S\(3, 2\) has 20 points below 1/2, not 19 num"):
            FractionSet(3, 2, a[1:], q[1:])
        whole = enumerate_set(3, 2)
        with pytest.raises(ValueError, match=r"has 20 points below 1/2, not 40 numerators and 40"):
            FractionSet(3, 2, whole.numerators, whole.bases)
        with pytest.raises(ValueError, match="Q must be >= 1, got 0"):
            FractionSet(0, 2, a[:0], q[:0])  # the empty S(0, 2)

    @pytest.mark.parametrize("count", [39, 41, 10 ** 12])
    def test_header_count_refused_before_records_are_read(self, tmp_path, monkeypatch, count):
        def refuse(*args, **kwargs):
            raise AssertionError("records read under a wrong count")

        monkeypatch.setattr(np, "fromfile", refuse)
        path = tmp_path / "s32.bin"
        head = rationals._CACHE_MAGIC + struct.pack("<QQQ", 3, 2, count)
        path.write_bytes(head + bytes(16 * 20))
        message = f"{path}: header counts {count} points, S(3, 2) has 40"
        with pytest.raises(ValueError, match=re.escape(message)):
            FractionSet.read_cache(path)

    def test_overlong_file_refused(self, tmp_path):
        path = tmp_path / "s22.bin"
        enumerate_set(2, 2).write_cache(path)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(ValueError, match="overlong cache: 128 bytes of records, expected 112"):
            FractionSet.read_cache(path)

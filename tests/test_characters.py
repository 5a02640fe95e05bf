"""Character tables, primitivity, Gauss sums, and the transfer inequality."""

import gc
import itertools
import tracemalloc
import weakref
from math import gcd

import numpy as np
import pytest

from powersieve.arith import factorize, totient
from powersieve.characters import (
    CharacterTable,
    _window_sums_additive,
    additive_lhs,
    build_character_table,
    gauss_sum,
    mult_transfer_check,
    multiplicative_lhs,
)


def brute_characters(m: int) -> list[dict]:
    """All completely multiplicative m-periodic maps by homomorphism search.

    Exhaustive over value assignments on the unit group, independent of the
    generator construction.  Only viable for tiny m.
    """
    units = [a for a in range(m) if gcd(a, m) == 1]
    import itertools

    n = totient(m)
    roots = [np.exp(2j * np.pi * t / n) for t in range(n)]
    found = []
    for assignment in itertools.product(range(n), repeat=len(units)):
        vals = {a: roots[e] for a, e in zip(units, assignment)}
        if all(
            abs(vals[(a * b) % m] - vals[a] * vals[b]) < 1e-9
            for a in units
            for b in units
        ):
            found.append(vals)
    return found


def reference_inversion(table, j: int, n: int) -> complex:
    """chi(n) from additive characters, for primitive chi mod m:

        chi(n) = G(conj chi)**-1 * sum over a mod m of conj(chi)(a) e(an/m),

    with G(conj chi) = chi(-1) conj(G(chi)); the paper's route from
    characters to fractions.  The Gauss sum of conj(chi) vanishes for
    imprimitive chi, so only primitive j are meaningful here.
    """
    m = table.modulus
    conj_row = np.conj(table.chi(j))
    g = conj_row[m - 1] * np.conj(table.gauss[j])
    s = np.dot(conj_row, np.exp(2j * np.pi * (np.arange(m) * n % m) / m))
    return complex(s / g)


class TestTableConstruction:
    def test_mod_nine_counts(self):
        t = build_character_table(3, 2)
        assert len(t) == 6
        assert int(t.primitive.sum()) == 4  # phi(9) - phi(3)

    def test_mod_four_counts(self):
        t = build_character_table(2, 2)
        assert len(t) == 2
        assert int(t.primitive.sum()) == 1

    @pytest.mark.parametrize("q,k", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (10, 2), (12, 2)])
    def test_character_count_formula(self, q, k):
        t = build_character_table(q, k)
        assert len(t) == q ** (k - 1) * totient(q)
        assert totient(q ** k) == q ** (k - 1) * totient(q)

    def test_matches_brute_force_homomorphisms_mod4(self):
        t = build_character_table(2, 2)
        brute = brute_characters(4)
        assert len(brute) == len(t)
        ours = {
            tuple(np.round(t.values[j][[1, 3]], 9)) for j in range(len(t))
        }
        theirs = {
            tuple(np.round([v[1], v[3]], 9)) for v in brute
        }
        assert ours == theirs

    def test_values_vanish_off_units(self):
        t = build_character_table(6, 2)
        m = t.modulus
        for a in range(m):
            if gcd(a, m) != 1:
                assert (t.values[:, a] == 0).all()

    def test_dropped_table_freed_without_cyclic_gc(self):
        table = build_character_table(7, 2)
        ref = weakref.ref(table)
        gc.disable()
        try:
            del table
            assert ref() is None
        finally:
            gc.enable()

    def test_guard_on_modulus(self):
        with pytest.raises(ValueError, match="guard"):
            build_character_table(1001, 2)

    def test_values_guard_refuses_without_allocating(self):
        # m = 10**6: the table is O(phi(m)); the 4e11-cell matrix is refused
        t = CharacterTable(1000, 2)
        assert len(t) == 400000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="guard"):
                t.values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_character_table(0, 2)
        with pytest.raises(ValueError):
            build_character_table(3, 1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_doubled_powers_equal_the_pow_loop(self, k):
        # every q**k <= 2*10**4: q = 1, the powers of two and odd prime powers
        for q in itertools.takewhile(lambda q: q ** k <= 2 * 10 ** 4, itertools.count(1)):
            t = build_character_table(q, k)
            m = t.modulus
            residues = np.array([1 % m], dtype=np.int64)
            for g, d in t.generators:
                powers = np.array([pow(g, e, m) for e in range(d)], dtype=np.int64)
                residues = (residues[:, None] * powers[None, :] % m).ravel()
            assert np.array_equal(t.residues, residues), (q, k)

    @pytest.mark.parametrize("q,k", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2),
                                     (5, 2), (6, 2), (10, 2), (12, 2), (14, 2), (2, 7)])
    def test_labels_on_demand_are_the_c_order_grid(self, q, k):
        # labels are read off the grid index: the exponent tuples in C order,
        # () when there is no generator (m = 1); the principal one comes first
        t = build_character_table(q, k)
        grid = list(itertools.product(*(range(d) for d in t.orders)))
        assert [t.label(j) for j in range(len(t))] == grid
        assert t.label(0) == (0,) * len(t.orders)
        if q == 1:
            assert grid == [()]


class TestPrimitivity:
    def test_principal_is_imprimitive(self):
        t = build_character_table(3, 2)
        assert not t.primitive[0]

    def test_order_six_character_mod_nine(self):
        t = build_character_table(3, 2)
        # a character of full order 6 generates the dual group; it cannot be
        # induced from modulus 1 or 3 (those have at most 2 characters)
        orders = []
        for j in range(len(t)):
            row = t.values[j]
            for d in range(1, 7):
                if np.allclose(row[2] ** d, 1.0, atol=1e-9):
                    orders.append(d)
                    break
        full = [j for j, d in enumerate(orders) if d == 6]
        assert full and all(t.primitive[j] for j in full)

    def test_nonprincipal_mod_four(self):
        t = build_character_table(2, 2)
        assert t.primitive[1]

    def test_brute_force_induction_oracle_mod_nine(self):
        # chi mod 9 is induced from modulus 3 iff it is constant on
        # {a == 1 mod 3}; check the flag against that definition directly
        t = build_character_table(3, 2)
        kernel = [a for a in range(1, 9) if a % 3 == 1]
        for j in range(len(t)):
            induced = np.allclose(t.values[j][kernel], 1.0, atol=1e-9)
            assert t.primitive[j] == (not induced)

    @pytest.mark.parametrize(
        "q,k", [(2, k) for k in range(2, 12)] + [(q, 2) for q in (6, 10, 12, 30)]
    )
    def test_exact_flags_match_kernel_definition(self, q, k):
        # primitive iff not constant 1 on {a == 1 mod m/p} for every p | m
        t = build_character_table(q, k)
        m = t.modulus
        kernels = [
            [a for a in range(1, m, m // p) if gcd(a, m) == 1] for p, _ in factorize(m)
        ]
        for j in range(len(t)):
            row = t.chi(j)
            induced = any(np.allclose(row[K], 1.0, atol=1e-9) for K in kernels)
            assert t.primitive[j] == (not induced)

    def test_modulus_one_has_no_primitive_character(self):
        t = build_character_table(1, 2)
        assert len(t) == 1
        assert not t.primitive.any()


class TestGaussSums:
    def test_nonprincipal_mod_four_is_2i(self):
        t = build_character_table(2, 2)
        g = gauss_sum(t, 1)
        assert g == pytest.approx(2j, abs=1e-12)
        assert abs(g) == pytest.approx(2.0)

    def test_principal_mod_four_vanishes(self):
        # e(1/4) + e(3/4) = i - i; frozen from direct summation
        t = build_character_table(2, 2)
        g = gauss_sum(t, 0)
        assert abs(g) < 1e-12

    def test_primitive_mod_nine_modulus(self):
        t = build_character_table(3, 2)
        for j in range(len(t)):
            if t.primitive[j]:
                assert abs(gauss_sum(t, j)) == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("q", range(1, 21))
    def test_primitive_modulus_is_q_for_squares(self, q):
        t = build_character_table(q, 2)
        for j in range(len(t)):
            if t.primitive[j]:
                assert abs(gauss_sum(t, j)) == pytest.approx(q, abs=1e-9)

    @pytest.mark.parametrize(
        "q,k", [(q, 2) for q in range(1, 51)] + [(q, 3) for q in range(1, 14)]
    )
    def test_fft_matches_direct_summation(self, q, k):
        t = build_character_table(q, k)
        m = t.modulus
        direct = t.values @ np.exp(2j * np.pi * np.arange(m) / m)
        fft = np.array([gauss_sum(t, j) for j in range(len(t))])
        assert np.max(np.abs(fft - direct)) <= 1e-12 * max(1.0, m ** 0.5)

    def test_cube_moduli_magnitude(self):
        # |G| = m**(1/2) = q**(3/2) for primitive characters mod q**3
        t = build_character_table(3, 3)
        expected = 27 ** 0.5
        for j in range(len(t)):
            if t.primitive[j]:
                assert abs(gauss_sum(t, j)) == pytest.approx(expected, abs=1e-9)


class TestOrthogonality:
    @pytest.mark.parametrize("q,k", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (12, 2), (14, 2), (2, 7)])
    def test_pairwise_inner_products(self, q, k):
        t = build_character_table(q, k)
        V = t.values
        G = V @ V.conj().T
        expect = totient(t.modulus) * np.eye(len(t))
        assert np.max(np.abs(G - expect)) < 1e-9


class TestMultiplicativity:
    def test_random_coprime_pairs(self):
        rng = np.random.default_rng(17)
        for q, k in [(5, 2), (6, 2), (3, 3)]:
            t = build_character_table(q, k)
            m = t.modulus
            units = [a for a in range(m) if gcd(a, m) == 1]
            for _ in range(1000):
                a = units[rng.integers(len(units))]
                b = units[rng.integers(len(units))]
                j = rng.integers(len(t))
                assert abs(
                    t.values[j][(a * b) % m] - t.values[j][a] * t.values[j][b]
                ) < 1e-9


class TestInversion:
    def test_primitive_inversion_identity(self):
        for q, k in [(3, 2), (5, 2), (2, 3)]:
            t = build_character_table(q, k)
            m = t.modulus
            units = [a for a in range(m) if gcd(a, m) == 1]
            for j in range(len(t)):
                if not t.primitive[j]:
                    continue
                for n in units:
                    assert abs(
                        reference_inversion(t, j, n) - t.values[j][n]
                    ) < 1e-9


class TestTransfer:
    def test_indicator_sequence(self):
        seq = [0.0] * 5
        seq[1] = 1.0  # indicator at n = 2, coprime to 3
        lhs, rhs = mult_transfer_check(3, 2, seq)
        assert lhs <= rhs + 1e-9
        assert lhs > 0

    def test_zero_sequence(self):
        lhs, rhs = mult_transfer_check(3, 2, [0.0] * 6)
        assert lhs == 0.0 and rhs == 0.0

    def test_random_complex_sequences(self):
        rng = np.random.default_rng(42)
        for q in (2, 3, 5, 7):
            for _ in range(5):
                n = int(rng.integers(5, 30))
                seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                lhs, rhs = mult_transfer_check(q, 2, seq)
                assert lhs <= rhs * (1 + 1e-9) + 1e-9

    @pytest.mark.parametrize("q,k,M", [(5, 2, -7), (6, 2, 13), (3, 3, 1000), (4, 2, -100)])
    def test_lhs_equals_per_character_dot_product(self, q, k, M):
        rng = np.random.default_rng(q * k + abs(M))
        seq = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        t = build_character_table(q, k)
        n = np.arange(M + 1, M + 41) % t.modulus
        direct = sum(
            abs(np.dot(t.chi(j)[n], seq)) ** 2 for j in range(len(t)) if t.primitive[j]
        )
        lhs, _ = mult_transfer_check(q, k, seq, M)
        assert lhs == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("q,k,M", [(1, 2, 0), (3, 2, -5), (4, 3, 17), (10, 2, 250)])
    def test_binned_additive_sums_equal_dense_phases(self, q, k, M):
        rng = np.random.default_rng(q + abs(M))
        seq = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        m = q ** k
        n = np.arange(M + 1, M + 61)
        phases = np.arange(m)[:, None] * (n[None, :] % m) % m
        dense = np.exp(2j * np.pi * phases / m) @ seq
        binned = _window_sums_additive(q, k, seq, M)
        assert np.max(np.abs(binned - dense)) <= 1e-12 * np.sum(np.abs(seq))

    def test_proof_chain_identities_small_modulus(self):
        """The two equalities inside the transfer argument, term by term.

        (a) for primitive chi, the windowed character sum equals the
            Gauss-sum inversion applied to the additive window sums;
        (b) summing |sum_a conj(chi)(a) S(a)|**2 over all characters and
            dividing by m equals (phi(m)/m) * sum over units of |S(a)|**2.
        """
        rng = np.random.default_rng(3)
        q, k, n_len = 3, 2, 7
        t = build_character_table(q, k)
        m = t.modulus
        seq = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
        ns = np.arange(1, n_len + 1)
        S = np.array(
            [
                sum(seq[i] * np.exp(2j * np.pi * a * ns[i] / m) for i in range(n_len))
                for a in range(m)
            ]
        )
        units = [a for a in range(m) if gcd(a, m) == 1]
        # (a) per-character equality through the inversion formula
        for j in range(len(t)):
            if not t.primitive[j]:
                continue
            g = sum(np.conj(t.values[j][a]) * np.exp(2j * np.pi * a / m) for a in range(m))
            direct = sum(seq[i] * t.values[j][ns[i] % m] for i in range(n_len))
            via_gauss = sum(np.conj(t.values[j][a]) * S[a] for a in range(m)) / g
            assert abs(direct - via_gauss) < 1e-9
        # (b) orthogonality collapse of the full character average
        lhs_all = sum(
            abs(sum(np.conj(t.values[j][a]) * S[a] for a in range(m))) ** 2
            for j in range(len(t))
        ) / m
        rhs_units = (totient(m) / m) * sum(abs(S[a]) ** 2 for a in units)
        assert lhs_all == pytest.approx(rhs_units, rel=1e-9)


class TestWeightedSums:
    def test_empty_at_Q1(self):
        assert multiplicative_lhs(1, 2, [1.0] * 10) == 0.0

    def test_frozen_regression_ones(self):
        v = multiplicative_lhs(3, 2, [1.0] * 10)
        assert v == pytest.approx(8.0, rel=1e-9)

    def test_weighted_multiplicative_below_additive(self):
        rng = np.random.default_rng(12)
        seq = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for Q in (2, 3, 4):
            assert multiplicative_lhs(Q, 2, seq) <= additive_lhs(Q, 2, seq) * (
                1 + 1e-9
            )

    def test_additive_q1_term_is_plain_window_energy(self):
        seq = [1.0, -2.0, 0.5]
        assert additive_lhs(1, 2, seq) == pytest.approx(abs(sum(seq)) ** 2)

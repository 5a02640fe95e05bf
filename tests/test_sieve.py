"""Gram spectra, duality, exact ceilings, and the bound catalog."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersieve import rationals
from powersieve import sieve as sv
from powersieve.rationals import FractionSet, enumerate_set, strictly_increasing
from powersieve.sieve import (
    ConvergenceError,
    SieveInstance,
    bound_catalog,
    cohen_selberg_ceiling,
    duality_check,
    gram_lambda_max,
    min_torus_gap,
    per_q_exact_ceiling,
    sieve_ratio_experiment,
)


def closed_form_2x2_lambda(inst: SieveInstance) -> float:
    """Largest eigenvalue of the 2x2 Gram matrix via trace and determinant."""
    T = inst.matrix()
    G = T.conj().T @ T if inst.N == 2 else T @ T.conj().T
    tr = float(G[0, 0].real + G[1, 1].real)
    det = float((G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]).real)
    return tr / 2 + math.sqrt(max(tr * tr / 4 - det, 0.0))


def sorted_gap_reference(points):
    """Minimal torus gap by sorting every point as a Fraction; a float is its
    exact binary value."""
    pts = sorted(Fraction(p) % 1 for p in points)
    gaps = [b - a for a, b in zip(pts, pts[1:])] + [1 - (pts[-1] - pts[0])]
    return min(min(g, 1 - g) for g in gaps)


def assert_ascending(inst: SieveInstance) -> None:
    assert strictly_increasing(inst.nums, inst.dens)


class TestInstanceValidation:
    def test_distinct_points_required(self):
        with pytest.raises(ValueError, match="distinct"):
            SieveInstance([Fraction(1, 3), Fraction(1, 3)], 0, 2)

    def test_points_reduced_mod_one(self):
        inst = SieveInstance([Fraction(4, 3)], 0, 2)
        assert (inst.nums.tolist(), inst.dens.tolist()) == ([1], [3])

    def test_needs_a_point_and_positive_window(self):
        with pytest.raises(ValueError):
            SieveInstance([], 0, 3)
        with pytest.raises(ValueError):
            SieveInstance([Fraction(1, 2)], 0, 0)

    def test_fraction_set_refused_with_its_maker_named(self):
        # a set would be iterated as a point list: Fraction by Fraction, and
        # refused by the gram guard where from_fraction_set solves
        fs = enumerate_set(2, 2)
        with pytest.raises(TypeError, match=r"SieveInstance\.from_fraction_set\(fs, N, M\)"):
            SieveInstance(fs, 0, 4)
        assert SieveInstance(list(fs), 0, 4).K == SieveInstance.from_fraction_set(fs, 4).K == len(fs)

    def test_guard_on_cell_count(self):
        inst = SieveInstance([Fraction(i, 5001) for i in range(1, 5001)], 0, 10 ** 5)
        with pytest.raises(ValueError, match="guard"):
            gram_lambda_max(inst)


class TestLambdaMax:
    def test_single_point_equals_window_length(self):
        for N in (1, 4, 33):
            spec = gram_lambda_max(SieveInstance([Fraction(2, 7)], 0, N))
            assert spec.lambda_max == pytest.approx(N, rel=1e-12)

    def test_unit_window_equals_point_count(self):
        inst = SieveInstance([Fraction(i, 13) for i in range(7)], 0, 1)
        spec = gram_lambda_max(inst, side="frequencies")
        assert spec.lambda_max == pytest.approx(7, rel=1e-12)

    def test_orthogonal_pair(self):
        # {0, 1/2} over two frequencies has orthogonal columns of norm**2 = 2
        inst = SieveInstance([0, Fraction(1, 2)], 0, 2)
        assert gram_lambda_max(inst).lambda_max == pytest.approx(2.0, rel=1e-10)

    def test_matches_2x2_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = rng.integers(0, 97, 2)
            if a == b:
                continue
            inst = SieveInstance([Fraction(int(a), 97), Fraction(int(b), 97)], 0, 2)
            lam = gram_lambda_max(inst).lambda_max
            assert lam == pytest.approx(closed_form_2x2_lambda(inst), rel=1e-9)

    def test_nonzero_offset_window(self):
        inst = SieveInstance([Fraction(1, 3), Fraction(2, 5)], M=7, N=4)
        lhs, rhs = duality_check(inst)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_trace_lower_bounds(self):
        # a single-point test vector attains N, a single-frequency one K
        cases = [
            SieveInstance.from_fraction_set(enumerate_set(3, 2), 7),
            SieveInstance.from_fraction_set(enumerate_set(2, 2), 40),
            SieveInstance([Fraction(1, 9), Fraction(5, 9)], 0, 3),
        ]
        for inst in cases:
            lam = gram_lambda_max(inst).lambda_max
            assert lam >= max(inst.N, inst.K) * (1 - 1e-9)

    def test_monotone_under_point_insertion(self):
        rng = np.random.default_rng(11)
        pts = sorted({Fraction(int(a), 211) for a in rng.integers(1, 211, 12)})
        prev = 0.0
        for K in range(1, len(pts) + 1):
            lam = gram_lambda_max(SieveInstance(pts[:K], 0, 6)).lambda_max
            assert lam >= prev - 1e-9
            prev = lam

    def test_deterministic_for_fixed_seed(self):
        inst = SieveInstance([Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)], 0, 5)
        a = gram_lambda_max(inst)
        b = gram_lambda_max(inst)
        assert a.lambda_max == b.lambda_max and a.iterations == b.iterations == 1

    def test_rejects_bad_side_and_tol(self):
        inst = SieveInstance([Fraction(1, 3)], 0, 2)
        with pytest.raises(ValueError):
            gram_lambda_max(inst, side="rows")

    @pytest.mark.parametrize(
        "points, M",
        [
            ([Fraction(1, 9), Fraction(4, 25), Fraction(7, 16), Fraction(2, 3)], 11),
            ([Fraction(a, 257) for a in (3, 40, 41, 99, 180, 256)], -5),
            ([0.1, 0.35, 0.82, 0.8201], 7),
            ([0.0, 2 ** -0.5, 3 ** -0.5], 0),
            # dens**2 past 2**62: the phases are reduced in Python integers
            ([Fraction(1, 9), Fraction(3_000_000_019, 2 ** 32 + 15), Fraction(2, 3)], 10 ** 12),
        ],
    )
    def test_toeplitz_frequency_gram_matches_dense(self, points, M):
        # the complex circulant matvec on every unit vector gives every entry of T*T
        inst = SieveInstance(points, M, 30)
        T = inst.matrix()
        phases = [
            [float(Fraction(a, d) * n % 1) for n in range(M + 1, M + 31)]
            for a, d in zip(inst.nums.tolist(), inst.dens.tolist())
        ]
        assert np.allclose(T, np.exp(2j * np.pi * np.array(phases)), rtol=0, atol=1e-12)
        apply = sv._toeplitz_matvec(inst.gram_symbol())
        G = np.column_stack([apply(e) for e in np.eye(30)])
        assert G.dtype == np.complex128
        assert np.allclose(G, T.conj().T @ T, rtol=0, atol=1e-12 * inst.K)

    def test_perturbed_eigenpair_raises_convergence_error(self, monkeypatch):
        # a full set's Lanczos pair is checked with the FFT matvec: its value
        # moved by 1e-3 leaves a residual of 1e-3 on the unit Ritz vector
        inst = SieveInstance.from_fraction_set(enumerate_set(3, 2), 27)
        steps = gram_lambda_max(inst, "frequencies").iterations
        lanczos = sv._lanczos

        def perturbed(apply, N, K):
            lam, v, m = lanczos(apply, N, K)
            return lam + 1e-3, v, m

        monkeypatch.setattr(sv, "_lanczos", perturbed)
        with pytest.raises(ConvergenceError) as err:
            gram_lambda_max(inst, "frequencies")
        assert err.value.iterations == steps > 1
        assert err.value.residual == pytest.approx(1e-3, rel=1e-6)

    def test_perturbed_dense_eigenpair_raises_convergence_error(self, monkeypatch):
        inst = SieveInstance.from_fraction_set(enumerate_set(3, 2), 27)
        eigh = np.linalg.eigh

        def perturbed(G):
            w, V = eigh(G)
            return w + 1e-3, V

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError) as err:
            gram_lambda_max(inst, "points")
        assert err.value.iterations == 1
        assert err.value.residual == pytest.approx(1e-3, rel=1e-6)

    def test_guard_on_solved_gram_cells(self):
        # only the points side solves a dense Gram, K x K: N = 4000 > 3162 solves
        # on both sides, and K = 3163 points refuse the points side alone
        inst = SieveInstance([Fraction(1, 3)], 0, 4000)
        for side in ("frequencies", "points"):
            assert gram_lambda_max(inst, side).lambda_max == pytest.approx(4000, rel=1e-12)
        inst = SieveInstance([Fraction(a, 3163) for a in range(3163)], 0, 3)
        assert gram_lambda_max(inst, "frequencies").lambda_max == pytest.approx(3163, rel=1e-12)
        with pytest.raises(ValueError, match=r"^points Gram has 10004569 cells, over the gram "
                                             r"guard 10000000; reduce Q or N$"):
            gram_lambda_max(inst, "points")


class TestDuality:
    def test_both_sides_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = sorted({Fraction(int(a), 499) for a in rng.integers(1, 499, 8)})
            inst = SieveInstance(pts, 0, 6)
            lhs, rhs = duality_check(inst)
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs)

    def test_single_point_both_sides_equal_N(self):
        inst = SieveInstance([Fraction(3, 8)], 0, 9)
        lhs, rhs = duality_check(inst)
        assert lhs == pytest.approx(9, rel=1e-10)
        assert rhs == pytest.approx(9, rel=1e-10)

    def test_smallest_quadratic_set(self):
        inst = SieveInstance.from_fraction_set(enumerate_set(1, 2), 4)
        lhs, rhs = duality_check(inst)
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs)

    @pytest.mark.parametrize("points, N", [
        ([Fraction(1, 9), Fraction(4, 25), Fraction(7, 16)], 5000),
        ([0.1, 0.35, 0.82, 0.8201], 3000),
        ([Fraction(a, 257) for a in (3, 40, 41, 99, 180, 256)], 20000),
    ])
    def test_point_list_past_the_dense_frequencies_range(self, points, N):
        # N*N > 10**7: a point list's frequencies side is Lanczos on its complex symbol
        lhs, rhs = duality_check(SieveInstance(points, 0, N))
        assert abs(lhs - rhs) <= 1e-12 * rhs

    @pytest.mark.parametrize("points, N", [
        ([0, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 11), Fraction(2, 3),
          Fraction(1, 3), Fraction(1, 5)], 18),
        ([Fraction(10, 137), Fraction(6, 47), Fraction(70, 281), Fraction(4, 13),
          Fraction(11, 30), Fraction(3, 7), Fraction(21, 40), Fraction(182, 279),
          Fraction(52, 73)], 16),
    ])
    def test_krylov_space_exhausted_between_checks(self, points, N):
        # T*T has rank K < N: the Krylov space ends at step K + 1, between the
        # checks at steps 8 and 24, where a pair formed at step N fails its
        # residual; every step from K + 1 on is checked, and the run stops there
        inst = SieveInstance(points, 0, N)
        spec = gram_lambda_max(inst, "frequencies")
        assert spec.iterations == len(points) + 1 < N
        assert spec.lambda_max == pytest.approx(gram_lambda_max(inst, "points").lambda_max,
                                                rel=1e-12, abs=0)

    def test_check_at_krylov_end_keeps_the_schedule(self):
        # the check at step K + 1 = 7 fails and the one at step 8 passes
        points = [0, Fraction(9, 56), Fraction(3, 13), Fraction(5, 13), Fraction(3, 5),
                  Fraction(38, 51)]
        inst = SieveInstance(points, 0, 27)
        spec = gram_lambda_max(inst, "frequencies")
        assert spec.iterations == 8
        assert spec.lambda_max == pytest.approx(gram_lambda_max(inst, "points").lambda_max,
                                                rel=1e-12, abs=0)

    def test_every_step_from_krylov_end_is_checked(self):
        # K + 1 = 4 < 8 < N = 83: the pair at step 4 fails its residual and the
        # one at step 5, neither scheduled nor past N, passes
        inst = SieveInstance([Fraction(1, 28), Fraction(1, 6), Fraction(22, 45)], 0, 83)
        spec = gram_lambda_max(inst, "frequencies")
        assert spec.iterations == 5
        assert spec.residual <= sv.RESIDUAL_TOL * spec.lambda_max
        assert spec.lambda_max == pytest.approx(gram_lambda_max(inst, "points").lambda_max,
                                                rel=1e-12, abs=0)


def point_list(fs):
    """The points of a fraction set as a plain list: the float-symbol route."""
    return [p.as_fraction() for p in fs]


class TestIntegerSymbol:
    """A FractionSet, always the full S(Q, k), takes the strided Ramanujan-sum
    symbol, whose Toeplitz Gram is real symmetric and applied by rfft/irfft;
    a point sequence sums the complex symbol, applied by fft/ifft.  Lanczos
    solves both."""

    @pytest.mark.parametrize(
        "Q, k, N", [(4, 2, 64), (8, 2, 512), (6, 2, 216), (12, 2, 1728), (3, 3, 81), (4, 3, 256),
                    (3, 2, 1), (3, 2, 2), (3, 2, 200)]
    )
    def test_strided_symbol_matches_float_symbol(self, Q, k, N):
        fs = enumerate_set(Q, k)
        inst = SieveInstance.from_fraction_set(fs, N)
        c = inst.gram_symbol()
        assert inst.full_set == (Q, k)
        assert np.issubdtype(c.dtype, np.integer) and c[0] == inst.K == len(fs)
        reference = SieveInstance(point_list(fs), 0, N).gram_symbol()
        assert np.iscomplexobj(reference)
        assert np.allclose(c, reference, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("N, bases", [(1, []), (5, [4]), (6, [4, 5]), (200, [4, 5, 6])])
    def test_symbol_factorizes_only_bases_that_reach_past_c0(self, monkeypatch, N, bases):
        # every d = q**k/s is at least q**(k-1), so a base of S(3, 2) with
        # q >= N adds to c[0] = K alone, which is taken in closed form
        seen, factorize = [], sv.factorize
        monkeypatch.setattr(sv, "factorize", lambda q: seen.append(q) or factorize(q))
        c = SieveInstance.set_free(3, 2, N).gram_symbol()
        assert seen == bases
        reference = SieveInstance(point_list(enumerate_set(3, 2)), 0, N).gram_symbol()
        assert np.allclose(c, reference, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("Q, k, N, M", [(3, 2, 27, 0), (4, 2, 50, 7), (2, 3, 16, -3)])
    def test_full_set_gram_matches_dense(self, Q, k, N, M):
        # the circulant matvec on every unit vector gives every entry of T*T
        inst = SieveInstance.from_fraction_set(enumerate_set(Q, k), N, M)
        T = inst.matrix()
        apply = sv._toeplitz_matvec(inst.gram_symbol())
        G = np.column_stack([apply(e) for e in np.eye(N)])
        assert G.dtype == np.float64
        assert np.allclose(G, T.conj().T @ T, rtol=0, atol=1e-12 * inst.K)

    def test_real_solve_matches_complex_solve_on_baselines(self, data_dir):
        with open(data_dir / "sieve_baselines.json") as fh:
            baselines = json.load(fh)
        assert len(baselines) == 12
        for base in baselines:
            fs = enumerate_set(base["Q"], base["k"])
            real = gram_lambda_max(SieveInstance.from_fraction_set(fs, base["N"]), "frequencies")
            cplx = gram_lambda_max(SieveInstance(point_list(fs), 0, base["N"]), "frequencies")
            assert real.lambda_max == pytest.approx(cplx.lambda_max, rel=1e-12, abs=0)

    def test_eigh_sees_real_tridiagonals_only(self, monkeypatch):
        # the frequencies side hands eigh only Lanczos's real tridiagonals, one
        # row per step, for a full set and for a point list alike
        seen = []
        eigh = np.linalg.eigh

        def spy(G):
            seen.append((G.dtype, len(G)))
            return eigh(G)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        fs = enumerate_set(3, 2)
        inst = SieveInstance.from_fraction_set(fs, 27)
        steps = gram_lambda_max(inst, "frequencies").iterations
        assert seen and all(dtype == np.float64 and n <= steps for dtype, n in seen)
        seen.clear()
        steps = gram_lambda_max(SieveInstance(point_list(fs), 0, 27), "frequencies").iterations
        assert seen and all(dtype == np.float64 and n <= steps for dtype, n in seen)
        T = inst.matrix()
        x = np.random.default_rng(5).standard_normal(27)
        Gx = sv._toeplitz_matvec(inst.gram_symbol())(x)
        assert Gx.dtype == np.float64
        assert np.allclose(Gx, T.conj().T @ (T @ x), rtol=0, atol=1e-12 * inst.K)


def dense_toeplitz(c):
    """The real symmetric Toeplitz matrix c[|m - n|], formed entry by entry."""
    n = np.arange(len(c))
    return c[np.abs(np.subtract.outer(n, n))].astype(np.float64)


def persymmetric_halves(G):
    """G on the vectors symmetric and on those antisymmetric under n -> N-1-n.

    A symmetric Toeplitz matrix commutes with that reversal, so its spectrum
    is the union of the two blocks' spectra; each block has about N/2 rows,
    and eigvalsh on both costs about a quarter of eigvalsh on G.
    """
    N = len(G)
    m = N // 2
    A, B = G[:m, :m], G[:m, ::-1][:, :m]  # B[i, j] = G[i, N-1-j]
    sym, anti = A + B, A - B
    if N % 2:  # the middle unit vector is symmetric
        col = math.sqrt(2) * G[:m, m:m + 1]
        sym = np.block([[sym, col], [col.T, G[m:m + 1, m:m + 1]]])
    return sym, anti


def dense_lambda_max(inst):
    halves = persymmetric_halves(dense_toeplitz(inst.gram_symbol()))
    return max(np.linalg.eigvalsh(h)[-1] for h in halves if len(h))


CRITICAL_LINE = ([(Q, 2) for Q in range(1, 14)] + [(Q, 3) for Q in range(1, 8)]
                 + [(Q, 4) for Q in range(1, 6)])


class TestLanczos:
    """A full set's frequencies side: Lanczos on the circulant matvec of the
    integer symbol, against dense eigvalsh of the Toeplitz built here."""

    @pytest.mark.parametrize("Q, k", CRITICAL_LINE)
    def test_matches_dense_eigvalsh_on_critical_line(self, Q, k):
        inst = SieveInstance.from_fraction_set(enumerate_set(Q, k), Q ** (k + 1))
        spec = gram_lambda_max(inst, "frequencies")
        assert spec.lambda_max == pytest.approx(dense_lambda_max(inst), rel=1e-12, abs=0)
        assert spec.residual <= 1e-10 * max(1.0, spec.lambda_max)

    @staticmethod
    def fft_lengths(monkeypatch):
        """The lengths numpy's rfft is called with, as the matvec calls it."""
        lengths, rfft = [], np.fft.rfft

        def spy(a, n=None):
            lengths.append(len(a) if n is None else n)
            return rfft(a, n)

        monkeypatch.setattr(np.fft, "rfft", spy)
        return lengths

    @pytest.mark.parametrize("N, L", [(1, 2), (8, 16), (13, 27), (27, 54), (97, 200), (343, 720)])
    def test_matvec_on_a_smooth_length_equals_dense(self, monkeypatch, N, L):
        # the circulant takes the smallest 2**a 3**b 5**c >= 2N: 2N itself when it
        # is one (2, 16, 54), else the next (27 for 26, 200 for 194, 720 for 686)
        lengths = self.fft_lengths(monkeypatch)
        rng = np.random.default_rng(N)
        c, x = rng.integers(-50, 51, N), rng.standard_normal(N)
        Gx = sv._toeplitz_matvec(c)(x)
        assert lengths == [L, L]
        assert Gx.shape == (N,)
        assert np.allclose(Gx, dense_toeplitz(c) @ x, rtol=0, atol=1e-12 * np.abs(c).sum() * N)

    def test_smooth_length_instance_matches_dense(self, monkeypatch):
        # S(7, 2) at N = 343: 2N = 2 * 7**3 runs at the circulant length 720
        inst = SieveInstance.from_fraction_set(enumerate_set(7, 2), 343)
        dense = np.linalg.eigvalsh(dense_toeplitz(inst.gram_symbol()))[-1]
        lengths = self.fft_lengths(monkeypatch)
        lam = gram_lambda_max(inst, "frequencies").lambda_max
        assert set(lengths) == {720}
        assert lam == pytest.approx(dense, rel=1e-12, abs=0)

    @pytest.mark.parametrize("N", [1, 2, 27, 64, 125])
    def test_persymmetric_halves_hold_the_whole_spectrum(self, N):
        G = dense_toeplitz(SieveInstance.from_fraction_set(enumerate_set(4, 2), N).gram_symbol())
        halves = np.concatenate([np.linalg.eigvalsh(h) for h in persymmetric_halves(G)])
        assert np.allclose(np.sort(halves), np.linalg.eigvalsh(G), rtol=0, atol=1e-9 * len(G))

    def test_repeats_exactly(self):
        inst = SieveInstance.from_fraction_set(enumerate_set(6, 2), 216)
        first, second = gram_lambda_max(inst, "frequencies"), gram_lambda_max(inst, "frequencies")
        assert first.iterations > 1
        assert (first.lambda_max, first.iterations) == (second.lambda_max, second.iterations)

    def test_antisymmetric_top_eigenvector_is_found(self):
        # S(5, 2) at N = 125: the top eigenvector is antisymmetric under
        # n -> N-1-n and the symmetric block's top is about 5% lower; a start
        # vector symmetric under the reversal has no component along the top
        # one and converges to that lower pair, which passes the residual check
        inst = SieveInstance.from_fraction_set(enumerate_set(5, 2), 125)
        sym, anti = (np.linalg.eigvalsh(h)[-1]
                     for h in persymmetric_halves(dense_toeplitz(inst.gram_symbol())))
        assert sym < 0.96 * anti
        lam = gram_lambda_max(inst, "frequencies").lambda_max
        assert lam == pytest.approx(anti, rel=1e-12, abs=0)
        assert lam == pytest.approx(497.8222797794816, rel=1e-12, abs=0)

    @pytest.mark.parametrize("Q, lam", [(20, 49930.432795), (30, 224750.887643)])
    def test_reference_values_past_the_dense_range(self, Q, lam):
        rec = sieve_ratio_experiment(Q, Q ** 3)
        assert round(rec["lambda_max"], 6) == lam
        assert rec["residual"] <= 1e-10 * lam

    def test_basis_guard_admits_exactly_its_vectors(self, monkeypatch):
        # S(6, 2) at N = 216 keeps one vector a step, and its FFT matvec holds
        # six more: a guard of exactly m + 6 vectors admits the run's m, and
        # one of m + 5 refuses the m-th
        inst = SieveInstance.set_free(6, 2, 216)
        spec = gram_lambda_max(inst, "frequencies")
        m = spec.iterations
        monkeypatch.setattr(sv, "LANCZOS_BASIS_BYTES", (m + 6) * 216 * 8)
        assert gram_lambda_max(inst, "frequencies") == spec
        monkeypatch.setattr(sv, "LANCZOS_BASIS_BYTES", (m + 5) * 216 * 8)
        with pytest.raises(ValueError, match=rf"^a Lanczos run keeping {m} vector\(s\) of length "
                                             rf"N = 216 holds {(m + 6) * 1728} bytes with its FFT "
                                             rf"buffers, over the basis guard {(m + 5) * 1728}; "
                                             r"reduce Q or N$"):
            gram_lambda_max(inst, "frequencies")

    def test_complex_basis_guard_counts_16_bytes_an_entry(self, monkeypatch):
        # a point list's symbol is complex: every vector and FFT buffer takes
        # 16 bytes an entry, so a guard of exactly m + 6 such vectors admits
        # the run's m, and one of m + 5 refuses the m-th; one of 7 reaches the
        # symbol at N = 216 and refuses N = 217 before it
        points = [Fraction(a, 257) for a in (3, 40, 41, 99, 180, 256)]
        inst = SieveInstance(points, 0, 216)
        spec = gram_lambda_max(inst, "frequencies")
        m = spec.iterations
        monkeypatch.setattr(sv, "LANCZOS_BASIS_BYTES", (m + 6) * 216 * 16)
        assert gram_lambda_max(inst, "frequencies") == spec
        monkeypatch.setattr(sv, "LANCZOS_BASIS_BYTES", (m + 5) * 216 * 16)
        with pytest.raises(ValueError, match=rf"^a Lanczos run keeping {m} vector\(s\) of length "
                                             rf"N = 216 holds {(m + 6) * 3456} bytes with its FFT "
                                             rf"buffers, over the basis guard {(m + 5) * 3456}; "
                                             r"reduce Q or N$"):
            gram_lambda_max(inst, "frequencies")

        class Reached(Exception):
            pass

        def spy(self):
            raise Reached

        monkeypatch.setattr(sv, "LANCZOS_BASIS_BYTES", 7 * 3456)
        monkeypatch.setattr(SieveInstance, "gram_symbol", spy)
        with pytest.raises(Reached):
            gram_lambda_max(inst, "frequencies")
        with pytest.raises(ValueError, match=r"^a Lanczos run keeping 1 vector\(s\) of length "
                                             r"N = 217 holds 24304 bytes"):
            gram_lambda_max(SieveInstance(points, 0, 217), "frequencies")

    @pytest.mark.parametrize("guard, N", [(7 * 216 * 8, 216), (None, 2 ** 30 // 56)],
                             ids=["patched-guard", "default-guard"])
    def test_basis_guard_checked_before_the_symbol(self, monkeypatch, guard, N):
        # every run holds its start vector, the circulant spectrum and one
        # matvec's buffers, seven vectors: at the guard's last N the symbol is
        # reached, and one past it is refused before anything of size N
        class Reached(Exception):
            pass

        def spy(self):
            raise Reached

        if guard is not None:
            monkeypatch.setattr(sv, "LANCZOS_BASIS_BYTES", guard)
        monkeypatch.setattr(SieveInstance, "gram_symbol", spy)
        with pytest.raises(Reached):
            sieve_ratio_experiment(6, N)
        held = 7 * 8 * (N + 1)
        with pytest.raises(ValueError, match=rf"^a Lanczos run keeping 1 vector\(s\) of length "
                                             rf"N = {N + 1} holds {held} bytes with its FFT "
                                             rf"buffers, over the basis guard {guard or 2 ** 30};"):
            sieve_ratio_experiment(6, N + 1)

    def test_solve_peak_memory_is_the_basis_and_a_few_vectors(self):
        # the basis is m vectors of 8N bytes; the symbol, the circulant spectrum,
        # the FFT buffers and the Ritz vector add a few more: a stacked copy
        # of the basis would add m more
        N = 27000
        inst = SieveInstance.set_free(30, 2, N)
        m = gram_lambda_max(inst, "frequencies").iterations
        tracemalloc.start()
        try:
            gram_lambda_max(inst, "frequencies")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m > 30
        assert m * 8 * N < peak <= (m + 16) * 8 * N

    @pytest.mark.parametrize("Q, k", [(1, 60), (1, 61), (2, 29), (2, 30), (3104, 3), (3105, 3)])
    def test_symbol_width_guard(self, Q, k):
        # every partial sum of the symbol is at most (2Q)**(k+2)/2, so (Q, k) is
        # admitted exactly while (2Q)**(k+2) < 2**63; refused before the symbol
        if (2 * Q) ** (k + 2) < 2 ** 63:
            inst = SieveInstance.set_free(Q, k, 3)
            c = inst.gram_symbol()
            assert c[0] == inst.K and c.dtype == np.int64
            if Q == 1:  # S(1, k) is the odd a/2**k: G = K I below N = 2**(k-1)
                lam = sieve_ratio_experiment(Q, 3, k)["lambda_max"]
                assert lam == pytest.approx(2 ** (k - 1), rel=1e-15, abs=0)
        else:
            with pytest.raises(OverflowError, match=rf"more than 63: the symbol of S\({Q}, {k}\) "
                                                    r"sums terms up to \(2Q\)\*\*\(k\+2\)/2"):
                sieve_ratio_experiment(Q, 3, k)

    def test_ritz_vector_has_unit_length(self):
        # the basis is not orthonormal, so the residual certificate is taken
        # on the Ritz vector scaled to unit length
        c = SieveInstance.set_free(3, 3, 81).gram_symbol()
        apply = sv._toeplitz_matvec(c)
        lam, y, steps = sv._lanczos(apply, 81, int(c[0]))
        assert steps > 40
        assert np.linalg.norm(y) == pytest.approx(1.0, rel=0, abs=1e-14)
        assert np.linalg.norm(apply(y) - lam * y) <= sv.RESIDUAL_TOL * lam

    def test_set_free_instance_reads_its_columns_on_first_use(self, monkeypatch):
        # K comes from the closed form, once; the columns from one enumeration,
        # made when the first is read; matrix refuses past the gram guard on
        # that K before any set is enumerated
        counted, enumerated = [], []
        count, enumerate_ = sv.expected_cardinality, sv.enumerate_set
        monkeypatch.setattr(sv, "expected_cardinality", lambda *a: counted.append(a) or count(*a))
        monkeypatch.setattr(sv, "enumerate_set", lambda *a: enumerated.append(a) or enumerate_(*a))
        inst = SieveInstance.set_free(3, 2, 27)
        assert inst.full_set == (3, 2) and inst.K == inst.K == 40 and counted == [(3, 2)]
        assert gram_lambda_max(inst, "frequencies").lambda_max > 0 and enumerated == []
        fs = enumerate_(3, 2)
        assert np.array_equal(inst.nums, fs.numerators) and enumerated == [(3, 2)]
        assert np.array_equal(inst.dens, fs.denominators()) and enumerated == [(3, 2)]
        big = SieveInstance.set_free(30, 2, sv.GRAM_CELL_GUARD // 30)
        with pytest.raises(ValueError, match="exceeds the gram guard"):
            big.matrix()
        assert enumerated == [(3, 2)]
        full = SieveInstance.from_fraction_set(fs, 27)
        assert full.full_set == (3, 2) and full.K == 40 and full.nums is not None
        assert enumerated == [(3, 2)]  # the set handed over is the one read
        assert gram_lambda_max(inst, "frequencies") == gram_lambda_max(full, "frequencies")

    @pytest.mark.parametrize("Q, k", [(3, 2), (5, 2), (2, 3)])
    def test_every_full_set_maker_gives_one_set(self, Q, k):
        # set-free, handed a set, and a list of the set's points: the same
        # columns, points-side lambda and exact gap
        fs = enumerate_set(Q, k)
        makers = [SieveInstance.set_free(Q, k, 7), SieveInstance.from_fraction_set(fs, 7),
                  SieveInstance(point_list(fs), 0, 7)]
        lams = {gram_lambda_max(inst, "points").lambda_max for inst in makers}
        gaps = {min_torus_gap(inst) for inst in makers}
        assert len(lams) == 1 and gaps == {sorted_gap_reference(point_list(fs))}
        for inst in makers:
            assert inst.K == len(fs)
            assert np.array_equal(inst.nums, fs.numerators)
            assert np.array_equal(inst.dens, fs.denominators())


class TestSpectralProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        points=st.sets(
            st.fractions(min_value=0, max_value=1, max_denominator=300),
            min_size=1,
            max_size=12,
        ),
        M=st.integers(-50, 50),
        N=st.integers(1, 24),
    )
    def test_duality_ceiling_and_floor(self, points, M, N):
        inst = SieveInstance(sorted({x % 1 for x in points}), M, N)
        lhs, rhs = duality_check(inst)
        lam = max(lhs, rhs)
        assert abs(lhs - rhs) <= 1e-8 * lam
        assert lam <= cohen_selberg_ceiling(inst) + 1e-6
        assert lam >= max(inst.K, inst.N) * (1 - 1e-9)


class TestCeilings:
    def test_orthogonal_pair_ceiling(self):
        inst = SieveInstance([0, Fraction(1, 2)], 0, 2)
        assert cohen_selberg_ceiling(inst) == pytest.approx(3.0)
        assert gram_lambda_max(inst).lambda_max <= 3.0 + 1e-6

    def test_single_point_degenerate_convention(self):
        inst = SieveInstance([Fraction(1, 3)], 0, 11)
        assert cohen_selberg_ceiling(inst) == 11.0

    def test_q2_instance_exact_gap(self):
        inst = SieveInstance.from_fraction_set(enumerate_set(2, 2), 10)
        assert min_torus_gap(inst) == Fraction(1, 144)
        assert cohen_selberg_ceiling(inst) == pytest.approx(153.0)
        assert gram_lambda_max(inst).lambda_max <= 153.0 + 1e-6

    def test_float_points_supported(self):
        inst = SieveInstance([0.1, 0.35, 0.82], 0, 4)
        ceil = cohen_selberg_ceiling(inst)
        assert gram_lambda_max(inst).lambda_max <= ceil + 1e-6

    def test_coincident_points_rejected_by_gap(self):
        with pytest.raises(ValueError):
            min_torus_gap(SieveInstance([Fraction(1, 3)], 0, 2))


class TestMinTorusGap:
    """min_torus_gap reads K adjacent gaps off ascending columns; checked
    against sorting every point."""

    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_rational_points(self, seed):
        rng = random.Random(seed)
        den = rng.randrange(50, 5000)
        pts = list({Fraction(rng.randrange(-den, 2 * den), rng.randrange(1, den)) % 1
                    for _ in range(rng.randrange(2, 60))})
        rng.shuffle(pts)
        inst = SieveInstance(pts, 0, 5)
        assert_ascending(inst)
        gap = min_torus_gap(inst)
        assert isinstance(gap, Fraction)
        assert gap == sorted_gap_reference(pts)

    def test_seam_gap_is_the_minimum(self):
        pts = [Fraction(2, 3), Fraction(499, 500), Fraction(1, 3), Fraction(1, 500)]
        inst = SieveInstance(pts, 0, 4)
        assert min_torus_gap(inst) == Fraction(1, 250) == sorted_gap_reference(pts)
        floats = [2 / 3, 0.999, 1 / 3, 0.001]
        gap = min_torus_gap(SieveInstance(floats, 0, 4))
        assert gap == Fraction(0.001) + (1 - Fraction(0.999)) == sorted_gap_reference(floats)

    @pytest.mark.parametrize(
        "pts, expected",
        [
            ([Fraction(6, 7), Fraction(1, 7)], Fraction(2, 7)),
            ([Fraction(1, 5), Fraction(3, 10)], Fraction(1, 10)),
            ([Fraction(1, 2), 0], Fraction(1, 2)),
            ([0.1, 0.0], Fraction(0.1)),  # the binary value of 0.1, not one tenth
        ],
    )
    def test_two_point_instance(self, pts, expected):
        gap = min_torus_gap(SieveInstance(pts, 0, 3))
        assert gap == expected == sorted_gap_reference(pts)

    def test_denominators_past_2_31_take_object_width(self):
        rng = random.Random(31)
        pts = [Fraction(rng.randrange(1, d), d) for d in
               (2 ** 32 + 15, 2 ** 33 + 17, 2 ** 40 + 15, 3 ** 25, 7)]
        pts += [pts[0] + Fraction(1, (2 ** 32 + 15) * 5)]  # a near twin
        rng.shuffle(pts)
        inst = SieveInstance(pts, 0, 3)
        assert inst.nums.dtype == object and inst.dens.dtype == object
        assert_ascending(inst)
        assert min_torus_gap(inst) == sorted_gap_reference(pts)

    def test_shuffled_float_points(self):
        rng = random.Random(7)
        for _ in range(5):
            pts = list({rng.random() for _ in range(rng.randrange(2, 40))})
            pts += [0.0, 0.9999999999999999]
            rng.shuffle(pts)
            inst = SieveInstance(pts, 0, 3)
            assert_ascending(inst)
            gap = min_torus_gap(inst)
            assert type(gap) is Fraction and gap == sorted_gap_reference(pts)

    @pytest.mark.parametrize("Q", [2, 5, 12])
    def test_fraction_set_columns_ascending(self, Q):
        fs = enumerate_set(Q, 2)
        inst = SieveInstance.from_fraction_set(fs, 8)
        assert_ascending(inst)
        assert min_torus_gap(inst) == sorted_gap_reference(p.as_fraction() for p in fs)


class TestBoundCatalog:
    def test_quadratic_example_values(self):
        entries = {r["name"]: (r["value"], r["assertable"]) for r in bound_catalog(2, 16, 2, 0.0)}
        assert entries["coarse_global"][0] == 32.0
        assert entries["per_q_classical"][0] == 40.0
        # direct arithmetic for the dyadic differencing form
        expected = math.log(4) * (8 + (16 * math.sqrt(2) + math.sqrt(16) * 4))
        assert entries["weyl_dyadic"][0] == pytest.approx(expected)
        assert entries["per_q_exact"] == (55.0, True)  # (9-1+16) + (16-1+16)

    def test_trivial_parameters(self):
        entries = {r["name"]: r["value"] for r in bound_catalog(1, 1, 2, 0.0)}
        assert entries["coarse_global"] == 2.0

    def test_coarse_forms_cross_at_cubic_window(self):
        # at N = Q**3 both coarse closed forms evaluate to Q**4 + Q**3
        entries = {r["name"]: r["value"] for r in bound_catalog(10, 1000, 2, 0.0)}
        assert entries["coarse_global"] == entries["per_q_classical"] == 11000.0

    def test_only_the_per_q_aggregate_is_assertable(self):
        flags = {r["name"]: r["assertable"] for r in bound_catalog(3, 9, 2, 0.1)}
        assert flags.pop("per_q_exact") is True
        assert not any(flags.values())

    def test_half_power_form_only_for_quadratic(self):
        names = {r["name"] for r in bound_catalog(3, 9, 3, 0.0)}
        assert "half_power" not in names

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("epsilon", [0.0, 0.25, 1.0])
    def test_every_admitted_value_is_finite_and_positive(self, k, epsilon):
        # past bound_catalog's refusals no form is zero, so every ratio is finite
        for Q in (1, 2, 7):
            for N in (1, 2, Q ** (k + 1), 10 ** 6):
                for row in bound_catalog(Q, N, k, epsilon):
                    assert math.isfinite(row["value"]) and row["value"] > 0, (Q, N, row)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            bound_catalog(0, 1)
        with pytest.raises(ValueError):
            bound_catalog(1, 1, 2, -0.5)

    @pytest.mark.parametrize("Q,k_max", [(1, 1023), (2, 511), (1000, 51)])
    def test_width_refused_from_bit_lengths(self, Q, k_max):
        # the largest converted int, Q**(2k) (2**k at Q = 1), must stay under
        # 2**1024; one step of k past the edge is refused with Q, k and bits
        assert all(math.isfinite(r["value"]) for r in bound_catalog(Q, 1, k_max))
        with pytest.raises(OverflowError, match=rf"bits, more than 1024: .* Q={Q}, k={k_max + 1}"):
            bound_catalog(Q, 1, k_max + 1)


    @pytest.mark.parametrize("Q, N, k, epsilon, form", [
        (2, 8, 2, 2000.0, "weyl_dyadic"),       # N**epsilon raises OverflowError
        (2, 1, 2, 1100.0, "half_power"),        # so does Q**(0.5 + epsilon)
        (2, 1, 3, 1023.5, "conjectured_optimal"),  # Q**epsilon * 9 is inf
    ])
    def test_epsilon_past_float_range_names_the_form(self, Q, N, k, epsilon, form):
        with pytest.raises(ValueError, match=rf"^the {form} bound at Q={Q}, N={N}, k={k}, "
                                             rf"epsilon={epsilon} leaves float range$"):
            bound_catalog(Q, N, k, epsilon)
        assert all(math.isfinite(r["value"]) for r in bound_catalog(Q, N, k, 1.0))


class TestRatioExperiment:
    def test_smallest_instance(self):
        rec = sieve_ratio_experiment(1, 4)
        assert rec["lambda_max"] == pytest.approx(4.0, rel=1e-9)
        assert rec["lambda_max"] <= cohen_selberg_ceiling(
            SieveInstance.from_fraction_set(enumerate_set(1, 2), 4)
        )

    def test_cubic_window_regression(self):
        rec = sieve_ratio_experiment(4, 64)
        names = {b["name"] for b in rec["bounds"]}
        assert {"per_q_exact", "weyl_dyadic", "conjectured_optimal"} <= names
        for b in rec["bounds"]:
            if b["assertable"]:
                assert rec["lambda_max"] <= b["value"] + 1e-6

    def test_power_three_window(self):
        rec = sieve_ratio_experiment(2, 8, 3)
        assert rec["lambda_max"] <= per_q_exact_ceiling(2, 8, 3) + 1e-6
        assert rec["k"] == 3

    def test_reports_the_q_and_k_of_its_set(self):
        # S(4, 2) at N = 27 is labelled Q = 4 and ratioed against the Q = 4
        # ceiling, and solved on the same set as its FractionSet instance
        rec = sieve_ratio_experiment(4, 27)
        assert (rec["Q"], rec["N"], rec["k"]) == (4, 27, 2)
        ceiling = {b["name"]: b["value"] for b in rec["bounds"]}["per_q_exact"]
        assert ceiling == per_q_exact_ceiling(4, 27, 2)
        inst = SieveInstance.from_fraction_set(enumerate_set(4, 2), 27)
        assert rec["lambda_max"] == gram_lambda_max(inst, "frequencies").lambda_max

    @pytest.mark.parametrize("N", [79, 80, 200])
    def test_every_window_takes_lanczos(self, monkeypatch, N):
        # |S(3, 2)| = 40: every N, below 2K = 80 or not, is Lanczos on the real
        # symbol, and it agrees with the dense complex points solve
        seen = []
        eigh, lanczos = np.linalg.eigh, sv._lanczos

        def spy_eigh(G):
            if np.iscomplexobj(G):
                seen.append((G.dtype, len(G)))
            return eigh(G)

        def spy_lanczos(apply, n, K):
            seen.append((np.float64, n))
            return lanczos(apply, n, K)

        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        monkeypatch.setattr(sv, "_lanczos", spy_lanczos)
        rec = sieve_ratio_experiment(3, N)
        assert seen == [(np.float64, N)]
        inst = SieveInstance.from_fraction_set(enumerate_set(3, 2), N)
        assert rec["lambda_max"] == pytest.approx(gram_lambda_max(inst, "points").lambda_max,
                                                  rel=1e-12, abs=0)

    @pytest.mark.parametrize("N", [20, 21, 22, 25, 40])
    def test_krylov_space_exhausted_between_checks(self, N):
        # |S(2, 2)| = 14 < N: the Krylov space ends at step 15, between the
        # checks at steps 8 and 24, where a run stopped at step N fails its
        # residual; every step from K + 1 = 15 on is checked, and the run stops there
        rec = sieve_ratio_experiment(2, N)
        inst = SieveInstance.from_fraction_set(enumerate_set(2, 2), N)
        assert rec["iterations"] == 15
        assert rec["lambda_max"] == pytest.approx(gram_lambda_max(inst, "points").lambda_max,
                                                  rel=1e-12, abs=0)

    def test_guard_rejects_oversized(self):
        # the start vector and the FFT buffers, 7 * 8N bytes, pass 2**30 at N = 2 * 10**7
        with pytest.raises(ValueError, match="a Lanczos run keeping 1 vector.* basis guard"):
            sieve_ratio_experiment(40, 2 * 10 ** 7)

    def test_builds_no_fraction_set(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("FractionSet built for a set-free experiment")

        monkeypatch.setattr(rationals, "enumerate_set", refuse)
        monkeypatch.setattr(FractionSet, "__init__", refuse)
        rec = sieve_ratio_experiment(6, 216)
        assert rec["lambda_max"] == pytest.approx(884.2102893353879, rel=1e-12, abs=0)

    def test_fraction_set_instance_builds_no_fraction(self, monkeypatch):
        fs = enumerate_set(6, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("Fraction built for a fraction-set instance")

        monkeypatch.setattr(sv, "Fraction", refuse)
        inst = SieveInstance.from_fraction_set(fs, 216)
        assert inst.K == len(fs) == 326
        lhs, rhs = duality_check(inst)
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs)

    def test_frequencies_side_is_guarded_on_the_cells_it_forms(self, monkeypatch):
        # |S(3, 2)| = 40 at N = 30 takes the frequencies side: its 30 x 30 Gram
        # comes from the Ramanujan-sum symbol, and none of the K*N = 1200
        # sieve-matrix cells is evaluated, so a 1000-cell guard admits it
        fs = enumerate_set(3, 2)
        inst = SieveInstance.from_fraction_set(fs, 30)
        expected = gram_lambda_max(inst, "frequencies").lambda_max
        monkeypatch.setattr(sv, "GRAM_CELL_GUARD", 1000)
        assert sieve_ratio_experiment(3, 30)["lambda_max"] == expected
        with pytest.raises(ValueError, match=r"K\*N = 1200 exceeds the gram guard 1000"):
            gram_lambda_max(inst, "points")

    def test_point_list_symbol_is_guarded_on_its_sieve_cells(self, monkeypatch):
        # the same 40 points as a list sum their symbol over K*N sieve-matrix cells
        monkeypatch.setattr(sv, "GRAM_CELL_GUARD", 1000)
        inst = SieveInstance(point_list(enumerate_set(3, 2)), 0, 30)
        with pytest.raises(ValueError, match=r"K\*N = 1200 exceeds the gram guard 1000"):
            gram_lambda_max(inst, "frequencies")

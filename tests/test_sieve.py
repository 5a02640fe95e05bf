"""Gram spectra, duality, exact ceilings, and the bound catalog."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersieve import sieve as sv
from powersieve.rationals import enumerate_set, strictly_increasing
from powersieve.sieve import (
    ConvergenceError,
    SieveBoundViolation,
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
    """Minimal torus gap by sorting every point as a Fraction (or float)."""
    pts = sorted(
        Fraction(p) % 1 if isinstance(p, (int, Fraction)) else p % 1.0 for p in points
    )
    gaps = [b - a for a, b in zip(pts, pts[1:])] + [1 - (pts[-1] - pts[0])]
    return min(min(g, 1 - g) for g in gaps)


def assert_ascending(inst: SieveInstance) -> None:
    if inst.nums is None:
        assert np.all(np.diff(inst.values) > 0)
    else:
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
        inst = SieveInstance(points, M, 30)
        T = inst.matrix()
        if inst.nums is not None:
            phases = [
                [float(Fraction(a, d) * n % 1) for n in range(M + 1, M + 31)]
                for a, d in zip(inst.nums.tolist(), inst.dens.tolist())
            ]
            assert np.allclose(T, np.exp(2j * np.pi * np.array(phases)), rtol=0, atol=1e-12)
        dense = T.conj().T @ T
        toeplitz = sv._gram(inst, "frequencies")
        assert toeplitz.shape == dense.shape
        assert np.allclose(toeplitz, dense, rtol=0, atol=1e-12 * inst.K)

    def test_perturbed_eigenpair_raises_convergence_error(self, monkeypatch):
        inst = SieveInstance.from_fraction_set(enumerate_set(3, 2), 27)
        eigh = np.linalg.eigh

        def perturbed(G):
            w, V = eigh(G)
            return w + 1e-3, V

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError) as err:
            gram_lambda_max(inst)
        assert err.value.iterations == 1
        assert err.value.residual == pytest.approx(1e-3, rel=1e-6)

    def test_guard_on_solved_gram_cells(self):
        inst = SieveInstance([Fraction(1, 3)], 0, 4000)
        with pytest.raises(ValueError, match="guard"):
            gram_lambda_max(inst, side="frequencies")
        assert gram_lambda_max(inst, side="points").lambda_max == pytest.approx(4000)


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
        assert min_torus_gap(SieveInstance(floats, 0, 4)) == sorted_gap_reference(floats)

    @pytest.mark.parametrize(
        "pts, expected",
        [
            ([Fraction(6, 7), Fraction(1, 7)], Fraction(2, 7)),
            ([Fraction(1, 5), Fraction(3, 10)], Fraction(1, 10)),
            ([Fraction(1, 2), 0], Fraction(1, 2)),
            ([0.1, 0.0], 1 - (1 - 0.1)),  # the float fold of the seam gap 0.9
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
            assert type(gap) is float and gap == sorted_gap_reference(pts)

    @pytest.mark.parametrize("Q", [2, 5, 12])
    def test_fraction_set_columns_ascending(self, Q):
        fs = enumerate_set(Q, 2)
        inst = SieveInstance.from_fraction_set(fs, 8)
        assert_ascending(inst)
        assert min_torus_gap(inst) == sorted_gap_reference(p.as_fraction() for p in fs)


class TestBoundCatalog:
    def test_quadratic_example_values(self):
        entries = {name: (value, flag) for name, value, flag in bound_catalog(2, 16, 2, 0.0)}
        assert entries["coarse_global"][0] == 32.0
        assert entries["per_q_classical"][0] == 40.0
        # direct arithmetic for the dyadic differencing form
        expected = math.log(4) * (8 + (16 * math.sqrt(2) + math.sqrt(16) * 4))
        assert entries["weyl_dyadic"][0] == pytest.approx(expected)
        assert entries["per_q_exact"] == (55.0, True)  # (9-1+16) + (16-1+16)

    def test_trivial_parameters(self):
        entries = dict(
            (name, value) for name, value, _ in bound_catalog(1, 1, 2, 0.0)
        )
        assert entries["coarse_global"] == 2.0

    def test_coarse_forms_cross_at_cubic_window(self):
        # at N = Q**3 both coarse closed forms evaluate to Q**4 + Q**3
        entries = dict((n, v) for n, v, _ in bound_catalog(10, 1000, 2, 0.0))
        assert entries["coarse_global"] == entries["per_q_classical"] == 11000.0

    def test_only_the_per_q_aggregate_is_assertable(self):
        flags = {name: flag for name, _, flag in bound_catalog(3, 9, 2, 0.1)}
        assert flags.pop("per_q_exact") is True
        assert not any(flags.values())

    def test_half_power_form_only_for_quadratic(self):
        names = {name for name, _, _ in bound_catalog(3, 9, 3, 0.0)}
        assert "half_power" not in names

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            bound_catalog(0, 1)
        with pytest.raises(ValueError):
            bound_catalog(1, 1, 2, -0.5)


class TestRatioExperiment:
    def test_smallest_instance(self):
        rec = sieve_ratio_experiment(1, 4, 2)
        assert rec["lambda_max"] == pytest.approx(4.0, rel=1e-9)
        assert rec["lambda_max"] <= cohen_selberg_ceiling(
            SieveInstance.from_fraction_set(enumerate_set(1, 2), 4)
        )

    def test_cubic_window_regression(self):
        rec = sieve_ratio_experiment(4, 64, 2)
        names = {b["name"] for b in rec["bounds"]}
        assert {"per_q_exact", "weyl_dyadic", "conjectured_optimal"} <= names
        for b in rec["bounds"]:
            if b["assertable"]:
                assert rec["lambda_max"] <= b["value"] + 1e-6

    def test_power_three_window(self):
        rec = sieve_ratio_experiment(2, 8, 3)
        assert rec["lambda_max"] <= per_q_exact_ceiling(2, 8, 3) + 1e-6
        assert rec["k"] == 3

    def test_guard_rejects_oversized(self):
        with pytest.raises(ValueError, match="guard"):
            sieve_ratio_experiment(40, 10 ** 6, 2)

    def test_fraction_set_instance_builds_no_fraction(self, monkeypatch):
        fs = enumerate_set(6, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("Fraction built for a fraction-set instance")

        monkeypatch.setattr(sv, "Fraction", refuse)
        inst = SieveInstance.from_fraction_set(fs, 216)
        assert inst.K == len(fs) == 326
        lhs, rhs = duality_check(inst)
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs)

    def test_guard_checked_before_instance_build(self, monkeypatch):
        fs = enumerate_set(40, 2)

        def refuse(self, *args, **kwargs):
            raise AssertionError("instance built for a guarded experiment")

        monkeypatch.setattr(SieveInstance, "__init__", refuse)
        with pytest.raises(ValueError, match=r"K\*N = 92278000000 exceeds the gram guard"):
            sieve_ratio_experiment(40, 10 ** 6, fraction_set=fs)

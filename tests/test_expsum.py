"""Exponential sums, the differencing majorant, and kernel identities."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from powersieve import expsum
from powersieve.expsum import (
    ZERO_GUARD,
    PolynomialPhase,
    exp_sum,
    fejer_phi,
    fejer_phi_hat,
    poisson_identity_check,
    v_kernel,
    v_kernel_partial_sum,
    v_kernel_series,
    weyl_bound,
)


def direct_exp_sum(coeffs, start, length):
    """Term-by-term oracle with Fraction-reduced phases."""
    total = 0j
    for n in range(start, start + length):
        f = sum(Fraction(c) * n ** j for j, c in enumerate(coeffs))
        frac = f - math.floor(f)
        total += cmath.exp(2j * math.pi * float(frac))
    return total


def reference_weyl_bound(phase, interval):
    """The majorant with a dict of products and one Fraction per term."""
    k = phase.degree
    kappa = 2 ** (k - 1)
    _, N = interval
    alpha = phase.leading
    fact = math.factorial(k)
    prods = {}
    if N > 1:
        prods = {1: 1}
        for _ in range(k - 1):
            nxt = {}
            for val, mult in prods.items():
                for r in range(1, N):
                    nxt[val * r] = nxt.get(val * r, 0) + mult
            prods = nxt

    def term(multiplier):
        if isinstance(alpha, (int, Fraction)):
            x = Fraction(alpha) * multiplier
            num = x.numerator % x.denominator
            num = min(num, x.denominator - num)
            if num == 0:
                return float(N)
            return float(min(Fraction(N), Fraction(x.denominator, num)))
        y = alpha * multiplier
        dist = abs(y - round(y))
        return float(N) if dist < ZERO_GUARD else min(float(N), 1.0 / dist)

    rsum = math.fsum(mult * term(fact * val) for val, mult in prods.items())
    return float(2 ** (2 * kappa)) * N ** (kappa - 1) + float(2 ** kappa) * N ** (
        kappa - k
    ) * rsum


def criterion_5_phases():
    """The 500 (phase, interval) pairs of acceptance criterion 5."""
    rng = random.Random(1894)
    out = []
    for trial in range(500):
        k = 2 if trial % 2 == 0 else 3
        den = rng.randrange(1, 120)
        alpha = Fraction(rng.randrange(1, den + 1), den)
        lower = tuple(
            Fraction(rng.randrange(0, 7), rng.randrange(1, 9)) for _ in range(k)
        )
        N = rng.randrange(1, 201)
        start = rng.randrange(-50, 50)
        out.append((PolynomialPhase(lower + (alpha,)), (start, N)))
    return out


class TestExpSum:
    def test_alternating_half_square(self):
        # e(n**2 / 2) = (-1)**n, so the sum over 1..10 vanishes
        s = exp_sum(PolynomialPhase.monomial(Fraction(1, 2), 2), (1, 10))
        assert abs(s) < 1e-12

    def test_integer_leading_coefficient(self):
        s = exp_sum(PolynomialPhase.monomial(1, 2), (1, 5))
        assert s == pytest.approx(5.0 + 0j, abs=1e-12)

    def test_fifth_root_phase_against_direct_oracle(self):
        phase = PolynomialPhase.monomial(Fraction(1, 5), 2)
        s = exp_sum(phase, (1, 20))
        oracle = direct_exp_sum([0, 0, Fraction(1, 5)], 1, 20)
        assert s == pytest.approx(oracle, abs=1e-12)
        # frozen regression of the direct evaluation
        assert s.real == pytest.approx(8.944271909999157, abs=1e-9)
        assert abs(s.imag) < 1e-12

    def test_full_polynomial_with_constant_and_linear_terms(self):
        phase = PolynomialPhase((Fraction(1, 3), Fraction(2, 7), Fraction(1, 11)))
        s = exp_sum(phase, (-5, 13))
        oracle = direct_exp_sum(phase.coefficients, -5, 13)
        assert s == pytest.approx(oracle, abs=1e-12)

    def test_integer_alpha_gives_exactly_N(self):
        # all nonleading coefficients zero and integer leading: every term 1
        for N in (3, 17, 101):
            s = exp_sum(PolynomialPhase.monomial(4, 3), (1, N))
            assert abs(s - N) <= 1e-12 * N

    def test_interval_must_be_nonempty(self):
        with pytest.raises(ValueError):
            exp_sum(PolynomialPhase.monomial(1, 2), (1, 0))

    def test_float_coefficients_supported(self):
        s = exp_sum(PolynomialPhase.monomial(math.sqrt(2), 2), (1, 30))
        oracle = sum(
            cmath.exp(2j * math.pi * ((math.sqrt(2) * n * n) % 1.0))
            for n in range(1, 31)
        )
        assert s == pytest.approx(oracle, rel=1e-9)


class TestWeylBound:
    def test_hand_value_integer_alpha(self):
        # alpha = 1, k = 2, N = 5: every ||2r|| = 0, so each min is N
        bound = weyl_bound(PolynomialPhase.monomial(1, 2), (1, 5))
        assert bound == 160.0
        s = abs(exp_sum(PolynomialPhase.monomial(1, 2), (1, 5)))
        assert s ** 2 == pytest.approx(25.0)
        assert s ** 2 <= bound

    def test_alternating_alpha_frozen_bound(self):
        phase = PolynomialPhase.monomial(Fraction(1, 2), 2)
        bound = weyl_bound(phase, (1, 10))
        assert bound == 520.0  # frozen; 160 + 4 * sum of min(10, 1/||r||)
        assert abs(exp_sum(phase, (1, 10))) ** 2 <= bound

    def test_degree_three_against_direct_double_sum(self):
        phase = PolynomialPhase.monomial(Fraction(1, 7), 3)
        bound = weyl_bound(phase, (1, 8))
        rsum = 0.0
        for r1 in range(1, 8):
            for r2 in range(1, 8):
                v = (6 * r1 * r2) % 7
                num = min(v, 7 - v)
                rsum += 8.0 if num == 0 else min(8.0, 7.0 / num)
        assert bound == pytest.approx(2 ** 8 * 8 ** 3 + 2 ** 4 * 8 * rsum)
        s4 = abs(exp_sum(phase, (1, 8))) ** 4
        assert s4 <= bound

    def test_single_term_interval_edge(self):
        # N = 1: empty r-sum, bound collapses to 2**(2 kappa)
        assert weyl_bound(PolynomialPhase.monomial(Fraction(1, 3), 2), (5, 1)) == 16.0

    def test_rejects_linear_phase(self):
        with pytest.raises(ValueError):
            weyl_bound(PolynomialPhase((0, Fraction(1, 2))), (1, 5))

    @pytest.mark.parametrize("k", [2, 3])
    def test_bound_validity_random_rational_phases(self, k):
        rng = random.Random(k * 1001)
        kappa = 2 ** (k - 1)
        for _ in range(50):
            den = rng.randrange(1, 60)
            num = rng.randrange(0, den) or 1
            alpha = Fraction(num, den)
            N = rng.randrange(1, 80)
            lower = [Fraction(rng.randrange(0, 5), rng.randrange(1, 7)) for _ in range(k)]
            phase = PolynomialPhase(tuple(lower) + (alpha,))
            s = abs(exp_sum(phase, (rng.randrange(-10, 10), N)))
            assert s ** kappa <= weyl_bound(phase, (0, N)) * (1 + 1e-12)

    def test_float_alpha_guard_band(self):
        # float alpha whose multiple lands within the zero guard counts as N
        phase = PolynomialPhase.monomial(0.5 + 1e-12, 2)
        bound_exact = weyl_bound(PolynomialPhase.monomial(Fraction(1, 2), 2), (1, 10))
        assert weyl_bound(phase, (1, 10)) == pytest.approx(bound_exact, rel=1e-6)


class TestWeylReference:
    """weyl_bound on integer columns equals the per-term Fraction majorant
    bit for bit (==, not approx)."""

    def test_criterion_5_phases(self):
        for phase, interval in criterion_5_phases():
            assert weyl_bound(phase, interval) == reference_weyl_bound(phase, interval)

    @pytest.mark.parametrize(
        "alpha, k, N",
        [
            (0.5 + 1e-12, 2, 10),  # guard band: multiples of 2 alpha land within 1e-9
            (0.5 + 1e-12, 3, 25),
            (1 / 3 + 1e-11, 3, 30),
            (math.sqrt(2), 3, 40),
            (-math.pi, 2, 57),
            (Fraction(1, 7), 4, 12),
            (Fraction(5, 11), 4, 9),
            (math.sqrt(3), 4, 10),
            (Fraction(37, 97), 3, 1),
            (Fraction(37, 97), 3, 2),
            (0.25, 2, 1),
            (math.sqrt(2), 3, 2),
            (3, 3, 20),
            (Fraction(-5, 7), 2, 30),
        ],
    )
    def test_float_rational_and_edge_cases(self, alpha, k, N):
        phase = PolynomialPhase.monomial(alpha, k)
        assert weyl_bound(phase, (1, N)) == reference_weyl_bound(phase, (1, N))

    @pytest.mark.parametrize("k, N", [(2, 50), (3, 30)])
    def test_denominator_past_2_31_takes_object_path(self, monkeypatch, k, N):
        dtypes = []
        width_rule = expsum.exact_columns

        def spy(*cols, bound):
            out = width_rule(*cols, bound=bound)
            dtypes.extend(c.dtype for c in out)
            return out

        monkeypatch.setattr(expsum, "exact_columns", spy)
        phase = PolynomialPhase.monomial(Fraction(3_000_000_019, 2 ** 40 + 15), k)
        assert weyl_bound(phase, (1, N)) == reference_weyl_bound(phase, (1, N))
        assert dtypes and all(dt == object for dt in dtypes)


class TestFejerKernel:
    def test_value_at_zero(self):
        assert fejer_phi(0.0) == pytest.approx(math.pi ** 2 / 4, rel=1e-15)

    def test_value_at_half(self):
        assert fejer_phi(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_zero_at_one(self):
        assert abs(fejer_phi(1.0)) < 1e-30

    def test_nonnegative_and_majorizes_indicator(self):
        xs = np.linspace(-3, 3, 1001)
        vals = fejer_phi(xs)
        assert (vals >= 0).all()
        inside = np.abs(xs) <= 0.5
        assert (vals[inside] >= 1.0 - 1e-12).all()

    def test_transform_values(self):
        assert fejer_phi_hat(0.0) == pytest.approx(math.pi ** 2 / 4)
        assert fejer_phi_hat(1.0) == 0.0
        assert fejer_phi_hat(-0.5) == pytest.approx(math.pi ** 2 / 8)
        assert fejer_phi_hat(2.5) == 0.0


class TestPoissonIdentity:
    def test_unit_window(self):
        check = poisson_identity_check(1)
        assert check.rhs == pytest.approx(math.pi ** 2 / 2)
        assert check.gap <= check.tail_bound

    def test_three_window(self):
        check = poisson_identity_check(3)
        assert check.rhs == pytest.approx(3 * math.pi ** 2 / 2)
        assert check.gap <= check.tail_bound

    @pytest.mark.parametrize("N", [1, 2, 5, 17, 50])
    def test_gap_within_tail_bound(self, N):
        check = poisson_identity_check(N)
        assert check.gap <= check.tail_bound

    def test_tail_floor_enforced(self):
        with pytest.raises(ValueError):
            poisson_identity_check(1, tail=10)


class TestVKernel:
    def test_peak_value(self):
        assert v_kernel(0.0, 1) == pytest.approx(math.pi ** 2 / 2)

    def test_support_boundary(self):
        assert v_kernel(0.25, 2) == 0.0
        assert v_kernel(1 - 0.25, 2) == 0.0

    def test_interior_example(self):
        # y = 1/8, N = 2: pi**2 * (1 - 4/8) = pi**2 / 2
        assert v_kernel(0.125, 2) == pytest.approx(math.pi ** 2 / 2)
        assert v_kernel_series(0.125, 2) == pytest.approx(math.pi ** 2 / 2, abs=1e-9)

    def test_imaginary_part_identically_zero(self):
        # the summand is even in n, so the series is real; the partial-sum
        # evaluator is built from cosines, which *is* that statement
        val = v_kernel_partial_sum(0.3, 4, 5000)
        assert isinstance(val, float)

    def test_closed_form_vs_series_random(self):
        rng = random.Random(20240812)
        for _ in range(100):
            N = rng.randrange(1, 21)
            y = rng.random()
            assert v_kernel(y, N) == pytest.approx(v_kernel_series(y, N), abs=1e-6)

    def test_partial_sum_within_tail_bound(self):
        for y, N, T in [(0.2, 3, 100000), (0.49, 7, 200000), (0.0, 1, 50000)]:
            ps = v_kernel_partial_sum(y, N, T)
            assert abs(ps - v_kernel(y, N)) <= 2 * N ** 2 / T + 1e-9

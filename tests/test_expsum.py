"""Exponential sums, the differencing majorant, and kernel identities."""

import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from powersieve import expsum
from powersieve.expsum import (
    PolynomialPhase,
    exp_sum,
    exp_sum_prefixes,
    fejer_phi,
    fejer_phi_hat,
    poisson_identity_check,
    v_kernel,
    v_kernel_series,
    weyl_bound,
    weyl_bounds,
)


def direct_exp_sum(coeffs, start, length):
    """Term-by-term oracle with Fraction-reduced phases."""
    total = 0j
    for n in range(start, start + length):
        f = sum(Fraction(c) * n ** j for j, c in enumerate(coeffs))
        frac = f - math.floor(f)
        total += cmath.exp(2j * math.pi * float(frac))
    return total


def reference_partial_sum(y, N, terms):
    """The V(y) series truncated to |n| <= terms, summed term by term; the
    summand is even in n, so it folds to cosines.  The dropped tail is at
    most 2 N**2 / terms in absolute value."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    return fejer_phi(0.0) + 2.0 * math.fsum(
        fejer_phi(n / (2.0 * N)) * np.cos(2 * math.pi * n * y)
    )


def reference_weyl_bound(phase, interval):
    """The majorant with a dict of products and one Fraction per term; every
    leading coefficient is a Fraction, a float's exact binary value."""
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
        x = alpha * multiplier
        num = x.numerator % x.denominator
        num = min(num, x.denominator - num)
        if num == 0:
            return float(N)
        return float(min(Fraction(N), Fraction(x.denominator, num)))

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

    @pytest.mark.parametrize("alpha, start", [(0.1, 10 ** 8), (math.sqrt(2), 10 ** 6)])
    def test_float_is_its_exact_binary_value_at_large_n(self, alpha, start):
        # f(n) = alpha n**2 reaches 10**15 and 10**12: a float Horner loses the
        # phase there, the exact reduction of Fraction(alpha) does not
        phase = PolynomialPhase.monomial(alpha, 2)
        assert phase.leading == Fraction(alpha)
        oracle = direct_exp_sum([0, 0, Fraction(alpha)], start, 5)
        assert abs(exp_sum(phase, (start, 5)) - oracle) <= 1e-12


def per_term_residues(phase, interval):
    """(L, [P(n) mod L]) for the rational phase f = P/L, by Horner one term
    at a time in Python integers."""
    coeffs = [Fraction(c) for c in phase.coefficients]
    L = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * L) for c in coeffs]
    start, length = interval
    residues = []
    for n in range(start, start + length):
        acc = 0
        for c in reversed(ints):
            acc = (acc * n + c) % L
        residues.append(acc)
    return L, residues


def per_term_thetas(phase, interval):
    """The rational path's phases: the correctly rounded acc / L per term."""
    L, residues = per_term_residues(phase, interval)
    return [acc / L for acc in residues]


def per_term_exp_sum(phase, interval):
    thetas = per_term_thetas(phase, interval)
    return complex(math.fsum(math.cos(2 * math.pi * t) for t in thetas),
                   math.fsum(math.sin(2 * math.pi * t) for t in thetas))


P53 = 9007199254740997  # the least prime above 2**53


class TestExactPhaseColumn:
    """The rational phases, Horner mod L over one integer column, equal the
    per-term Horner bit for bit, at int64 and object width and past 2**53."""

    CASES = {
        "negative_start": (PolynomialPhase((Fraction(1, 3), Fraction(2, 7), Fraction(5, 11))),
                           (-40, 90)),
        "negative_and_fraction_coefficients": (
            PolynomialPhase((-2, Fraction(-5, 6), 7, Fraction(-1, 13))), (1, 60)),
        "negative_leading_coefficient": (PolynomialPhase.monomial(Fraction(-3, 97), 3), (-7, 50)),
        "degree_9": (PolynomialPhase(tuple(Fraction((-1) ** j * j, j + 2) for j in range(10))),
                     (-15, 40)),
        "prime_L_past_2_53": (PolynomialPhase.monomial(Fraction(-5, P53), 2), (-30, 70)),
        "object_width": (PolynomialPhase((0, Fraction(1, 3), Fraction(7, 1099511627791))),
                         (-(2 ** 30) - 20, 45)),
        "object_width_and_L_past_2_53": (PolynomialPhase.monomial(Fraction(2, P53), 3),
                                         (2 ** 20, 30)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_per_term_horner(self, case):
        phase, interval = self.CASES[case]
        thetas = expsum._phase_fractions_mod1(phase, interval)
        assert thetas.dtype == np.float64 and thetas.tolist() == per_term_thetas(phase, interval)
        assert exp_sum(phase, interval) == per_term_exp_sum(phase, interval)

    def test_cases_reach_each_path(self):
        def L_and_bound(case):
            phase, (start, length) = self.CASES[case]
            L, _ = per_term_residues(phase, (start, 1))
            return L, L * (max(-start, start + length - 1) + 1)

        L, bound = L_and_bound("prime_L_past_2_53")
        assert L > 2 ** 53 and bound < 2 ** 62
        L, bound = L_and_bound("object_width")
        assert L < 2 ** 53 and bound > 2 ** 62
        L, bound = L_and_bound("object_width_and_L_past_2_53")
        assert L > 2 ** 53 and bound > 2 ** 62
        # past 2**53 acc is no exact double, and a float64 division rounds differently
        L, residues = per_term_residues(*self.CASES["prime_L_past_2_53"])
        assert any(float(acc) / float(L) != acc / L for acc in residues)


def random_phase(rng):
    """Degree 1-4, coefficients all Fractions or all floats, leading nonzero."""
    degree = rng.randint(1, 4)
    if rng.random() < 0.5:
        coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 200)) for _ in range(degree)]
        coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 200)))
    else:
        coeffs = [rng.uniform(-3, 3) for _ in range(degree)]
        coeffs.append(rng.choice([-1, 1]) * rng.uniform(0.01, 3))
    return PolynomialPhase(tuple(coeffs))


class TestExpSumPrefixes:
    """Every prefix sum is the one-row exp_sum of its own interval, and the
    per-term reference, bit for bit: a theta does not depend on the length."""

    @pytest.mark.parametrize("seed", range(4))
    def test_each_prefix_is_its_own_exp_sum(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            phase = random_phase(rng)
            start, length = rng.randint(-10 ** 6, 50), rng.randint(1, 100)
            for first in (1, length):
                sums = exp_sum_prefixes(phase, (start, length), first)
                assert len(sums) == length - first + 1
                for L, S in zip(range(first, length + 1), sums):
                    assert S == exp_sum(phase, (start, L))
                    assert S == per_term_exp_sum(phase, (start, L))

    @pytest.mark.parametrize("case", sorted(TestExactPhaseColumn.CASES))
    def test_prefixes_across_column_widths(self, case):
        # a short prefix's own column can be narrower than the whole interval's
        phase, (start, length) = TestExactPhaseColumn.CASES[case]
        sums = exp_sum_prefixes(phase, (start, length))
        assert sums == [exp_sum(phase, (start, L)) for L in range(1, length + 1)]
        assert sums[-1] == per_term_exp_sum(phase, (start, length))

    @pytest.mark.parametrize("first", [0, 6])
    def test_first_outside_1_to_length_refused(self, first):
        with pytest.raises(ValueError, match=f"need 1 <= first <= length = 5, got first {first}"):
            exp_sum_prefixes(PolynomialPhase.monomial(Fraction(1, 7), 2), (1, 5), first)


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

    def test_degree_past_float_range_refused(self):
        # 2**(2 kappa) is 2**512 at k = 9 and 2**1024, past float64, at k = 10
        assert weyl_bound(PolynomialPhase.monomial(Fraction(1, 7), 9), (1, 1)) == 2.0 ** 512
        with pytest.raises(OverflowError, match=r"k = 10: .* leaves float range"):
            weyl_bound(PolynomialPhase.monomial(Fraction(1, 7), 10), (1, 1))

    def test_length_past_float_range_refused(self):
        # (4N)**kappa bounds |S|**kappa and the majorant: at k = 9 it is
        # 12**256 < 2**918 for N = 3 and 16**256 = 2**1024 for N = 4
        phase = PolynomialPhase.monomial(Fraction(1, 7), 9)
        assert math.isfinite(weyl_bound(phase, (1, 3)))
        with pytest.raises(OverflowError, match=r"at k=9, N=4 the differencing bound needs "
                                                r"\(4N\)\*\*kappa"):
            weyl_bound(phase, (1, 4))

    def test_cell_guard_refuses_a_round_before_it_is_formed(self, monkeypatch):
        # k = 3, N = 40: the second round would form 39 distinct products x 39
        phase = PolynomialPhase.monomial(Fraction(1, 7), 3)
        bound = weyl_bound(phase, (1, 40))
        monkeypatch.setattr(expsum, "WEYL_CELL_GUARD", 39 * 39)
        assert weyl_bound(phase, (1, 40)) == bound
        monkeypatch.setattr(expsum, "WEYL_CELL_GUARD", 39 * 39 - 1)
        with pytest.raises(ValueError, match="at k=3, N=40 a differencing round forms 1521 "
                                             "product cells, over the guard 1520"):
            weyl_bound(phase, (1, 40))

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
            (0.5 + 1e-12, 2, 10),  # 2 alpha P lands within 1e-9 of an integer, not on it
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
        # the rounds' products fit int64; the residues against v*v do not
        assert dtypes == [np.dtype(np.int64)] * 2 * (k - 1) + [np.dtype(object)]

    def test_each_round_takes_its_own_width(self, monkeypatch):
        # at k = 7, N = 2000 the last round's bound 1999**6 needs Python
        # integers, but round 2's pair keys stay below 2000**3: that round runs
        # in int64, and the guard refuses round 3 (1,999,000 pairs x 1999 cells)
        widths = []
        width_rule = expsum.exact_columns

        def spy(*cols, bound):
            out = width_rule(*cols, bound=bound)
            widths.append(out[0].dtype)
            return out

        monkeypatch.setattr(expsum, "exact_columns", spy)
        phase = PolynomialPhase.monomial(Fraction(1, 7), 7)
        with pytest.raises(ValueError, match="at k=7, N=2000 a differencing round forms"):
            weyl_bound(phase, (1, 2000))
        assert widths == [np.dtype(np.int64)] * 2


class TestWeylBounds:
    """Every row of ``weyl_bounds`` equals the per-row Fraction majorant bit for
    bit, from one differencing pass at the full length."""

    @pytest.mark.parametrize(
        "alpha, k, N, start",
        [
            (Fraction(1, 7), 2, 60, 1),
            (Fraction(-3, 97), 3, 30, -4),
            (Fraction(5, 11), 4, 12, 1),
            (0.1, 2, 45, -7),
            (math.sqrt(2), 3, 25, 0),
            (math.sqrt(3), 4, 10, -3),
            (Fraction(3_000_000_019, 2 ** 40 + 15), 2, 50, 1),  # object residues
            (Fraction(3_000_000_019, 2 ** 40 + 15), 3, 30, -2),
            (3, 3, 20, 1),
            (Fraction(1, 7), 5, 7, 1),
        ],
    )
    def test_every_row_equals_reference(self, alpha, k, N, start):
        phase = PolynomialPhase.monomial(alpha, k)
        expected = [reference_weyl_bound(phase, (start, L)) for L in range(1, N + 1)]
        assert weyl_bounds(phase, (start, N)) == expected
        assert weyl_bounds(phase, (start, N), N) == expected[-1:]
        assert weyl_bounds(phase, (start, N), N // 2 + 1) == expected[N // 2:]

    @pytest.mark.parametrize("alpha, k, N", [(Fraction(3, 97), 3, 20), (0.1, 4, 9)])
    def test_object_columns_give_the_same_rows(self, monkeypatch, alpha, k, N):
        # every column in Python integers, the path of pair keys past 2**62
        monkeypatch.setattr(expsum, "exact_columns",
                            lambda *cols, bound: tuple(np.asarray(c, dtype=object) for c in cols))
        phase = PolynomialPhase.monomial(alpha, k)
        expected = [reference_weyl_bound(phase, (-2, L)) for L in range(1, N + 1)]
        assert weyl_bounds(phase, (-2, N)) == expected

    @pytest.mark.parametrize("k, N", [(2, 1), (2, 17), (3, 2), (3, 23), (4, 9)])
    def test_weyl_bound_is_the_one_row_case(self, k, N):
        phase = PolynomialPhase.monomial(Fraction(2, 13), k)
        assert weyl_bound(phase, (-5, N)) == weyl_bounds(phase, (-5, N), N)[0]

    @pytest.mark.parametrize("first", [0, 6])
    def test_first_outside_1_to_length_refused(self, first):
        with pytest.raises(ValueError, match=f"need 1 <= first <= length = 5, got first {first}"):
            weyl_bounds(PolynomialPhase.monomial(Fraction(1, 7), 2), (1, 5), first)

    def test_guard_counts_the_pairs_a_round_multiplies(self, monkeypatch):
        # k = 4, N = 12: round 3 multiplies the distinct (r1 r2, max) pairs by r
        pairs = len({(a * b, max(a, b)) for a in range(1, 12) for b in range(1, 12)})
        assert pairs > len({a * b for a in range(1, 12) for b in range(1, 12)})
        phase = PolynomialPhase.monomial(Fraction(1, 7), 4)
        bound = weyl_bound(phase, (1, 12))
        monkeypatch.setattr(expsum, "WEYL_CELL_GUARD", pairs * 11)
        assert weyl_bound(phase, (1, 12)) == bound
        monkeypatch.setattr(expsum, "WEYL_CELL_GUARD", pairs * 11 - 1)
        with pytest.raises(ValueError, match=f"at k=4, N=12 a differencing round forms "
                                             f"{pairs * 11} product cells"):
            weyl_bound(phase, (1, 12))


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
        assert check["rhs"] == pytest.approx(math.pi ** 2 / 2)
        assert check["gap"] <= check["tail_bound"]

    def test_three_window(self):
        check = poisson_identity_check(3)
        assert check["rhs"] == pytest.approx(3 * math.pi ** 2 / 2)
        assert check["gap"] <= check["tail_bound"]

    @pytest.mark.parametrize("N", [1, 2, 5, 17, 50])
    def test_gap_within_tail_bound(self, N):
        check = poisson_identity_check(N)
        assert check["gap"] <= check["tail_bound"]

    def test_tail_floor_enforced(self):
        with pytest.raises(ValueError):
            poisson_identity_check(1, tail=10)

    def test_blocks_give_the_one_shot_sum(self):
        # fsum rounds the exact sum of the terms, so forming them a block at a
        # time leaves lhs as one column of all T terms gives it
        T, N = 10 ** 5, 7
        n = np.arange(1, T + 1, dtype=np.float64)
        one_shot = fejer_phi(0.0) + 2.0 * math.fsum(fejer_phi(n / (2.0 * N)))
        assert T > expsum._POISSON_BLOCK
        assert poisson_identity_check(N, tail=T)["lhs"] == one_shot

    def test_memory_is_bounded_by_the_block(self):
        # 10**6 terms are 8 MB a float64 column; a block's columns and its
        # Python floats take under 64 bytes a term
        tracemalloc.start()
        try:
            poisson_identity_check(3, tail=10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * expsum._POISSON_BLOCK < 8 * 10 ** 6


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

    def test_closed_form_vs_series_random(self):
        rng = random.Random(20240812)
        for _ in range(100):
            N = rng.randrange(1, 21)
            y = rng.random()
            assert v_kernel(y, N) == pytest.approx(v_kernel_series(y, N), abs=1e-6)

    def test_partial_sum_within_tail_bound(self):
        for y, N, T in [(0.2, 3, 100000), (0.49, 7, 200000), (0.0, 1, 50000)]:
            ps = reference_partial_sum(y, N, T)
            assert abs(ps - v_kernel(y, N)) <= 2 * N ** 2 / T + 1e-9

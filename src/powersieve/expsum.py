"""Exponential sums, the Weyl-differencing bound, and Fejer/Poisson kernels.

``exp_sum`` evaluates S = sum over an integer interval of e(f(n)) for a
polynomial phase f.  When the coefficients are rational the phase is reduced
mod 1 in exact integer arithmetic before the transcendental call, so the
per-term argument error is one sin/cos ulp even for large n; naive float
evaluation of f(n) would lose every significant digit long before that.

``weyl_bound`` evaluates the explicit-constant majorant obtained by squaring
the sum k-1 times (kappa = 2**(k-1)):

    |S|**kappa <= 2**(2 kappa) N**(kappa-1)
                + 2**kappa N**(kappa-k) * sum min(N, 1/||alpha k! r_1...r_{k-1}||)

with each r ranging over 1..N-1.  The products r_1...r_{k-1} are one
integer column of distinct values with their multiplicities.  For rational
alpha = u/v the distance is the residue res = P u k! mod v folded to
min(res, v - res), so the term is N exactly when that residue vanishes or
N*num <= v, and v/num otherwise, all in integers at the ``exact_columns``
width, never by dividing by a float zero.  For irrational (float) alpha the
distance is computed in double precision with a 1e-9 guard band around zero.

The kernel half of the module implements phi(x) = (sin(pi x) / (2x))**2,
its triangular Fourier transform, the truncated Poisson identity
sum phi(n/(2N)) = pi^2 N / 2, and the resulting spacing kernel

    V(y) = sum_n phi(n/(2N)) e(ny) = (pi^2 N / 2)(1 - 2N ||y||)

supported on ||y|| < 1/(2N).  ``v_kernel_series`` evaluates the defining
series by an independent route (the quadratic Bernoulli polynomial giving
sum cos(2 pi n t)/n**2 in closed form), which the tests play against the
compactly supported closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Sequence

import numpy as np

from .rationals import exact_columns

# Distances below this are treated as exact zeros on the float-alpha path.
ZERO_GUARD = 1e-9

Interval = tuple[int, int]  # (start, length): the integers start..start+length-1


@dataclass(frozen=True)
class PolynomialPhase:
    """A polynomial phase f(x) = c_0 + c_1 x + ... + c_k x**k.

    Coefficients are ascending; entries may be Fractions/ints (exact path)
    or floats.  The leading coefficient must be nonzero and the degree at
    least 2 for the differencing bound to apply (``exp_sum`` itself accepts
    any degree >= 1).
    """

    coefficients: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 2:
            raise ValueError("phase needs degree >= 1")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading(self):
        return self.coefficients[-1]

    @property
    def is_rational(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coefficients)

    @classmethod
    def monomial(cls, alpha, k: int) -> "PolynomialPhase":
        """The pure phase alpha * x**k."""
        if k < 1:
            raise ValueError("degree must be >= 1")
        return cls((0,) * k + (alpha,))


def _phase_fractions_mod1(phase: PolynomialPhase, ns: Sequence[int]) -> list[float]:
    """f(n) mod 1 for each n, reduced exactly when the phase is rational."""
    if phase.is_rational:
        coeffs = [Fraction(c) for c in phase.coefficients]
        L = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * L) for c in coeffs]  # f = P/L with P integral
        out = []
        for n in ns:
            acc = 0
            for c in reversed(ints):  # Horner mod L keeps everything small
                acc = (acc * n + c) % L
            out.append(acc / L)
        return out
    out = []
    for n in ns:
        acc = 0.0
        for c in reversed(phase.coefficients):
            acc = math.fmod(acc * n + float(c), 1.0)
        out.append(acc % 1.0)
    return out


def exp_sum(phase: PolynomialPhase, interval: Interval) -> complex:
    """S = sum over n in the interval of e(f(n)), compensated.

    Real and imaginary parts are accumulated with ``math.fsum``.
    """
    start, length = interval
    if length < 1:
        raise ValueError("interval length must be >= 1")
    ns = range(start, start + length)
    thetas = _phase_fractions_mod1(phase, ns)
    re = fsum(math.cos(2 * math.pi * t) for t in thetas)
    im = fsum(math.sin(2 * math.pi * t) for t in thetas)
    return complex(re, im)


def weyl_bound(phase: PolynomialPhase, interval: Interval) -> float:
    """Explicit majorant for |S|**kappa from k-1 rounds of differencing.

    For N = 1 the r-sum is empty and the bound degenerates to 2**(2 kappa).
    """
    k = phase.degree
    if k < 2:
        raise ValueError("the differencing bound needs degree >= 2")
    kappa = 2 ** (k - 1)
    _, N = interval
    if N < 1:
        raise ValueError("interval length must be >= 1")
    alpha = phase.leading
    fact = math.factorial(k)
    exact = isinstance(alpha, (int, Fraction))
    u, v = Fraction(alpha).as_integer_ratio() if exact else (0, 1)

    # distinct products r_1 * ... * r_{k-1} with multiplicities; the bound
    # covers k! P on the float path and v*v, N*v on the rational one
    bound = max(fact * (N - 1) ** (k - 1), v * v, N * v)
    prods, r = exact_columns([1], np.arange(1, N), bound=bound)
    mult = np.ones(1)
    for _ in range(k - 1):
        prods, inv = np.unique(np.multiply.outer(prods, r).ravel(), return_inverse=True)
        mult = np.bincount(inv, weights=np.repeat(mult, len(r)))

    # min(N, 1/||alpha k! P||) per distinct product
    if exact:
        res = prods % v * (u * fact % v) % v
        num = np.minimum(res, v - res)
        capped = (num == 0) | (N * num <= v)
        terms = np.where(capped, N, v / np.where(capped, 1, num)).astype(np.float64)
    else:
        y = (alpha * (fact * prods)).astype(np.float64)
        dist = np.abs(y - np.round(y))
        terms = np.where(dist < ZERO_GUARD, N, 1.0 / np.maximum(dist, ZERO_GUARD))
        terms = np.minimum(N, terms)
    rsum = fsum(mult * terms)
    return float(2 ** (2 * kappa)) * N ** (kappa - 1) + float(2 ** kappa) * N ** (
        kappa - k
    ) * rsum


def fejer_phi(x):
    """phi(x) = (sin(pi x) / (2x))**2 with phi(0) = pi**2 / 4.

    Accepts scalars or arrays; the removable singularity is handled through
    the normalized sinc, since sin(pi x)/(2x) = (pi/2) sinc(x).
    """
    s = (np.pi / 2) * np.sinc(x)
    out = s * s
    return float(out) if np.isscalar(x) else out


def fejer_phi_hat(s):
    """Fourier transform of phi: (pi**2/4) * max(1 - |s|, 0)."""
    val = (np.pi ** 2 / 4) * np.maximum(1.0 - np.abs(s), 0.0)
    return float(val) if np.isscalar(s) else val


@dataclass(frozen=True)
class PoissonCheck:
    lhs: float          # truncated sum of phi(n/(2N)) over |n| <= terms
    rhs: float          # pi**2 N / 2, the full-line value
    gap: float
    tail_bound: float   # (2N)**2 / terms majorizes the dropped tail
    terms: int


def poisson_identity_check(N: int, tail: int | None = None) -> PoissonCheck:
    """Truncated two-sided check of sum phi(n/(2N)) = pi**2 N / 2.

    On the transform side every integer frequency except 0 falls outside
    the support of phi-hat for N >= 1, so the right side collapses to
    2N * phi_hat(0).  The left side is summed to |n| <= tail with the
    remainder majorized by (2N)**2 / tail (termwise phi(n/2N) <= N**2/n**2).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    T = max(1000, 100 * N) if tail is None else tail
    if T < 1000:
        raise ValueError("tail truncation must keep at least 10**3 terms")
    n = np.arange(1, T + 1, dtype=np.float64)
    lhs = fejer_phi(0.0) + 2.0 * fsum(fejer_phi(n / (2.0 * N)))
    rhs = math.pi ** 2 * N / 2.0
    return PoissonCheck(
        lhs=lhs, rhs=rhs, gap=abs(lhs - rhs), tail_bound=(2 * N) ** 2 / T, terms=T
    )


def v_kernel(y: float, N: int) -> float:
    """Closed form V(y) = (pi**2 N / 2)(1 - 2N ||y||) for ||y|| < 1/(2N), else 0."""
    if N < 1:
        raise ValueError("N must be >= 1")
    yy = y % 1.0
    dist = min(yy, 1.0 - yy)
    if 2 * N * dist >= 1.0:
        return 0.0
    return (math.pi ** 2 * N / 2.0) * (1.0 - 2.0 * N * dist)


def _cos_series_quadratic(t: float) -> float:
    """sum_{n>=1} cos(2 pi n t) / n**2 = pi**2 (1/6 - {t} + {t}**2)."""
    f = t % 1.0
    return math.pi ** 2 * (1.0 / 6.0 - f + f * f)


def v_kernel_series(y: float, N: int) -> float:
    """The defining series sum_n phi(n/(2N)) e(ny), evaluated exactly.

    Expanding sin**2 via the double angle puts the series in terms of
    sum cos(2 pi n t)/n**2, which has the quadratic closed form used here;
    this shares no steps with the compact-support route in ``v_kernel``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    c0 = _cos_series_quadratic(y)
    cp = _cos_series_quadratic(y + 1.0 / (2 * N))
    cm = _cos_series_quadratic(y - 1.0 / (2 * N))
    return fejer_phi(0.0) + N ** 2 * (c0 - 0.5 * (cp + cm))


def v_kernel_partial_sum(y: float, N: int, terms: int) -> float:
    """Raw symmetric partial sum of the V(y) series, for tail-bound tests.

    The dropped tail is at most 2 N**2 / terms in absolute value.
    """
    n = np.arange(1, terms + 1, dtype=np.float64)
    val = fejer_phi(0.0) + 2.0 * fsum(
        fejer_phi(n / (2.0 * N)) * np.cos(2 * math.pi * n * y)
    )
    return float(val)

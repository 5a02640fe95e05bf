"""Exponential sums, the Weyl-differencing bound, and Fejer/Poisson kernels.

``exp_sum`` evaluates S = sum over an integer interval of e(f(n)) for a
polynomial phase f.  The coefficients are exact Fractions: a float is its
binary value (0.1 has denominator 2**55; one tenth is Fraction("0.1")).  So
the phase is reduced mod 1 in exact integer arithmetic (Horner mod L over one
``exact_columns`` column) before the transcendental call, and the per-term
argument error is one sin/cos ulp even for large n; naive float evaluation
of f(n) would lose every significant digit long before that.
``exp_sum_prefixes`` gives the sums over every prefix of one interval from
terms formed once; ``exp_sum`` is its one-row case, so both share one
summation path and agree bit for bit.

``weyl_bounds`` evaluates the explicit-constant majorant obtained by squaring
the sum k-1 times (kappa = 2**(k-1)) for every prefix of one interval:

    |S|**kappa <= 2**(2 kappa) N**(kappa-1)
                + 2**kappa N**(kappa-k) * sum min(N, 1/||alpha k! r_1...r_{k-1}||)

with each r ranging over 1..N-1.  The products r_1...r_{k-1} are one
integer column of distinct values with their multiplicities.  For
alpha = u/v the distance is the residue res = P u k! mod v folded to
min(res, v - res), so the term is N exactly when that residue vanishes or
N*num <= v, and v/num otherwise, all in integers at the ``exact_columns``
width, never by dividing by a float zero.  Every row comes from one product
column at the full length: the rounds carry each product's largest factor,
so row L takes the products of factors below L, each term capped at L.

The kernel half of the module implements phi(x) = (sin(pi x) / (2x))**2,
its triangular Fourier transform, the truncated Poisson identity
sum phi(n/(2N)) = pi^2 N / 2, and the resulting spacing kernel

    V(y) = sum_n phi(n/(2N)) e(ny) = (pi^2 N / 2)(1 - 2N ||y||)

supported on ||y|| < 1/(2N).  ``v_kernel_series`` evaluates the defining
series by an independent route (the quadratic Bernoulli polynomial giving
sum cos(2 pi n t)/n**2 in closed form), which the tests play against the
compactly supported closed form.  ``poisson_identity_check`` returns the
identity's JSON-ready report row, the one the CLI's ``poisson`` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import fsum

import numpy as np

from .rationals import _checked_power, exact_columns

# the majorant's leading 2**(2 kappa) is a float only while 2 kappa < 1024
MAX_WEYL_DEGREE = 9

# cells of one differencing round's product column, np.multiply.outer(prods, r)
WEYL_CELL_GUARD = 10 ** 7

# terms of the truncated Poisson sum; they go to one exact fsum a block at a time
POISSON_TERMS_GUARD = 10 ** 7
_POISSON_BLOCK = 2 ** 16

Interval = tuple[int, int]  # (start, length): the integers start..start+length-1


@dataclass(frozen=True)
class PolynomialPhase:
    """A polynomial phase f(x) = c_0 + c_1 x + ... + c_k x**k.

    Coefficients are ascending, stored as Fractions: a float is its exact
    binary value (0.1 is 3602879701896397/2**55; one tenth is Fraction("0.1")).
    The leading coefficient must be nonzero and the degree at least 2 for the
    differencing bound to apply (``exp_sum`` itself accepts any degree >= 1).
    """

    coefficients: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(map(Fraction, self.coefficients))
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

    @classmethod
    def monomial(cls, alpha, k: int) -> "PolynomialPhase":
        """The pure phase alpha * x**k."""
        if k < 1:
            raise ValueError("degree must be >= 1")
        return cls((0,) * k + (alpha,))


def _phase_fractions_mod1(phase: PolynomialPhase, interval: Interval) -> np.ndarray:
    """f(n) mod 1 for each n of the interval, reduced exactly: the correctly
    rounded float64 column."""
    start, length = interval
    L = math.lcm(*(c.denominator for c in phase.coefficients))
    ints = [int(c * L) % L for c in phase.coefficients]  # f = P/L with P integral
    # Horner mod L over one column: acc, c < L keep acc*n + c below L*(max|n| + 1)
    (ns,) = exact_columns(np.arange(length), bound=L * (max(-start, start + length - 1) + 1))
    ns = ns + start
    acc = 0
    for c in reversed(ints):
        acc = (acc * ns + c) % L
    if L < 2 ** 53:  # acc and L are exact doubles: one IEEE division rounds acc / L
        return acc.astype(np.float64) / L
    return np.array([a / L for a in acc.tolist()], dtype=np.float64)


def exp_sum_prefixes(phase: PolynomialPhase, interval: Interval, first: int = 1) -> list[complex]:
    """S_L = sum over the interval's first L integers of e(f(n)), for
    L = first..length, compensated.

    The cos and sin of every term are formed once, into two columns; each
    S_L is one ``math.fsum`` per part over the columns' first L entries.
    """
    start, length = interval
    if length < 1:
        raise ValueError("interval length must be >= 1")
    if not 1 <= first <= length:
        raise ValueError(f"need 1 <= first <= length = {length}, got first {first}")
    # the IEEE products 2*pi*t, handed to cos and sin as Python floats
    args = memoryview(2 * math.pi * _phase_fractions_mod1(phase, interval))
    re = memoryview(np.fromiter(map(math.cos, args), np.float64, length))
    im = memoryview(np.fromiter(map(math.sin, args), np.float64, length))
    return [complex(fsum(re[:L]), fsum(im[:L])) for L in range(first, length + 1)]


def exp_sum(phase: PolynomialPhase, interval: Interval) -> complex:
    """S = sum over n in the interval of e(f(n)): the one-row case of
    ``exp_sum_prefixes``."""
    return exp_sum_prefixes(phase, interval, first=interval[1])[0]


def weyl_kappa(k: int, N: int) -> int:
    """kappa = 2**(k-1) where the differencing bound holds in floats: ValueError
    below degree 2, OverflowError past ``MAX_WEYL_DEGREE`` or, from bit lengths,
    when (4N)**kappa, which bounds |S|**kappa and the majorant, passes 2**1024."""
    if k < 2:
        raise ValueError("the differencing bound needs degree >= 2")
    if k > MAX_WEYL_DEGREE:
        raise OverflowError(
            f"k = {k}: the differencing bound's 2**(2*kappa), kappa = 2**(k-1), "
            f"leaves float range (2**1024) past k = {MAX_WEYL_DEGREE}"
        )
    kappa = 2 ** (k - 1)
    _checked_power(4 * N, kappa, 1024, f"at k={k}, N={N} the differencing bound needs "
                   f"(4N)**kappa, kappa = 2**(k-1), inside float range")
    return kappa


def weyl_bounds(phase: PolynomialPhase, interval: Interval, first: int = 1) -> list[float]:
    """Explicit majorants for |S_L|**kappa from k-1 rounds of differencing, S_L
    the sum over the interval's first L integers, for L = first..length, every
    row from one product column.  For L = 1 the r-sum is empty and the bound
    degenerates to 2**(2 kappa)."""
    k = phase.degree
    _, N = interval
    if N < 1:
        raise ValueError("interval length must be >= 1")
    if not 1 <= first <= N:
        raise ValueError(f"need 1 <= first <= length = {N}, got first {first}")
    kappa = weyl_kappa(k, N)
    u, v = phase.leading.as_integer_ratio()

    # distinct (product r_1...r_j, largest factor) pairs as keys P*N + top, with
    # multiplicities; round j at the width of N**(j+1)
    keys, mult = [N], np.ones(1)
    for j in range(1, k):
        if len(keys) * (N - 1) > WEYL_CELL_GUARD:
            raise ValueError(f"at k={k}, N={N} a differencing round forms {len(keys) * (N - 1)} "
                             f"product cells, over the guard {WEYL_CELL_GUARD}; reduce k or N")
        keys, r = exact_columns(keys, np.arange(1, N), bound=N ** (j + 1))
        pairs = np.multiply.outer(keys // N, r) * N + np.maximum.outer(keys % N, r)
        keys, inv = np.unique(pairs.ravel(), return_inverse=True)
        mult = np.bincount(inv, weights=np.repeat(mult, len(r)))
    # keys ascend, so a product's pairs are one run, its smallest top first; in the
    # order of that top, row L's products are a prefix
    prods, tops = keys // N, (keys % N).astype(np.int64)
    start = np.diff(prods, prepend=0) != 0
    order = np.argsort(tops[start], kind="stable")
    run = np.argsort(order)[np.cumsum(start) - 1]
    present = np.searchsorted(tops[start][order], np.arange(N + 1)).tolist()

    # min(N, 1/||alpha k! P||) once per distinct product, at a width that also
    # covers v*v and N*v; row L's term is min(term, L)
    (prods,) = exact_columns(prods[start][order], bound=max((N - 1) ** (k - 1), v * v, N * v))
    res = prods % v * (u * math.factorial(k) % v) % v
    num = np.minimum(res, v - res)
    capped = (num == 0) | (N * num <= v)
    terms = np.where(capped, N, v / np.where(capped, 1, num)).astype(np.float64)

    # row L adds the pairs whose top is below L to a running multiplicity per product
    by_top = np.argsort(tops, kind="stable")
    run, mult, cut = run[by_top], mult[by_top], np.searchsorted(tops[by_top], range(N + 1))
    lead, scale = float(2 ** (2 * kappa)), float(2 ** kappa)
    running, bounds, lo = np.zeros(len(terms)), [], 0
    for L in range(first, N + 1):
        np.add.at(running, run[lo:cut[L]], mult[lo:cut[L]])
        lo, d = cut[L], present[L]
        rsum = fsum(memoryview(running[:d] * np.minimum(terms[:d], L)))  # Python floats
        bounds.append(lead * L ** (kappa - 1) + scale * L ** (kappa - k) * rsum)
    return bounds


def weyl_bound(phase: PolynomialPhase, interval: Interval) -> float:
    """Explicit majorant for |S|**kappa: the one-row case of ``weyl_bounds``."""
    return weyl_bounds(phase, interval, first=interval[1])[0]


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


def poisson_identity_check(N: int, tail: int | None = None) -> dict:
    """Truncated two-sided check of sum phi(n/(2N)) = pi**2 N / 2.

    On the transform side every integer frequency except 0 falls outside
    the support of phi-hat for N >= 1, so the right side collapses to
    2N * phi_hat(0).  The left side is summed to |n| <= tail with the
    remainder majorized by (2N)**2 / tail (termwise phi(n/2N) <= N**2/n**2).
    Returns the JSON-ready row {N, lhs, rhs, gap, tail_bound, terms}: lhs the
    truncated sum over |n| <= terms, rhs = pi**2 N / 2 the full-line value.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    T = max(1000, 100 * N) if tail is None else tail
    if not 1000 <= T <= POISSON_TERMS_GUARD:
        raise ValueError(f"the truncated sum has T = {T} terms; it needs 10**3 <= T <= 10**7")
    blocks = (fejer_phi(np.arange(lo, min(lo + _POISSON_BLOCK, T + 1)) / (2.0 * N)).tolist()
              for lo in range(1, T + 1, _POISSON_BLOCK))
    lhs = fejer_phi(0.0) + 2.0 * fsum(chain.from_iterable(blocks))
    rhs = math.pi ** 2 * N / 2.0
    return {"N": N, "lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs),
            "tail_bound": (2 * N) ** 2 / T, "terms": T}


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

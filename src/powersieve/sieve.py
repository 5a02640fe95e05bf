"""Large-sieve Gram spectra and the catalog of closed-form majorants.

For a point set {x_1..x_K} on the torus and the frequency window
n = M+1..M+N, the sieve matrix is T[j, n] = e(x_j n).  The optimal constant in

    sum_j | sum_n a_n e(x_j n) |**2 <= D * sum_n |a_n|**2

is exactly the largest eigenvalue of the positive semidefinite Gram form,
computable on either side (T*T over frequencies, TT* over points); equality
of the two spectral norms is the operator-norm duality that the test suite
asserts numerically.  The two sides are built independently: TT* from the
sieve matrix, and T*T, which depends only on m - n, as a Toeplitz matrix
over the symbol c[h] = sum_j e(x_j h), whose lambda_max comes from Lanczos on
an FFT circulant matvec with no N x N matrix formed.  For the full S(Q, k) the
symbol is a sum of Ramanujan sums, an integer vector built from (Q, k) alone
with no point set formed; a point sequence sums a complex one over row blocks
of T.  TT* takes one dense Hermitian eigensolve (numpy.linalg.eigh).
Every point is rational: a float enters as its exact binary value (0.1 has
denominator 2**55; one tenth is Fraction("0.1")), so the phases x_j n mod 1
and the minimal gap are reduced in integers for every instance.

Two kinds of upper bounds are tracked:

* assertable: the sharp delta-spaced bound (delta**-1 - 1 + N) evaluated at
  the exact minimal pairwise distance, and its per-q aggregate
  sum (q**k - 1 + N) over the dyadic window, both with explicit constants;
* report-only: every closed form whose statement hides an unspecified
  constant (the coarse Q**2k + N and Q(Q**k + N) forms, the dyadic
  differencing bound with its log factor, the half-power form, and the
  conjectured optimum).  These are never asserted, only emitted as ratios.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Sequence

import numpy as np

from .arith import factorize
from .rationals import (FractionSet, PowerFraction, _checked_power, enumerate_set,
                        exact_columns, expected_cardinality)

# cell guard for gram experiments: K*N for T or a point sequence's symbol, K*K for TT*
GRAM_CELL_GUARD = 10 ** 7

# about this many cells of the sieve matrix are formed at once; small blocks
# keep the phase temporaries in memory the allocator reuses
_BLOCK_CELLS = 2 ** 12

# largest residual |Gv - lambda v| / max(1, lambda) accepted from the eigensolver
RESIDUAL_TOL = 1e-10

# basis guard on the bytes of a Lanczos run's stored vectors and FFT buffers
LANCZOS_BASIS_BYTES = 2 ** 30


class ConvergenceError(RuntimeError):
    """The eigensolver missed the residual target; carries its state."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"eigensolve: residual {residual:.3e} after {iterations} iteration(s)"
        )
        self.residual = residual
        self.iterations = iterations


class SieveBoundViolation(AssertionError):
    """An explicit-constant ceiling was exceeded; indicates a real bug."""


@dataclass(frozen=True)
class GramSpectrum:
    lambda_max: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class BoundFormula:
    """A named closed-form majorant Delta(Q, N, k, epsilon)."""

    name: str
    assertable: bool
    evaluate: Callable[[int, int, int, float], float]


def _check_basis(vectors: int, N: int, itemsize: int) -> None:
    """Refuse a Lanczos run past the basis guard before its next vector is kept:
    ``vectors`` of N entries of ``itemsize`` bytes and six of the FFT matvec
    (L >= 2N): the spectrum, and the padded input and its transform, or the
    product and its inverse."""
    held = (vectors + 6) * N * itemsize
    if held > LANCZOS_BASIS_BYTES:
        raise ValueError(f"a Lanczos run keeping {vectors} vector(s) of length N = {N} holds "
                         f"{held} bytes with its FFT buffers, over the basis guard "
                         f"{LANCZOS_BASIS_BYTES}; reduce Q or N")


def _check_gram_guard(K: int, N: int) -> None:
    """Refuse the K*N cells of the sieve matrix, or of a point sequence's
    row-block symbol, past the gram guard before any is formed."""
    if K * N > GRAM_CELL_GUARD:
        raise ValueError(f"K*N = {K * N} exceeds the gram guard {GRAM_CELL_GUARD}; reduce Q or N")


def _point_columns(points: Sequence) -> tuple[list, list]:
    """Reduced numerators and denominators of the points mod 1, ascending."""
    pts = sorted(
        (p.as_fraction() if isinstance(p, PowerFraction) else Fraction(p)) % 1 for p in points
    )
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct mod 1")
    return [p.numerator for p in pts], [p.denominator for p in pts]


class SieveInstance:
    """A finite torus point set plus the frequency window (M, M+N].

    ``SieveInstance(points, M, N)`` takes a sequence of PowerFractions,
    Fractions, ints and floats, distinct mod 1 (a float is its exact binary
    value: 0.1 is 3602879701896397/2**55, one tenth Fraction("0.1")), held
    ascending in [0, 1) as the columns ``nums``, ``dens`` at the
    ``exact_columns`` width of dens**2.  ``set_free(Q, k, N, M)`` is the full
    S(Q, k), ``full_set`` (Q, k): K in closed form, and the columns read on
    first use from one ``enumerate_set(Q, k)``, or from the set that
    ``from_fraction_set`` hands over.
    """

    def __init__(self, points: Sequence, M: int, N: int):
        if isinstance(points, FractionSet):  # else iterated point by point, the slow path
            raise TypeError("use SieveInstance.from_fraction_set(fs, N, M) for a FractionSet")
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        self.M, self.N, self.full_set = int(M), int(N), None
        nums, dens = _point_columns(points)
        if not nums:
            raise ValueError("instance needs at least one point")
        self.nums, self.dens = exact_columns(nums, dens, bound=max(dens) ** 2)
        self.K = len(nums)

    @classmethod
    def from_fraction_set(cls, fs: FractionSet, N: int, M: int = 0) -> "SieveInstance":
        inst = cls.set_free(fs.Q, fs.k, N, M)
        inst._set = fs
        return inst

    @classmethod
    def set_free(cls, Q: int, k: int, N: int, M: int = 0) -> "SieveInstance":
        """S(Q, k) by (Q, k) alone: no set is enumerated until a column is read."""
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        inst = cls.__new__(cls)
        inst.M, inst.N, inst.full_set = int(M), int(N), (Q, k)
        return inst

    # a full set's: K in closed form, the columns on first use from one set, at
    # int64, since every set has (2Q)**(2k) <= 2**48
    K = functools.cached_property(lambda self: expected_cardinality(*self.full_set))
    _set = functools.cached_property(lambda self: enumerate_set(*self.full_set))
    nums = functools.cached_property(lambda self: self._set.numerators)
    dens = functools.cached_property(lambda self: self._set.denominators())

    def _row_blocks(self, n: np.ndarray):
        """(rows, e(x_j n) for j in rows) over row blocks of about _BLOCK_CELLS
        cells; x_j n mod 1 is reduced in integers, then divided once."""
        step = max(1, _BLOCK_CELLS // len(n))
        for lo in range(0, self.K, step):
            rows = slice(lo, lo + step)
            p, r = self.nums[rows, None], self.dens[rows, None]
            phases = ((n % r) * p % r / r).astype(np.float64, copy=False)
            yield rows, np.exp(2j * np.pi * phases)

    def matrix(self) -> np.ndarray:
        """The K x N sieve matrix e(x_j n), refused past the gram guard on its
        K*N cells or on the K*K cells of the points side's Gram TT*."""
        _check_gram_guard(self.K, self.N)
        if self.K ** 2 > GRAM_CELL_GUARD:
            raise ValueError(f"points Gram has {self.K ** 2} cells, over the gram guard "
                             f"{GRAM_CELL_GUARD}; reduce Q or N")
        n = np.arange(self.M + 1, self.M + self.N + 1, dtype=np.int64)
        T = np.empty((self.K, self.N), dtype=np.complex128)
        for rows, e in self._row_blocks(n):
            T[rows] = e
        return T

    def gram_symbol(self) -> np.ndarray:
        """c[h] = sum_j e(x_j h) for h = 0..N-1; (T*T)[n, m] = c[m - n] for any M.

        For the full S(Q, k) it is exact int64, the sum over q of the Ramanujan
        sums c_{q**k}(h): mu(s) d for each d = q**k/s dividing h, s | rad(q)
        squarefree, so c[0] = K (closed form); d >= q**(k-1), so only bases with
        q**(k-1) < N reach past c[0].  A base adds 2**omega(q) <= q terms of size
        at most q**k, so every partial sum is at most Q (2Q)**(k+1) = (2Q)**(k+2)/2:
        (Q, k) is refused unless (2Q)**(k+2) < 2**63, as every FractionSet has
        it.  A point sequence's is complex128, summed over row blocks of T.
        """
        if self.full_set is None:
            _check_gram_guard(self.K, self.N)
            h = np.arange(self.N, dtype=np.int64)
            return sum(e.sum(axis=0) for _, e in self._row_blocks(h))
        Q, k = self.full_set
        _checked_power(2 * Q, k + 2, 63, f"the symbol of S({Q}, {k}) sums terms up to "
                       "(2Q)**(k+2)/2, which needs (2Q)**(k+2) < 2**63 for int64")
        c = np.zeros(self.N, dtype=np.int64)
        c[0] = self.K
        for q in range(Q + 1, 2 * Q + 1):
            if q ** (k - 1) >= self.N:
                break
            squarefree = [(1, 1)]  # (s, mu(s)) over the divisors s of rad(q)
            for p, _ in factorize(q):
                squarefree += [(s * p, -mu) for s, mu in squarefree]
            for s, mu in squarefree:
                d = q ** k // s
                c[d::d] += mu * d
        return c


def _toeplitz_matvec(c: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x -> G x for the Hermitian Toeplitz G[n, m] = c[m - n], c[-h] = conj(c[h]),
    the leading block of the length-L circulant with G's Hermitian first column
    [conj(c), 0 ... 0, c[:0:-1]]: its spectrum is real, and one FFT pair applies
    G, rfft/irfft on a real symbol (G real symmetric) and fft/ifft on a complex one.
    Any L >= 2N - 1 embeds G; numpy's FFT slows by about 3x on a length with a
    large prime factor, so L is the smallest 2**a 3**b 5**c >= 2N."""
    N = len(c)
    odd = [3 ** i * 5 ** j for i in range(N.bit_length() + 1) for j in range(N.bit_length())]
    L = min(p << (-(-2 * N // p) - 1).bit_length() for p in odd if p < 4 * N)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if np.isrealobj(c) else (np.fft.fft, np.fft.ifft)
    spectrum = fft(np.concatenate((np.conj(c), np.zeros(L - 2 * N + 1), c[:0:-1]))).real
    return lambda x: ifft(spectrum * fft(x, L), L)[:N]


def _lanczos(apply: Callable[[np.ndarray], np.ndarray], N: int,
             K: int) -> tuple[float, np.ndarray, int]:
    """(theta, unit Ritz vector, steps m) for the top eigenpair of the Hermitian
    operator ``apply`` on C**N (R**N for a real one): the three-term Lanczos
    recurrence, with real alpha and beta, from a fixed-seed pseudo-random start
    (a start with no component along the top eigenvector, one symmetric under
    n -> N-1-n where that vector is antisymmetric, would converge to a lower
    pair).  The basis loses orthogonality only along converged Ritz vectors
    (Paige, 1980), so the first converged top pair needs no reorthogonalisation.
    The run stops once the top Ritz pair (theta, s) of T_m has |beta_m s_m| <=
    RESIDUAL_TOL / 10 * max(1, theta); it is formed at step 8, then as many
    steps on as the residual would take to get there at 0.4 decades a step (2
    to 16), and whenever beta_m is that small.  T*T has rank at most K, so the
    Krylov space ends by step min(N, K + 1) in exact arithmetic; past its end
    the recurrence runs on rounding noise, where the top pair passes and fails
    by turns, so every step from min(N, K + 1) on is checked, up to 2N."""
    v = np.random.default_rng(20050803).standard_normal(N)
    v /= np.linalg.norm(v)
    tol = RESIDUAL_TOL / 10
    basis, alpha, beta, check = [], [], [], 8
    for j in range(2 * N):
        _check_basis(j + 1, N, v.itemsize)
        basis.append(v)
        w = apply(v)
        if j:
            w -= beta[-1] * basis[-2]
        alpha.append(float(np.vdot(v, w).real))
        w -= alpha[-1] * v
        b = math.sqrt(np.vdot(w, w).real)
        if b <= tol * max(1.0, alpha[-1]) or j + 1 == check or j + 1 >= min(N, K + 1):
            theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            r = abs(b * S[-1, -1]) / max(1.0, theta[-1])
            if r <= tol:
                break
            if j + 1 == check:
                check = j + 1 + min(16, max(2, math.ceil(2.5 * math.log10(r / tol))))
        beta.append(b)
        v = w / b
    y = sum(s * u for s, u in zip(S[:, -1], basis))  # not stacked: that doubles the peak
    return float(theta[-1]), y / np.linalg.norm(y), j + 1


def gram_lambda_max(
    instance: SieveInstance,
    side: Literal["points", "frequencies"] = "points",
) -> GramSpectrum:
    """Largest eigenvalue of the chosen Gram contraction.

    This value is exactly the best sieve constant for the instance: the
    quadratic form attains it and no smaller constant works.  The frequencies
    side is Lanczos on the FFT matvec of the symbol, integer for a full set and
    complex for a point sequence (``iterations`` counts its steps); the points
    side one dense Hermitian eigh of TT* (``iterations`` 1).  The top eigenpair
    is checked by its residual.
    """
    if side not in ("points", "frequencies"):
        raise ValueError(f"unknown side {side!r}")
    if side == "frequencies":
        # what every run holds at its first matvec, at its int64 or complex128 symbol's width
        _check_basis(1, instance.N, 8 if instance.full_set else 16)
        c = instance.gram_symbol()  # c[0] = K exactly, at either width
        apply = _toeplitz_matvec(c)
        lam, v, steps = _lanczos(apply, instance.N, int(c[0].real))
    else:
        T = instance.matrix()
        G = T @ T.conj().T
        eigenvalues, eigenvectors = np.linalg.eigh(G)
        lam, v, steps, apply = float(eigenvalues[-1]), eigenvectors[:, -1], 1, G.__matmul__
    residual = float(np.linalg.norm(apply(v) - lam * v))
    if residual > RESIDUAL_TOL * max(1.0, abs(lam)):
        raise ConvergenceError(residual, steps)
    return GramSpectrum(lambda_max=lam, iterations=steps, residual=residual)


def duality_check(instance: SieveInstance) -> tuple[float, float]:
    """lambda_max on both sides; equal spectral norms up to rounding."""
    return tuple(gram_lambda_max(instance, side).lambda_max for side in ("frequencies", "points"))


def min_torus_gap(instance: SieveInstance) -> Fraction:
    """Exact minimal pairwise torus distance.

    The points are ascending, so the minimum over all pairs is attained on
    circularly adjacent ones: K gaps, read off the columns in integers.
    """
    if instance.K < 2:
        raise ValueError("need at least two points for a gap")
    # the K exact gaps sum to 1, so the least is at most 1/2 and needs no fold
    a, d = instance.nums, instance.dens
    den = d * np.roll(d, -1)
    g = (np.roll(a, -1) * d - a * np.roll(d, -1)) % den  # seam: wraps past 1
    return min(map(Fraction, g.tolist(), den.tolist()))


def cohen_selberg_ceiling(instance: SieveInstance) -> float:
    """The sharp delta-spaced ceiling delta**-1 - 1 + N.

    lambda_max never exceeds this, with delta the exact minimal pairwise
    distance.  A single point has no pairwise distance; the delta term is
    dropped and the ceiling is N, matching lambda_max exactly.
    """
    if instance.K == 1:
        return float(instance.N)
    return float(1 / min_torus_gap(instance) - 1 + instance.N)


def per_q_exact_ceiling(Q: int, N: int, k: int) -> float:
    """sum over Q < q <= 2Q of (q**k - 1 + N): the assertable aggregate.

    Fractions sharing a base q are at least q**-k apart, so each q-block
    obeys the sharp ceiling on its own; summing the blocks majorizes the
    whole quadratic form.
    """
    return float(sum(q ** k - 1 + N for q in range(Q + 1, 2 * Q + 1)))


def _weyl_dyadic_form(Q: int, N: int, k: int, epsilon: float) -> float:
    kappa = 2 ** (k - 1)
    return math.log(2 * Q) * (
        Q ** (k + 1)
        + N ** epsilon
        * (
            N * Q ** ((kappa - 1) / kappa)
            + N ** (1 - 1 / kappa) * Q ** ((kappa + k) / kappa)
        )
    )


# every closed form tracked by the experiments; only the per-q aggregate of
# the sharp delta-spaced bound carries explicit constants
CATALOG: tuple[BoundFormula, ...] = (
    BoundFormula("coarse_global", False, lambda Q, N, k, e: float(Q ** (2 * k) + N)),
    BoundFormula("per_q_classical", False, lambda Q, N, k, e: float(Q * (Q ** k + N))),
    BoundFormula("per_q_exact", True, lambda Q, N, k, e: per_q_exact_ceiling(Q, N, k)),
    BoundFormula("weyl_dyadic", False, _weyl_dyadic_form),
    BoundFormula(
        "half_power", False, lambda Q, N, k, e: Q ** (0.5 + e) * (Q ** 3 + N)
    ),
    BoundFormula(
        "conjectured_optimal", False, lambda Q, N, k, e: float(Q ** e * (Q ** (k + 1) + N))
    ),
)


def bound_catalog(Q: int, N: int, k: int = 2, epsilon: float = 0.0) -> list[dict]:
    """Evaluate every tracked closed form at (Q, N, k, epsilon).

    Returns the JSON-ready rows {name, value, assertable}.  The half-power
    form exists only for quadratic denominators and is skipped for k > 2.
    """
    if Q < 1 or N < 1 or k < 2 or not 0 <= epsilon < math.inf:
        raise ValueError(f"need Q, N >= 1, k >= 2, finite epsilon >= 0; "
                         f"got Q={Q}, N={N}, k={k}, epsilon={epsilon}")
    # the largest int a form converts to float, Q**(2k) or (2Q)**k at Q = 1,
    # is refused past float64 range (1024 bits) before it is formed
    _checked_power(max(Q * Q, 2 * Q), k, 1024,
                   f"the bounds at Q={Q}, k={k} need Q**(2k) inside float range")
    rows = []
    for f in CATALOG:
        if f.name == "half_power" and k != 2:
            continue
        try:  # a large epsilon takes a float power past range, or a product to inf
            value = f.evaluate(Q, N, k, epsilon)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"the {f.name} bound at Q={Q}, N={N}, k={k}, epsilon={epsilon} "
                             "leaves float range")
        rows.append({"name": f.name, "value": value, "assertable": f.assertable})
    return rows


def sieve_ratio_experiment(Q: int, N: int, k: int = 2, epsilon: float = 0.0) -> dict:
    """lambda_max of S(Q, k) over N frequencies against every cataloged bound.

    The frequencies side reads (Q, k) alone, so no set is enumerated.  Asserts
    only the catalog's assertable rows, those with explicit constants;
    everything else is reported as a ratio.  The returned record is JSON-ready.
    """
    catalog = bound_catalog(Q, N, k, epsilon)
    spec = gram_lambda_max(SieveInstance.set_free(Q, k, N), "frequencies")
    for b in catalog:
        if b["assertable"] and spec.lambda_max > b["value"] + 1e-6 * max(1.0, b["value"]):
            raise SieveBoundViolation(
                f"lambda_max {spec.lambda_max} exceeds the {b['name']} bound {b['value']}"
            )
    bounds = [{"name": b["name"], "value": b["value"],
               "ratio": spec.lambda_max / b["value"],
               "assertable": b["assertable"]} for b in catalog]
    return {
        "Q": Q,
        "N": N,
        "k": k,
        "lambda_max": spec.lambda_max,
        "iterations": spec.iterations,
        "residual": spec.residual,
        "bounds": bounds,
    }

"""Large-sieve Gram spectra and the catalog of closed-form majorants.

For a point set {x_1..x_K} on the torus and the frequency window
n = M+1..M+N, the sieve matrix is T[j, n] = e(x_j n).  The optimal constant
in

    sum_j | sum_n a_n e(x_j n) |**2 <= D * sum_n |a_n|**2

is exactly the largest eigenvalue of the positive semidefinite Gram form,
computable on either side (T*T over frequencies, TT* over points); equality
of the two spectral norms is the operator-norm duality that the test suite
asserts numerically.  lambda_max comes from one dense Hermitian eigensolve
(numpy.linalg.eigh) of the side's Gram matrix.  The two sides are built
independently: TT* from the sieve matrix, and T*T, which depends only on
m - n, as a Toeplitz matrix over the symbol c[h] = sum_j e(x_j h).

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rationals import FractionSet, PowerFraction, exact_columns, strictly_increasing

# cell guard for gram experiments: K*N for T and d*d for the Gram matrix solved
GRAM_CELL_GUARD = 10 ** 7

# about this many cells of the sieve matrix are formed at once; small blocks
# keep the phase temporaries in memory the allocator reuses
_BLOCK_CELLS = 2 ** 12

# largest residual |Gv - lambda v| / max(1, lambda) accepted from the eigensolver
RESIDUAL_TOL = 1e-10


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


def _check_gram_guard(K: int, N: int) -> None:
    if K * N > GRAM_CELL_GUARD:
        raise ValueError(
            f"K*N = {K * N} exceeds the gram guard {GRAM_CELL_GUARD}; reduce Q or N"
        )


def _point_columns(points: Sequence):
    """(nums, dens, None) when every point is rational, else (None, None, values)."""
    pts = [p.as_fraction() if isinstance(p, PowerFraction) else p for p in points]
    pts = [
        Fraction(p) % 1 if isinstance(p, (int, Fraction)) else float(p) % 1.0 for p in pts
    ]
    exact = all(isinstance(p, Fraction) for p in pts)
    pts = sorted(pts if exact else map(float, pts))
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct mod 1")
    if not exact:
        return None, None, np.array(pts, dtype=np.float64)
    return [p.numerator for p in pts], [p.denominator for p in pts], None


class SieveInstance:
    """A finite torus point set plus the frequency window (M, M+N].

    Points are a FractionSet, whose columns are taken as they are, or a
    sequence of PowerFractions, Fractions, ints and floats, distinct mod 1.
    They are held ascending in [0, 1): rational ones as reduced integer
    columns ``nums``, ``dens`` at the ``exact_columns`` width of dens**2,
    float ones (one float makes them all float) as a float ``values`` array.
    """

    def __init__(self, points: FractionSet | Sequence, M: int, N: int):
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        if isinstance(points, FractionSet):
            nums, dens, values = points.numerators, points.denominators(), None
            if not strictly_increasing(nums, dens):
                raise ValueError("fraction set is not strictly increasing")
        else:
            nums, dens, values = _point_columns(points)
        if len(nums if values is None else values) == 0:
            raise ValueError("instance needs at least one point")
        if values is None:
            dmax = int(np.max(dens))
            nums, dens = exact_columns(nums, dens, bound=dmax * dmax)
        self.nums, self.dens, self.values = nums, dens, values
        self.M, self.N = int(M), int(N)

    @classmethod
    def from_fraction_set(cls, fs: FractionSet, N: int, M: int = 0) -> "SieveInstance":
        return cls(fs, M, N)

    @property
    def K(self) -> int:
        return len(self.values if self.nums is None else self.nums)

    def _row_blocks(self, n: np.ndarray):
        """(rows, e(x_j n) for j in rows) over row blocks of about _BLOCK_CELLS
        cells; for exact points x_j n mod 1 is reduced in integers."""
        step = max(1, _BLOCK_CELLS // len(n))
        for lo in range(0, self.K, step):
            rows = slice(lo, lo + step)
            if self.nums is None:
                phases = (self.values[rows, None] * n) % 1.0
            else:
                p, r = self.nums[rows, None], self.dens[rows, None]
                phases = ((n % r) * p % r).astype(np.float64) / r.astype(np.float64)
            yield rows, np.exp(2j * np.pi * phases)

    def matrix(self) -> np.ndarray:
        """The K x N sieve matrix e(x_j n); only for moderate sizes."""
        _check_gram_guard(self.K, self.N)
        n = np.arange(self.M + 1, self.M + self.N + 1, dtype=np.int64)
        T = np.empty((self.K, self.N), dtype=np.complex128)
        for rows, e in self._row_blocks(n):
            T[rows] = e
        return T

    def gram_symbol(self) -> np.ndarray:
        """c[h] = sum_j e(x_j h) for h = 0..N-1, summed over row blocks.

        (T*T)[n, m] = c[m - n] whatever the window offset M.
        """
        h = np.arange(self.N, dtype=np.int64)
        return sum(e.sum(axis=0) for _, e in self._row_blocks(h))


def _gram(instance: SieveInstance, side: str) -> np.ndarray:
    """The Gram matrix of one side: TT* (K x K) or the Toeplitz T*T (N x N).

    (T*T)[n, m] = c[m - n] with c[-h] = conj(c[h]), so the frequencies side
    is a strided view over the 2N - 1 symbol values and never holds T.
    """
    if side == "points":
        T = instance.matrix()
        return T @ T.conj().T
    c = instance.gram_symbol()
    return sliding_window_view(np.concatenate((np.conj(c[:0:-1]), c)), instance.N)[::-1]


def gram_lambda_max(
    instance: SieveInstance,
    side: Literal["points", "frequencies"] = "points",
) -> GramSpectrum:
    """Largest eigenvalue of the chosen Gram contraction.

    This value is exactly the best sieve constant for the instance: the
    quadratic form attains it and no smaller constant works.  One dense
    Hermitian eigensolve; the top eigenpair is checked by its residual.
    """
    if side not in ("points", "frequencies"):
        raise ValueError(f"unknown side {side!r}")
    _check_gram_guard(instance.K, instance.N)
    d = instance.N if side == "frequencies" else instance.K
    if d * d > GRAM_CELL_GUARD:
        raise ValueError(
            f"{side} Gram has {d * d} cells, over the gram guard {GRAM_CELL_GUARD}; "
            "reduce Q or N"
        )
    G = _gram(instance, side)
    eigenvalues, eigenvectors = np.linalg.eigh(G)
    lam = float(eigenvalues[-1])
    v = eigenvectors[:, -1]
    residual = float(np.linalg.norm(G @ v - lam * v))
    if residual > RESIDUAL_TOL * max(1.0, abs(lam)):
        raise ConvergenceError(residual, 1)
    return GramSpectrum(lambda_max=lam, iterations=1, residual=residual)


def duality_check(instance: SieveInstance) -> tuple[float, float]:
    """lambda_max on both sides; equal spectral norms up to rounding."""
    lhs = gram_lambda_max(instance, "frequencies").lambda_max
    rhs = gram_lambda_max(instance, "points").lambda_max
    return lhs, rhs


def min_torus_gap(instance: SieveInstance) -> Fraction | float:
    """Exact minimal pairwise torus distance (Fraction when points are rational).

    The points are ascending, so the minimum over all pairs is attained on
    circularly adjacent ones: K gaps, read off the columns in integers.
    """
    if instance.K < 2:
        raise ValueError("need at least two points for a gap")
    if instance.nums is None:
        x = instance.values
        gaps = (np.roll(x, -1) - x) % 1.0  # the seam gap is 1 - (x[-1] - x[0])
        return float(np.minimum(gaps, 1.0 - gaps).min())
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


def bound_catalog(Q: int, N: int, k: int = 2, epsilon: float = 0.0):
    """Evaluate every tracked closed form at (Q, N, k, epsilon).

    Returns [(name, value, assertable)].  The half-power form exists only
    for quadratic denominators and is skipped for k > 2.
    """
    if Q < 1 or N < 1 or k < 2 or epsilon < 0:
        raise ValueError("need Q, N >= 1, k >= 2, epsilon >= 0")
    entries = []
    for formula in CATALOG:
        if formula.name == "half_power" and k != 2:
            continue
        entries.append(
            (formula.name, formula.evaluate(Q, N, k, epsilon), formula.assertable)
        )
    return entries


def sieve_ratio_experiment(
    Q: int,
    N: int,
    k: int = 2,
    epsilon: float = 0.0,
    fraction_set: FractionSet | None = None,
) -> dict:
    """lambda_max over the full S(Q, k) against every cataloged bound.

    Asserts only the explicit-constant per-q aggregate; everything else is
    reported as a ratio.  The returned record is JSON-ready.
    """
    from .rationals import enumerate_set

    fs = fraction_set if fraction_set is not None else enumerate_set(Q, k)
    _check_gram_guard(len(fs), N)  # before the instance is built
    inst = SieveInstance.from_fraction_set(fs, N)
    side = "points" if inst.K <= inst.N else "frequencies"
    spec = gram_lambda_max(inst, side)
    ceiling = per_q_exact_ceiling(Q, N, k)
    if spec.lambda_max > ceiling + 1e-6 * max(1.0, ceiling):
        raise SieveBoundViolation(
            f"lambda_max {spec.lambda_max} exceeds the per-q ceiling {ceiling}"
        )
    bounds = [
        {
            "name": name,
            "value": value,
            "ratio": spec.lambda_max / value if value > 0 else math.inf,
            "assertable": assertable,
        }
        for name, value, assertable in bound_catalog(Q, N, k, epsilon)
    ]
    return {
        "Q": Q,
        "N": N,
        "k": k,
        "lambda_max": spec.lambda_max,
        "iterations": spec.iterations,
        "residual": spec.residual,
        "bounds": bounds,
    }

"""Dirichlet characters to power moduli, Gauss sums, and the transfer check.

A character table for m = q**k lives on discrete-log coordinates.  The unit
group is a product of cyclic groups <g_i> of orders d_i (CRT over the prime
powers of m, primitive roots for the odd ones, {+-1} x <3> for powers of
two), so each unit is a = prod g_i**e_i for one e in the exponent grid
Z/d_1 x ... x Z/d_r, and the character labelled c is chi_c(a) =
e(sum c_i e_i / d_i).  The table keeps the generators, orders and the unit
residues in C order over the grid, all O(phi(m)); character j is labelled
by grid index j, read off on demand.  A sum over the units of f(a) chi_c(a)
is, for all c at once, phi(m) times the inverse DFT of f on the grid: every
Gauss sum comes from one group FFT of e(a/m), the column ``gauss``
(``gauss_sum`` reads one entry as a complex), and the character sums of a
sequence from one group FFT of the sequence binned by residue.  Dense value
rows are built only on demand.

Primitivity is exact: chi is induced from m/p iff it is trivial on the
kernel {a == 1 mod m/p}, which (p**2 | m as k >= 2) is cyclic on 1 + m/p,
so chi_c is primitive iff sum c_i dlog_i(1 + m/p) L/d_i != 0 mod L =
lcm(d_i) for every prime p | m.  Mod 1 no character counts as primitive,
so the q = 1 term of weighted primitive sums vanishes.

For primitive chi, |G(chi)| = sqrt(m) = q**(k/2), which powers the
additive-to-multiplicative transfer

    sum over primitive chi of |sum a_n chi(n)|**2
        <= (phi(m)/m) * sum over coprime a of |sum a_n e(an/m)|**2,

the inequality ``mult_transfer_check`` evaluates on both sides.  Note
phi(q**k)/q**k = phi(q)/q for every k.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .arith import coprime_residues, factorize, totient, unit_group_generators

# build guard: q**k at or under a million, per the desk-scale contract; the
# table itself is O(phi(m)), only the dense ``values`` matrix is phi(m) * m
MAX_MODULUS = 10 ** 6
VALUES_CELL_GUARD = 5 * 10 ** 7

# the transfer check's sequence length, refused past this before it is drawn
TRANSFER_TERMS_GUARD = 10 ** 7


def _powers(g: int, d: int, m: int) -> np.ndarray:
    """g**e mod m for e = 0..d-1 by doubling: powers[s:2s] = powers[:s] * g**s."""
    powers = np.empty(d, dtype=np.int64)
    powers[0] = 1 % m
    s, gs = 1, g % m
    while s < d:
        n = min(s, d - s)
        powers[s:s + n] = powers[:n] * gs % m
        s, gs = 2 * s, gs * gs % m
    return powers


class CharacterTable:
    """All phi(m) Dirichlet characters to modulus m = q**k.

    ``label(j)`` is the exponent tuple c of character j against the stored
    generators, in C order over the grid; character 0 is the principal one.
    ``residues[t]`` is the unit at grid index t, ``primitive`` flags each
    character and ``gauss`` holds every G(chi).
    """

    def __init__(self, q: int, k: int):
        if q < 1 or k < 2:
            raise ValueError(f"need q >= 1 and k >= 2, got q={q}, k={k}")
        # q**k has more than k*(b-1) bits (b = q.bit_length()): refuse from
        # that bound before a power past the guard is formed
        if k * (q.bit_length() - 1) >= MAX_MODULUS.bit_length() or q ** k > MAX_MODULUS:
            raise ValueError(f"modulus {q}**{k} (about {k * math.log2(q):.0f} bits) "
                             f"exceeds the guard {MAX_MODULUS}")
        self.q = q
        self.k = k
        self.modulus = m = q ** k
        self.generators = unit_group_generators(m)
        self.orders = [d for _, d in self.generators]
        self.shape = tuple(self.orders) or (1,)
        assert math.prod(self.orders) == totient(m)

        # walk the group once: residues[t] = prod g_i**t_i, t in C order; int64
        # products stay below m**2 <= 10**12
        residues = np.array([1 % m], dtype=np.int64)
        for g, d in self.generators:
            residues = (residues[:, None] * _powers(g, d, m)[None, :] % m).ravel()
        self.residues = residues
        self.primitive = self._primitive_flags()

    def __len__(self) -> int:
        return len(self.residues)

    def _primitive_flags(self) -> np.ndarray:
        m = self.modulus
        L = math.lcm(*self.orders)
        primitive = np.full(self.shape, m > 1)  # convention: none primitive mod 1
        for p, _ in factorize(m):
            t = int(np.flatnonzero(self.residues == 1 + m // p)[0])
            dlog = np.unravel_index(t, self.shape)
            terms = [np.arange(d) * int(e) % d * (L // d)
                     for e, d in zip(dlog, self.orders)]
            primitive &= sum(np.ix_(*terms)) % L != 0  # else trivial on the kernel
        return primitive.ravel()

    def label(self, j: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(j, self.orders))

    def chi(self, j: int) -> np.ndarray:
        """Value vector of character j on residues 0..m-1, built in O(m)."""
        terms = [c * np.arange(d) % d / np.float64(d)
                 for c, d in zip(self.label(j), self.orders)]
        phase = sum(np.ix_(*terms), np.zeros(self.shape))
        row = np.zeros(self.modulus, dtype=np.complex128)
        row[self.residues] = np.exp(2j * np.pi * phase.ravel())
        return row

    @cached_property
    def values(self) -> np.ndarray:
        """The dense phi(m) x m matrix whose row j is ``chi(j)``, built on
        first use; nothing else in the package needs it."""
        cells = len(self) * self.modulus
        if cells > VALUES_CELL_GUARD:
            raise ValueError(f"{cells} values exceed the guard {VALUES_CELL_GUARD}")
        out = np.empty((len(self), self.modulus), dtype=np.complex128)
        for j in range(len(self)):
            out[j] = self.chi(j)
        return out

    def unit_sums(self, f: np.ndarray) -> np.ndarray:
        """sum over units a of f[a] chi_j(a), for every j, by one group FFT."""
        grid = f[self.residues].reshape(self.shape)
        return len(self) * np.fft.ifftn(grid).ravel()

    @cached_property
    def gauss(self) -> np.ndarray:
        """G(chi_j) = sum over a mod m of chi_j(a) e(a/m), for every j."""
        m = self.modulus
        return self.unit_sums(np.exp(2j * np.pi * np.arange(m) / m))


def build_character_table(q: int, k: int) -> CharacterTable:
    """Construct the full table of phi(q**k) = q**(k-1) phi(q) characters."""
    return CharacterTable(q, k)


def gauss_sum(table: CharacterTable, j: int) -> complex:
    """G(chi_j), read off ``table.gauss``."""
    return complex(table.gauss[j])


def _binned(seq: Sequence[complex], M: int, m: int) -> np.ndarray:
    """sum of a_n over n == r mod m, for r = 0..m-1; n = M+1..M+len(seq)."""
    a_n = np.asarray(list(seq), dtype=np.complex128)
    n = np.arange(M + 1, M + len(a_n) + 1, dtype=np.int64) % m
    return np.bincount(n, a_n.real, m) + 1j * np.bincount(n, a_n.imag, m)


def _window_sums_additive(q: int, k: int, seq: Sequence[complex], M: int) -> np.ndarray:
    """S(a) = sum_n a_n e(a n / m) for every a mod m; n = M+1..M+len(seq)."""
    m = q ** k
    return m * np.fft.ifft(_binned(seq, M, m))


def _additive_energy(q: int, k: int, seq: Sequence[complex], M: int) -> float:
    """sum over a mod q**k coprime to q of |S(a)|**2 (mod 1: the residue 0)."""
    units = coprime_residues(q ** k) if q > 1 else [0]
    return float(np.sum(np.abs(_window_sums_additive(q, k, seq, M)[units]) ** 2))


def _primitive_energy(table: CharacterTable, seq: Sequence[complex], M: int) -> float:
    """sum over primitive chi of |sum_n a_n chi(n)|**2."""
    sums = table.unit_sums(_binned(seq, M, table.modulus))
    return float(np.sum(np.abs(sums[table.primitive]) ** 2))


def mult_transfer_check(q: int, k: int, seq: Sequence[complex], M: int = 0) -> tuple[float, float]:
    """Both sides of the multiplicative-to-additive transfer at modulus q**k.

    Returns (lhs, rhs) with

        lhs = sum over primitive chi of |sum_n a_n chi(n)|**2
        rhs = (phi(m)/m) * sum over coprime a of |S(a)|**2,

    where S(a) is the additive window sum.  The inequality lhs <= rhs has
    explicit constants and is asserted by the test suite, not here.
    """
    t = build_character_table(q, k)
    rhs = (totient(t.modulus) / t.modulus) * _additive_energy(q, k, seq, M)
    return _primitive_energy(t, seq, M), rhs


def additive_lhs(Q: int, k: int, seq: Sequence[complex], M: int = 0) -> float:
    """sum over q <= Q, coprime a mod q**k of |sum_n a_n e(a n / q**k)|**2."""
    return sum((_additive_energy(q, k, seq, M) for q in range(1, Q + 1)), 0.0)


def multiplicative_lhs(Q: int, k: int, seq: Sequence[complex], M: int = 0) -> float:
    """sum over q <= Q of (q/phi(q)) * sum over primitive chi mod q**k of
    |sum_n a_n chi(n)|**2.

    The q = 1 modulus carries no primitive character under this package's
    convention and contributes zero.
    """
    total = 0.0
    for q in range(1, Q + 1):
        total += q / totient(q) * _primitive_energy(build_character_table(q, k), seq, M)
    return total

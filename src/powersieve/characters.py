"""Dirichlet characters to power moduli, Gauss sums, and the transfer check.

A character table for modulus m = q**k holds every Dirichlet character as an
explicit value vector of length m (zero on residues sharing a factor with
m).  Construction goes through the cyclic decomposition of the unit group:
CRT over the prime powers of m, primitive roots for the odd ones, and the
{+-1} x <3> structure for powers of two.  Explicit vectors keep
orthogonality and Gauss-sum checks as plain dot products; memory grows as
phi(m) * m, which is the price of auditability at desk scale.

Primitivity is decided by subgroup restriction: chi is induced from a
proper divisor modulus exactly when it is trivial on some kernel
{a == 1 mod m/p}, so chi is primitive iff it is nonconstant on that kernel
for every prime p | m.  The modulus-1 table is treated as having no
primitive character, so the q = 1 term of weighted primitive sums vanishes.

For primitive chi the Gauss sum G(chi) = sum chi(a) e(a/m) has |G| =
sqrt(m) (= q**(k/2)), which powers the additive-to-multiplicative transfer

    sum over primitive chi of |sum a_n chi(n)|**2
        <= (phi(m)/m) * sum over coprime a of |sum a_n e(an/m)|**2,

the inequality ``mult_transfer_check`` evaluates on both sides.  Note
phi(q**k)/q**k = phi(q)/q for every k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from .arith import factorize, totient, unit_group_generators

# build guard: q**k at or under a million, per the desk-scale contract
MAX_MODULUS = 10 ** 6


@dataclass(frozen=True)
class GaussSum:
    chi_index: int
    value: complex

    def __abs__(self) -> float:
        return abs(self.value)


class CharacterTable:
    """All phi(m) Dirichlet characters to modulus m = q**k.

    ``values`` is a phi(m) x m complex matrix; row j is the value vector of
    character j on residues 0..m-1.  Row 0 is the principal character.
    ``primitive`` flags each row.  ``labels`` carries the exponent tuple of
    each character against the stored unit-group generators, which is also
    the export key for cross-checking with computer-algebra systems.
    """

    def __init__(self, q: int, k: int):
        if q < 1 or k < 2:
            raise ValueError(f"need q >= 1 and k >= 2, got q={q}, k={k}")
        m = q ** k
        if m > MAX_MODULUS:
            raise ValueError(f"modulus {m} exceeds the guard {MAX_MODULUS}")
        self.q = q
        self.k = k
        self.modulus = m
        self.generators = unit_group_generators(m)

        orders = [d for _, d in self.generators]
        phi = 1
        for d in orders:
            phi *= d
        assert phi == totient(m)

        # discrete logs of every coprime residue against each generator,
        # found by walking the group once: residues[t] = prod g_i**exps[i, t]
        coprime = np.array([a for a in range(m) if gcd(a, m) == 1], dtype=np.int64)
        self._coprime = coprime
        residues = np.array([1 % m], dtype=np.int64)
        exps = np.zeros((0, 1), dtype=np.int64)
        for g, d in self.generators:
            powers = np.array([pow(g, e, m) for e in range(d)], dtype=np.int64)
            residues = (residues[:, None] * powers[None, :] % m).ravel()
            exps = np.vstack((
                np.repeat(exps, d, axis=1),
                np.tile(np.arange(d, dtype=np.int64), exps.shape[1]),
            ))
        dlogs = np.empty_like(exps)
        dlogs[:, np.searchsorted(coprime, residues)] = exps

        self.labels: list[tuple[int, ...]] = []
        self.values = np.zeros((phi, m), dtype=np.complex128)
        if len(self.generators) == 0:  # m == 1: the single trivial character
            self.labels.append(())
            self.values[0, :] = 1.0
        else:
            tuples = np.indices(orders).reshape(len(orders), -1).T
            for j, c in enumerate(tuples):
                self.labels.append(tuple(int(x) for x in c))
                phase = np.zeros(len(coprime), dtype=np.float64)
                for i, d in enumerate(orders):
                    phase += (int(c[i]) * dlogs[i]) % d / np.float64(d)
                self.values[j, coprime] = np.exp(2j * np.pi * phase)

        self.primitive = np.array(
            [self._is_primitive_row(j) for j in range(phi)], dtype=bool
        )

    def __len__(self) -> int:
        return self.values.shape[0]

    def _is_primitive_row(self, j: int) -> bool:
        m = self.modulus
        if m == 1:
            return False  # convention: no primitive character mod 1
        row = self.values[j]
        for p, _ in factorize(m):
            sub = [a for a in range(1, m, m // p) if gcd(a, m) == 1]
            vals = row[sub]
            if np.allclose(vals, 1.0, atol=1e-12):
                return False  # trivial on the kernel: induced from m/p
        return True

    def chi(self, j: int) -> np.ndarray:
        return self.values[j]

    def principal_index(self) -> int:
        return self.labels.index(tuple(0 for _ in self.generators))

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "q": self.q,
            "k": self.k,
            "characters": [
                {
                    "index": j,
                    "label": list(self.labels[j]),
                    "primitive": bool(self.primitive[j]),
                    "values": [
                        [float(z.real), float(z.imag)] for z in self.values[j]
                    ],
                }
                for j in range(len(self))
            ],
        }


def build_character_table(q: int, k: int) -> CharacterTable:
    """Construct the full table of phi(q**k) = q**(k-1) phi(q) characters."""
    return CharacterTable(q, k)


def is_primitive(table: CharacterTable, j: int) -> bool:
    """Whether character j of the table is primitive (precomputed flag)."""
    return bool(table.primitive[j])


def gauss_sum(table: CharacterTable, j: int) -> GaussSum:
    """G(chi) = sum over a mod m of chi(a) e(a/m), by direct summation."""
    m = table.modulus
    e = np.exp(2j * np.pi * np.arange(m) / m)
    return GaussSum(chi_index=j, value=complex(np.dot(table.values[j], e)))


def invert_to_character(table: CharacterTable, j: int, n: int) -> complex:
    """chi(n) recovered from additive characters: the inversion
    chi(n) = G(conj chi)**-1 * sum conj(chi)(a) e(an/m).

    Defined only for primitive chi (the Gauss sum of conj(chi) is nonzero
    exactly then); raises otherwise.
    """
    if not is_primitive(table, j):
        raise ValueError("inversion requires a primitive character")
    m = table.modulus
    conj_row = np.conj(table.values[j])
    g = np.dot(conj_row, np.exp(2j * np.pi * np.arange(m) / m))
    s = np.dot(conj_row, np.exp(2j * np.pi * (np.arange(m) * n % m) / m))
    return complex(s / g)


def _window_sums_additive(q: int, k: int, seq: Sequence[complex], M: int) -> np.ndarray:
    """S(a) = sum_n a_n e(a n / m) for every a mod m; n = M+1..M+len(seq)."""
    m = q ** k
    a_n = np.asarray(list(seq), dtype=np.complex128)
    n = np.arange(M + 1, M + len(a_n) + 1, dtype=np.int64)
    phases = (np.arange(m)[:, None] * (n[None, :] % m)) % m
    return np.exp(2j * np.pi * phases / m) @ a_n


def mult_transfer_check(
    q: int, k: int, seq: Sequence[complex], M: int = 0,
    table: CharacterTable | None = None,
) -> tuple[float, float]:
    """Both sides of the multiplicative-to-additive transfer at modulus q**k.

    Returns (lhs, rhs) with

        lhs = sum over primitive chi of |sum_n a_n chi(n)|**2
        rhs = (phi(m)/m) * sum over coprime a of |S(a)|**2,

    where S(a) is the additive window sum.  The inequality lhs <= rhs has
    explicit constants and is asserted by the test suite, not here.
    """
    t = table if table is not None else build_character_table(q, k)
    m = t.modulus
    a_n = np.asarray(list(seq), dtype=np.complex128)
    n = np.arange(M + 1, M + len(a_n) + 1, dtype=np.int64) % m
    lhs = 0.0
    for j in range(len(t)):
        if not t.primitive[j]:
            continue
        lhs += abs(np.dot(t.values[j][n], a_n)) ** 2
    S = _window_sums_additive(q, k, seq, M)
    coprime = t._coprime
    rhs = (totient(m) / m) * float(np.sum(np.abs(S[coprime]) ** 2))
    return float(lhs), float(rhs)


def additive_lhs(Q: int, k: int, seq: Sequence[complex], M: int = 0) -> float:
    """sum over q <= Q, coprime a mod q**k of |sum_n a_n e(a n / q**k)|**2."""
    total = 0.0
    for q in range(1, Q + 1):
        S = _window_sums_additive(q, k, seq, M)
        m = q ** k
        coprime = np.array([a for a in range(m) if gcd(a, m) == 1], dtype=np.int64)
        total += float(np.sum(np.abs(S[coprime]) ** 2))
    return total


def multiplicative_lhs(Q: int, k: int, seq: Sequence[complex], M: int = 0) -> float:
    """sum over q <= Q of (q/phi(q)) * sum over primitive chi mod q**k of
    |sum_n a_n chi(n)|**2.

    The q = 1 modulus carries no primitive character under this package's
    convention and contributes zero.
    """
    total = 0.0
    for q in range(1, Q + 1):
        t = build_character_table(q, k)
        a_n = np.asarray(list(seq), dtype=np.complex128)
        n = np.arange(M + 1, M + len(a_n) + 1, dtype=np.int64) % t.modulus
        part = 0.0
        for j in range(len(t)):
            if t.primitive[j]:
                part += abs(np.dot(t.values[j][n], a_n)) ** 2
        total += (q / totient(q)) * part
    return total

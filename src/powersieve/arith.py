"""Small multiplicative-arithmetic helpers shared across the package.

Everything here is desk-scale: trial-division factoring, Euler's totient (of
one n, or of a window of them from one prime sieve), coprime-residue masks,
and primitive roots of odd prime powers.  Inputs are plain Python ints; no
arbitrary-precision tricks are needed because callers guard their own ranges.
"""

from __future__ import annotations

from math import isqrt

import numpy as np


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (p, exponent) pairs."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def totient(n: int) -> int:
    """Euler's totient function."""
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def totients(lo: int, hi: int) -> np.ndarray:
    """Euler's totient of every n in [lo, hi), 1 <= lo <= hi, as int64: one
    sieve of the primes below hi, then phi(n) -= phi(n) / p for each prime p
    over its multiples in the window, with no factorization per n."""
    if not 1 <= lo <= hi:
        raise ValueError(f"totients needs 1 <= lo <= hi, got [{lo}, {hi})")
    prime = np.ones(hi, dtype=bool)
    prime[:2] = False
    for p in range(2, isqrt(hi - 1) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    phi = np.arange(lo, hi, dtype=np.int64)
    for p in np.flatnonzero(prime).tolist():
        multiples = phi[-lo % p :: p]  # n = lo + (-lo % p) is the first multiple of p
        multiples -= multiples // p
    return phi


def coprime_residues(q: int) -> np.ndarray:
    """Residues r in [1, q) with gcd(r, q) = 1, ascending, as int64.

    Built by striking multiples of each prime divisor of q, which is faster
    than per-element gcd when q has few prime factors (always true here).
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q == 1:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(q, dtype=bool)
    mask[0] = False  # residue 0
    for p, _ in factorize(q):
        mask[::p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def primitive_root_odd_prime_power(p: int, e: int) -> int:
    """A generator of the cyclic group (Z/p^e)^* for odd prime p, e >= 1.

    Finds a primitive root g mod p by exhausting candidates against the
    prime divisors of p-1, then lifts to p^e (replacing g by g+p when
    g^(p-1) == 1 mod p^2, the classical non-Wieferich adjustment).
    """
    if p == 2 or p % 2 == 0:
        raise ValueError("primitive roots of 2-power moduli are handled separately")
    pm1_primes = [r for r, _ in factorize(p - 1)]
    g = None
    for cand in range(2, p):
        if all(pow(cand, (p - 1) // r, p) != 1 for r in pm1_primes):
            g = cand
            break
    if g is None:  # p prime guarantees a root exists
        raise ValueError(f"{p} does not look prime")
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def unit_group_generators(m: int) -> list[tuple[int, int]]:
    """Cyclic decomposition of (Z/m)^* as [(generator, order), ...].

    Generators are given modulo m (lifted through the CRT so each one is
    congruent to 1 modulo the complementary factor).  For 2^e with e >= 3
    the group is {+-1} x <3>; for e == 2 it is <-1>; for e <= 1 trivial.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if m == 1:
        return []
    gens: list[tuple[int, int]] = []
    for p, e in factorize(m):
        pe = p ** e
        rest = m // pe
        local: list[tuple[int, int]] = []
        if p == 2:
            if e == 2:
                local.append((3, 2))
            elif e >= 3:
                local.append((pe - 1, 2))          # the -1 component
                local.append((3, 2 ** (e - 2)))    # the cyclic 2-power part
        else:
            g = primitive_root_odd_prime_power(p, e)
            local.append((g, (p - 1) * p ** (e - 1)))
        for g, order in local:
            if rest == 1:
                gens.append((g % m, order))
            else:
                # lift: congruent to g mod p^e and to 1 mod rest
                inv = pow(pe, -1, rest)
                lifted = (g + pe * ((1 - g) * inv % rest)) % m
                gens.append((lifted, order))
    return gens

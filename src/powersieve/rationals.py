"""Exact arithmetic for reduced fractions with power denominators.

The central object is the family of sets

    S(Q, k) = { a / q**k : gcd(a, q) = 1, 1 <= a < q**k, Q < q <= 2Q },

i.e. all reduced fractions in (0, 1) whose denominator is the k-th power of
a base drawn from the dyadic window (Q, 2Q].  Everything downstream (spacing
statistics, sieve experiments) consumes these sets, so enumeration is
columnar and exact: numerators and denominator bases are stored as integer
arrays sorted ascending by value.  S(Q, k) = 1 - S(Q, k), so only the half L
below 1/2 is sorted (on a packed integer key), stored, cached and certified
(by exact cross-multiplication, never by floating point); the whole set is
built from it on demand.

Integer columns ``(nums, dens)`` are the one exact form of a point set:
``exact_columns`` is the width rule (int64 while every product the caller
forms stays below 2**62, Python-integer object arrays past it) and
``strictly_increasing`` the order certificate.  A ``FractionSet`` is always
exactly S(Q, k), int64: S(Q, k) is refused once (2Q)**(2k) reaches 2**62
(S(3, 12), the smallest such set, has 929,295,220 points) or its closed-form
count passes ``MAX_SET_POINTS``.  Single ``PowerFraction`` pairs use Python
integers with q**k below 2**64.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import gcd

import numpy as np

from .arith import coprime_residues, totients

# PowerFraction refuses a q**k of 2**64 or more, before forming it.
MAX_DENOMINATOR_BITS = 64

# int64 columns need every product below 2**63; one safety bit is kept.
_INT64_PRODUCT_BITS = 62

# enumerate_set refuses larger sets: S(150, 2) has 4,796,786 points, holds
# 38 MB (its lower half) and peaks near 86 MB to enumerate, 175 MB through
# `spacing` at N = Q**3 (in-process peak RSS, the interpreter included)
MAX_SET_POINTS = 10 ** 7

# adjacent pairs per block of the order certificate's cross products
_CERTIFY_BLOCK = 2 ** 14

# enumerate_set's sort key floor(a 2**_KEY_BITS / q**k) of a point a/q**k
_KEY_BITS = 50

_CACHE_MAGIC = b"PWFRSET2"  # the records are the lower half only
_CACHE_HEADER = struct.Struct("<QQQ")


def _checked_power(q: int, k: int, bits: int, why: str) -> int:
    """q**k, raising OverflowError that names its size in bits when it has
    more than ``bits`` bits.  q**k has at least k*(b-1)+1 bits, b the bit
    length of q, so a power that bound refuses is never formed."""
    least = k * (q.bit_length() - 1) + 1
    qk = q ** k if least <= bits else None
    if qk is None or qk.bit_length() > bits:
        size = (f"{q}**{k} has at least {least}" if qk is None
                else f"{qk} (q={q}, k={k}) has {qk.bit_length()}")
        raise OverflowError(f"q**k = {size} bits, more than {bits}: {why}")
    return qk


@cache  # a caller's check and the FractionSet it then builds count a set once
def _checked_size(Q: int, k: int) -> int:
    """|S(Q, k)|, refusing the set unless Q >= 1, k >= 2, its cross products
    (2Q)**(2k) fit int64 columns ((2Q)**k < 2**31) and it has at most
    ``MAX_SET_POINTS`` points, so (2Q)**(2k) <= 2**48 (see ``enumerate_set``)."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    _checked_power(2 * Q, k, _INT64_PRODUCT_BITS // 2,
                   f"S({Q}, {k}) is too wide for int64 columns, its cross products reach 2**62")
    count = expected_cardinality(Q, k)
    if count > MAX_SET_POINTS:
        raise ValueError(f"S({Q}, {k}) has {count} points, more than the budget {MAX_SET_POINTS}")
    return count


def exact_columns(*cols, bound: int) -> tuple[np.ndarray, ...]:
    """The width rule: ``cols`` as int64 arrays when ``bound``, the largest
    product the caller forms from them, stays below 2**62, and as
    Python-integer object arrays otherwise.  No S(Q, k) takes the object path;
    hand-made inputs do, such as denominators of 2**31 and above (a float's
    exact value, 2**55 for 0.1) or a threshold numerator past 2**61 / dmax**2."""
    dtype = np.int64 if int(bound).bit_length() <= _INT64_PRODUCT_BITS else object
    return tuple(np.asarray(c, dtype=dtype) for c in cols)


def strictly_increasing(nums: np.ndarray, dens: np.ndarray, k: int = 1) -> bool:
    """The order certificate: nums[i]/dens[i]**k < nums[i+1]/dens[i+1]**k for
    every adjacent pair, by exact cross products (columns at ``exact_columns``
    width) formed a block of pairs at a time, so no temporary spans the columns."""
    for lo in range(0, len(nums) - 1, _CERTIFY_BLOCK):
        hi = lo + _CERTIFY_BLOCK + 1
        a, d = nums[lo:hi], dens[lo:hi] ** k
        if not np.all(a[:-1] * d[1:] < a[1:] * d[:-1]):
            return False
    return True


@dataclass(frozen=True)
class PowerFraction:
    """A reduced fraction a / q**k with 1 <= a < q**k and gcd(a, q) = 1; a
    q**k of 2**64 or more is refused before it is formed."""

    a: int
    q: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"exponent k must be >= 2, got {self.k}")
        if self.q < 1:
            raise ValueError(f"base q must be >= 1, got {self.q}")
        qk = _checked_power(self.q, self.k, MAX_DENOMINATOR_BITS,
                            "a PowerFraction needs q**k < 2**64")
        if not 1 <= self.a < qk:
            raise ValueError(f"numerator {self.a} outside [1, {qk})")
        if gcd(self.a, self.q) != 1:
            raise ValueError(f"gcd({self.a}, {self.q}) != 1")

    @property
    def denominator(self) -> int:
        return self.q ** self.k

    def as_fraction(self) -> Fraction:
        return Fraction(self.a, self.denominator)

    def __float__(self) -> float:
        return self.a / self.denominator

    def __str__(self) -> str:
        return f"{self.a}/{self.q}^{self.k}"


class FractionSet:
    """Exactly S(Q, k), sorted ascending by value: an invariant this module
    establishes where a set is made, by construction in ``enumerate_set`` and
    by certifying the cached half in ``read_cache``, so consumers trust it.  The
    constructor takes the columns of L and refuses (Q, k) that ``enumerate_set``
    would and any count but |S(Q, k)|/2.

    Only L is stored: ``lower`` is its pair of parallel int64 columns
    (numerators, bases).  The whole set is L then its mirror (q**k - a, q)
    reversed, and ``numerators``, ``bases`` and ``denominators()`` (the column
    q**k) build its columns on each call; every cross product of two points
    fits int64.  Individual elements materialize as :class:`PowerFraction`
    on demand.
    """

    def __init__(self, Q: int, k: int, numerators: np.ndarray, bases: np.ndarray):
        self.Q, self.k = int(Q), int(k)
        h = _checked_size(self.Q, self.k) // 2
        if not len(numerators) == len(bases) == h:
            raise ValueError(f"S({Q}, {k}) has {h} points below 1/2, not {len(numerators)} "
                             f"numerators and {len(bases)} bases")
        self.lower = (numerators, bases)

    def __len__(self) -> int:
        return 2 * len(self.lower[0])

    def __getitem__(self, i: int) -> PowerFraction:
        (a, q), n = self.lower, len(self)
        if not -n <= i < n:
            raise IndexError(f"index {i} out of range for a set of {n} points")
        i %= n
        if i < n // 2:
            return PowerFraction(int(a[i]), int(q[i]), self.k)
        j = n - 1 - i  # the mirror of L's point j
        return PowerFraction(int(q[j]) ** self.k - int(a[j]), int(q[j]), self.k)

    @property
    def numerators(self) -> np.ndarray:
        a, q = self.lower
        return np.concatenate([a, (q ** self.k - a)[::-1]])

    @property
    def bases(self) -> np.ndarray:
        q = self.lower[1]
        return np.concatenate([q, q[::-1]])

    def denominators(self) -> np.ndarray:
        d = self.lower[1] ** self.k
        return np.concatenate([d, d[::-1]])

    # -- serialization ----------------------------------------------------

    def write_cache(self, path) -> None:
        """Compact binary cache: header (Q, k, count) then L's (a, q) u64 pairs.

        Written to a temporary file in the target directory and renamed
        over ``path``, so readers never see a partial file.
        """
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_CACHE_MAGIC)
                fh.write(_CACHE_HEADER.pack(self.Q, self.k, len(self)))
                rec = np.empty((len(self) // 2, 2), dtype="<u8")
                rec[:, 0], rec[:, 1] = self.lower
                rec.tofile(fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def read_cache(cls, path) -> "FractionSet":
        """The S(Q, k) a cache file holds: the header's (Q, k) and count and
        the file size are checked before anything is allocated, then every
        record of L by ``_certify``."""
        try:
            with open(path, "rb") as fh:
                if fh.read(len(_CACHE_MAGIC)) != _CACHE_MAGIC:
                    raise ValueError("not a fraction-set cache")
                head = fh.read(_CACHE_HEADER.size)
                if len(head) != _CACHE_HEADER.size:
                    raise ValueError("truncated cache header")
                Q, k, count = _CACHE_HEADER.unpack(head)
                expected = _checked_size(Q, k)  # the header enumerate_set would refuse
                if count != expected:
                    raise ValueError(f"header counts {count} points, S({Q}, {k}) has {expected}")
                h, size = count // 2, os.fstat(fh.fileno()).st_size - fh.tell()
                if size != 16 * h:  # (a, q) u64 pairs of L
                    raise ValueError(f"truncated or overlong cache: {size} bytes "
                                     f"of records, expected {16 * h}")
                cols = np.empty((2, h), dtype=np.int64)
                cols[:] = np.fromfile(fh, dtype="<u8", count=2 * h).reshape(h, 2).T
            _certify(Q, k, *cols)
        except (ValueError, OverflowError) as exc:
            raise type(exc)(f"{path}: {exc}") from None
        return cls(Q, k, *cols)


def _certify(Q: int, k: int, a: np.ndarray, q: np.ndarray) -> None:
    """ValueError unless each cached record (a, q) of L, a block at a time, has
    its base in (Q, 2Q], 1 <= a <= (q**k - 1) // 2 (2a < q**k, no 2a to wrap)
    and a a unit mod q (a lookup of a % q), and the records pass the order
    certificate.  S(Q, k) has exactly |S|/2 points below 1/2, so |S|/2 such
    records are L, and L < 1/2 < 1 - L: its mirror needs no second certificate."""
    unit = (np.gcd.outer(np.arange(Q + 1, 2 * Q + 1), np.arange(2 * Q)) == 1).ravel()
    for lo in range(0, len(a), _CERTIFY_BLOCK):
        aa, qq = a[lo:lo + _CERTIFY_BLOCK], q[lo:lo + _CERTIFY_BLOCK]
        member = (Q < qq) & (qq <= 2 * Q)
        if member.all():
            member = ((1 <= aa) & (aa <= (qq ** k - 1) // 2)
                      & unit[(qq - (Q + 1)) * (2 * Q) + aa % qq])
        if not member.all():
            i = lo + int(np.argmin(member))
            raise ValueError(f"cache record {i}, {a[i]}/{q[i]}**{k}, "
                             f"is not in S({Q}, {k}) below 1/2")
    if not strictly_increasing(a, q, k):  # bases certified, so q**k fits
        raise ValueError("cache records are not strictly increasing")


def enumerate_set(Q: int, k: int) -> FractionSet:
    """Enumerate S(Q, k): reduced a/q**k with Q < q <= 2Q, sorted by value.

    The cardinality is sum over the window of q**(k-1) * phi(q): numerators
    are exactly a = m*q + r with 0 <= m < q**(k-1) and r a reduced residue,
    since gcd(a, q) depends on a mod q alone.

    a -> q**k - a maps the units mod q onto themselves, and 2a = q**k has no
    unit solution, so the set is its lower half L (the first half of each
    base's ascending block) then 1 - L reversed.  Only L is built and
    sorted, on one int64 key floor(a 2**50 / q**k) << bits(Q - 1) | (q - Q - 1),
    and certified by exact cross products, since L < 1/2 < 1 - L.  Admitted
    sets have q**k <= 2**24 and (2Q)**(2k) <= 2**48, so the float product
    a (2**50 / q**k) is within 1/8 of a unit of the exact a 2**50 / q**k,
    distinct points are at least 4 units apart, the key stays below 2**62, and
    with the base read off the low bits, rint((key + 1/2) q**k / 2**50) is
    within 2**-26 of a; the decode runs in the keys' own buffer.  Sets whose
    cross products would not fit int64, or of more than ``MAX_SET_POINTS``
    points, are refused before anything is allocated.
    """
    count, bits = _checked_size(Q, k), (Q - 1).bit_length()
    h, keys, o = count // 2, np.empty(count // 2, dtype=np.int64), 0
    for q in range(Q + 1, 2 * Q + 1):  # the first half of each base's block: 2a < q**k
        res, rows = coprime_residues(q), q ** (k - 1)
        c = rows * len(res) // 2
        a = np.add.outer(np.arange((rows + 1) // 2, dtype=np.int64) * q, res).ravel()[:c]
        keys[o : o + c] = (a * (2.0 ** _KEY_BITS / q ** k)).astype(np.int64) << bits | (q - Q - 1)
        o += c
    keys.sort()
    nums, bases = np.empty((2, h), dtype=np.int64)
    np.bitwise_and(keys, (1 << bits) - 1, out=bases)
    bases += Q + 1
    keys >>= bits
    vals = keys.view(np.float64)  # (key + 1/2) q**k 2**-50 in the keys' buffer: one rounding
    vals[:] = keys
    vals += 0.5
    vals *= np.power(bases, k, out=nums)
    vals *= 2.0 ** -_KEY_BITS
    nums[:] = np.rint(vals, out=vals)
    if not strictly_increasing(nums, bases, k):
        raise AssertionError(f"the key order of S({Q}, {k}) failed its certificate")
    return FractionSet(Q, k, nums, bases)


def expected_cardinality(Q: int, k: int) -> int:
    """The closed-form count: sum of q**(k-1) * phi(q) over Q < q <= 2Q, in
    Python integers, phi of the window from one sieve (``arith.totients``)."""
    return sum(q ** (k - 1) * f for q, f in
               zip(range(Q + 1, 2 * Q + 1), totients(Q + 1, 2 * Q + 1).tolist()))

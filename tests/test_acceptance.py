"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``.  Each test prints
``[PASS]``/``[FAIL]`` with its criterion number before asserting, so the
status lines survive capture on both outcomes.

Criterion 1 (exact reproduction of the published 100-row reference table)
FAILS by design of honesty: the published table is arithmetically
inconsistent with the printed definition it accompanies.  Witness at Q = 2:
7/16 and 4/9 both belong to S(2, 2) = {a/q**2 : gcd(a,q)=1, 2 < q <= 4} and
|7/16 - 4/9| = 1/144 exactly, so twice the distance is 1/72 < 1/8 = 2**-3
and the maximum neighbor count at Q = 2 is at least 1; the published table
prints 0 there.  No threshold or window convention tested (dyadic upper and
lower windows, q <= Q, strict and non-strict comparison, torus and plain
distance, gcd-filtered or raw enumerations, thresholds c * Q**-3 for a free
constant) reproduces the published column; the closest,
q in (Q/2, Q] with ||x - x'|| < Q**-3, matches exactly for Q = 1..11 and
diverges from Q = 12 on.  The computation here follows the stated
definition; the reference CSV is shipped unmodified; the disagreement is
asserted nowhere else and documented here.
"""

import csv
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from powersieve.characters import build_character_table, gauss_sum, mult_transfer_check
from powersieve.cli import main as cli_main
from powersieve.expsum import (
    PolynomialPhase,
    exp_sum,
    fejer_phi,
    fejer_phi_hat,
    poisson_identity_check,
    v_kernel,
    v_kernel_series,
    weyl_bound,
)
from powersieve.rationals import enumerate_set
from powersieve.sieve import (
    SieveInstance,
    cohen_selberg_ceiling,
    duality_check,
    gram_lambda_max,
    sieve_ratio_experiment,
)
from powersieve.spacing import (
    SpacingQuery,
    conjecture_scan,
    neighbor_counts_bruteforce,
    spacing_count_fast,
)
from powersieve.arith import totient


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def random_rational_instances(count: int, seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        K = rng.randrange(2, 30)
        den = rng.randrange(50, 500)
        pts = set()
        while len(pts) < K:
            pts.add(Fraction(rng.randrange(0, den), den))
        N = rng.randrange(1, 51)
        out.append(SieveInstance(sorted(pts), 0, N))
    return out


def test_criterion_1_published_table_reproduction(tmp_path, data_dir):
    out = tmp_path / "table1.json"
    code = cli_main(["table1", "--q-max", "100", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    computed = {r["Q"]: r["M"] for r in rows}
    with open(data_dir / "table1_expected.csv") as fh:
        published = {int(r["Q"]): int(r["M"]) for r in csv.DictReader(fh)}
    mismatches = [
        (Q, computed[Q], published[Q])
        for Q in range(1, 101)
        if computed[Q] != published[Q]
    ]
    ok = not mismatches
    report(
        1,
        ok,
        f"published-table reproduction: {100 - len(mismatches)}/100 rows match"
        + (
            f"; first mismatches (Q, computed, published): {mismatches[:5]} ... "
            "see the module docstring for the Q=2 witness showing the published "
            "data contradicts its own printed definition"
            if mismatches
            else ""
        ),
    )
    assert ok, f"{len(mismatches)} of 100 rows disagree with the published table"


def test_criterion_2_oracle_equivalence():
    checked = 0
    for k in (2, 3):
        for Q in range(1, 13):
            fs = enumerate_set(Q, k)
            Ns = sorted({10, Q ** 3, Q ** (k + 1), 2 * Q ** (k + 1)})
            # one exhaustive oracle sweep per (Q, k) answers all its thresholds
            brute_rows = neighbor_counts_bruteforce(
                fs.numerators, fs.denominators(), [1] * len(Ns), [2 * N for N in Ns]
            )
            for N, brute_counts in zip(Ns, brute_rows):
                fast = spacing_count_fast(SpacingQuery(Q, k, N), fs)
                brute = int(brute_counts.max())
                assert fast.count == brute, (Q, k, N, fast.count, brute)
                assert np.array_equal(fast.counts, brute_counts), (Q, k, N)
                checked += 1
    report(2, True, f"fast == brute-force on {checked} (Q, k, N) queries")


def test_criterion_3_sharp_ceiling():
    tested = 0
    for inst in random_rational_instances(50, seed=20240815):
        lam = gram_lambda_max(inst).lambda_max
        assert lam <= cohen_selberg_ceiling(inst) + 1e-6
        tested += 1
    for Q in range(1, 5):
        fs = enumerate_set(Q, 2)
        for N in (1, 8, 64):
            inst = SieveInstance.from_fraction_set(fs, N)
            lam = gram_lambda_max(inst).lambda_max
            assert lam <= cohen_selberg_ceiling(inst) + 1e-6
            tested += 1
    report(3, True, f"lambda_max <= 1/delta - 1 + N (+1e-6) on {tested} instances")


def test_criterion_4_duality():
    instances = random_rational_instances(20, seed=777)
    for Q in (1, 2, 3):
        instances.append(SieveInstance.from_fraction_set(enumerate_set(Q, 2), 12))
    instances.append(SieveInstance([Fraction(1, 3)], 0, 9))
    worst = 0.0
    for inst in instances:
        lhs, rhs = duality_check(inst)
        lam = max(lhs, rhs)
        assert abs(lhs - rhs) <= 1e-8 * lam
        worst = max(worst, abs(lhs - rhs) / lam)
    report(4, True, f"|lambda(T*T) - lambda(TT*)| <= 1e-8 rel on {len(instances)} instances (worst {worst:.2e})")


def test_criterion_5_weyl_bound_500_phases():
    rng = random.Random(1894)
    violations = 0
    for trial in range(500):
        k = 2 if trial % 2 == 0 else 3
        kappa = 2 ** (k - 1)
        den = rng.randrange(1, 120)
        num = rng.randrange(1, den + 1)
        alpha = Fraction(num, den)
        lower = tuple(
            Fraction(rng.randrange(0, 7), rng.randrange(1, 9)) for _ in range(k)
        )
        phase = PolynomialPhase(lower + (alpha,))
        N = rng.randrange(1, 201)
        start = rng.randrange(-50, 50)
        s = abs(exp_sum(phase, (start, N)))
        if s ** kappa > weyl_bound(phase, (start, N)) * (1 + 1e-12):
            violations += 1
    report(5, violations == 0, f"|S|**kappa <= differencing bound on 500 phases ({violations} violations)")
    assert violations == 0


def test_criterion_6_kernel_identities():
    for N in range(1, 51):
        check = poisson_identity_check(N)
        assert check.gap <= check.tail_bound, N
    rng = random.Random(4242)
    worst = 0.0
    for _ in range(100):
        N = rng.randrange(1, 21)
        y = rng.random()
        gap = abs(v_kernel(y, N) - v_kernel_series(y, N))
        worst = max(worst, gap)
        assert gap <= 1e-6
    assert fejer_phi(0.0) == pytest.approx(math.pi ** 2 / 4, rel=1e-15)
    for s in np.linspace(-2.5, 2.5, 401):
        assert fejer_phi_hat(s) == pytest.approx(
            math.pi ** 2 / 4 * max(1 - abs(s), 0.0), abs=1e-15
        )
    report(6, True, f"truncated summation identity N<=50, V(y) closed vs series (worst {worst:.2e}), kernel values pointwise")


def test_criterion_7_gauss_and_orthogonality():
    worst_gauss = 0.0
    for q in range(1, 21):
        table = build_character_table(q, 2)
        assert len(table) == q * totient(q)
        for j in range(len(table)):
            if table.primitive[j]:
                worst_gauss = max(
                    worst_gauss, abs(abs(gauss_sum(table, j).value) - q)
                )
    assert worst_gauss <= 1e-9
    worst_orth = 0.0
    for q, k in [(2, 2), (3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (14, 2), (2, 3), (2, 7), (3, 4), (5, 3), (6, 2), (10, 2), (12, 2)]:
        if q ** k > 200:
            continue
        t = build_character_table(q, k)
        G = t.values @ t.values.conj().T
        worst_orth = max(
            worst_orth,
            float(np.max(np.abs(G - totient(t.modulus) * np.eye(len(t))))),
        )
    assert worst_orth <= 1e-9
    report(7, True, f"|G(chi)| = q for primitive chi mod q**2 (worst {worst_gauss:.2e}); counts exact; orthogonality (worst {worst_orth:.2e})")


def test_criterion_8_transfer_inequality():
    rng = np.random.default_rng(1234)
    checked = 0
    for trial in range(20):
        q = int(rng.integers(2, 8))
        n_len = int(rng.integers(1, 31))
        seq = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
        lhs, rhs = mult_transfer_check(q, 2, seq)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12, (q, n_len, lhs, rhs)
        checked += 1
    report(8, True, f"multiplicative LHS <= additive RHS on {checked} random sequences")


def test_criterion_9_report_only_ratios(data_dir):
    with open(data_dir / "sieve_baselines.json") as fh:
        baselines = json.load(fh)
    print("  Q   N  k    lambda_max      ratios (report-only)")
    for base in baselines:
        rec = sieve_ratio_experiment(base["Q"], base["N"], base["k"])
        assert rec["lambda_max"] == pytest.approx(base["lambda_max"], rel=1e-6)
        for b in rec["bounds"]:
            assert b["ratio"] == pytest.approx(
                base["ratios"][b["name"]], rel=1e-6, abs=1e-12
            )
        shown = {
            n: round(base["ratios"][n], 4)
            for n in ("weyl_dyadic", "conjectured_optimal")
        }
        print(
            f"  {base['Q']:>2} {base['N']:>4} {base['k']}  {rec['lambda_max']:>12.4f}  {shown}"
        )
    scan = conjecture_scan(101, 102, 2)
    for row in scan.rows:
        print(
            f"  exploratory scan Q={row.Q}: count={row.count} open={row.count_open} ratio={row.ratio:.4f}"
        )
    report(9, True, "frozen ratio baselines reproduced; exploratory scan emitted")

"""The benchmark's workloads: experiment lists, their set-up, and payload checks.

Each workload is a fixed list of ``powersieve`` subcommands (an
``Experiment`` each), run in-process through ``cli.main``.  Every payload
is checked after the timed pass:

* against an external reference where the repository has one
  (``tests/data/table1_computed.csv``, ``tests/data/sieve_baselines.json``),
* against another experiment of the same pass (brute-force ``M`` equals
  fast ``M``; the k=2 ``conjecture`` column equals ``table1``),
* against an independent recomputation in this file for the seeded
  ``transfer`` and ``weyl`` inputs,
* and against payloads frozen from the code this benchmark was written
  against (``refs.json``, written by ``freeze.py``), header stripped.

Floats are compared at a relative tolerance of ``FLOAT_REL``: BLAS thread
order and summation order can move the last bits.  Power-iteration
eigenvalues depend on the seeded start vector, so they are compared at
``LOOSE_REL``, the tolerance of the sieve baselines.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from powersieve import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(ROOT, "tests", "data")
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

FLOAT_REL = 1e-9
LOOSE_REL = 1e-6
# digests keep at most this many rows verbatim, plus column sums of all rows
SAMPLE_ROWS = 32

# Sizes: the Q-grids come from the paper and are fixed; each list is cut
# so that one pass takes a few seconds and a run repeats it several times.
SCAN_Q_MAX = 50          # table1 / conjecture k=2 grid, Q = 1..50
SCAN_K3_Q_MAX = 15       # conjecture k=3 grid without cache
ORACLE_GRID = ((2, 12), (3, 6))  # (k, Q_max) of the brute-vs-fast sweep
SIEVE_INSTANCES = (
    [(Q, Q ** 3, 2) for Q in range(1, 7)]
    + [(Q, Q ** 4, 3) for Q in (1, 2, 4)]
    + [(3, 200, 2)]      # N > |S(3, 2)| = 40: the points side of the Gram form
)
SIEVE_SEEDS_PER_INSTANCE = 2  # two start vectors per instance damp the seed's effect on wall time
GAUSS_MODULI = ((31, 2), (47, 2), (61, 2), (5, 3), (7, 3), (9, 3))
WEYL_RUNS = ((3, 97, 40, 60), (2, 1009, 300, 400))  # (k, prime denominator, n_min, N)
TRANSFER = (31, 200)     # (q, N) at k=2
POISSON_N = (12, 50)

@dataclass
class Experiment:
    """One subcommand of a pass.

    ``key`` is unique within the pass; ``ref_key`` names the frozen
    reference (None for seeded payloads, which are recomputed instead);
    ``check(payload, earlier)`` returns mismatch messages, where
    ``earlier`` maps keys of this pass to their payloads.
    """

    key: str
    argv: list
    ref_key: Optional[str]
    check: Callable[[dict, dict], list] = lambda payload, earlier: []
    loose: tuple = ()


@dataclass
class Fixtures:
    table1: dict    # Q -> M, from table1_computed.csv
    sieve: dict     # (Q, N, k) -> baseline record
    refs: dict      # ref_key -> frozen digest


def load_fixtures(with_refs: bool = True) -> Fixtures:
    with open(os.path.join(DATA_DIR, "table1_computed.csv"), newline="") as fh:
        table1 = {int(r["Q"]): int(r["M"]) for r in csv.DictReader(fh)}
    with open(os.path.join(DATA_DIR, "sieve_baselines.json")) as fh:
        sieve = {(r["Q"], r["N"], r["k"]): r for r in json.load(fh)}
    refs = {}
    if with_refs:
        with open(REFS_PATH) as fh:
            refs = json.load(fh)
    return Fixtures(table1, sieve, refs)


def invoke(argv: list) -> tuple[int, str, str]:
    """Run one subcommand in-process; (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    return status, out.getvalue(), err.getvalue()


# -- digests and tolerant comparison -------------------------------------


def digest(payload: dict) -> dict:
    """The form a payload is frozen and compared in.

    The seed-dependent ``iterations`` and ``residual`` of the power
    iteration are dropped, and ``rows`` lists longer than twice
    ``SAMPLE_ROWS`` are cut to a sample plus column sums.
    """
    payload = {k: v for k, v in payload.items() if k not in ("iterations", "residual")}
    rows = payload.get("rows")
    if not isinstance(rows, list) or len(rows) <= 2 * SAMPLE_ROWS:
        return payload
    stride = math.ceil(len(rows) / SAMPLE_ROWS)
    sums = {}
    for col, val in rows[0].items():
        if isinstance(val, (int, float)):
            vals = [float(r[col]) for r in rows]
            sums[col] = [math.fsum(vals), math.fsum(abs(v) for v in vals)]
    return {**payload, "rows": {"n": len(rows), "sample": rows[::stride], "sums": sums}}


def compare(got, ref, loose=(), path="payload", rel=FLOAT_REL) -> list:
    """Mismatch messages between ``got`` and ``ref`` (empty when they agree).

    Booleans, ints and strings must be equal; floats agree to ``FLOAT_REL``
    relative (``LOOSE_REL`` below keys named in ``loose``), with an absolute
    floor of the same size so values near zero compare sensibly.  Column
    sums are compared relative to the sum of absolute values.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ from the reference"]
        out = []
        for key in ref:
            sub = f"{path}.{key}"
            if path.endswith(".sums"):
                out += _compare_sum(got[key], ref[key], sub)
            else:
                out += compare(got[key], ref[key], loose, sub,
                               LOOSE_REL if key in loose else rel)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs from the reference"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += compare(g, r, loose, f"{path}[{i}]", rel)
        return out
    if isinstance(ref, float) and type(got) in (int, float):
        if math.isclose(got, ref, rel_tol=rel, abs_tol=rel):
            return []
        return [f"{path}: {got!r} != {ref!r} (rel {rel:g})"]
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def _compare_sum(got, ref, path) -> list:
    (s, a), (rs, ra) = got, ref
    scale = max(1.0, ra)
    if abs(s - rs) <= FLOAT_REL * scale and abs(a - ra) <= FLOAT_REL * scale:
        return []
    return [f"{path}: sums {got!r} != {ref!r}"]


def check_payload(exp: Experiment, payload: dict, earlier: dict, fx: Fixtures) -> list:
    """Every check of one experiment's payload (header already stripped)."""
    problems = []
    if exp.ref_key is not None:
        if exp.ref_key not in fx.refs:
            problems.append(f"no frozen reference for {exp.ref_key!r}")
        else:
            problems += compare(digest(payload), fx.refs[exp.ref_key], exp.loose)
    return problems + exp.check(payload, earlier)


# -- workloads ------------------------------------------------------------


def _scan(seed, fx, warm_dir):
    def check_table1(p, earlier):
        return [f"table1 Q={r['Q']}: M={r['M']} != {fx.table1[r['Q']]}"
                for r in p["rows"] if r["M"] != fx.table1[r["Q"]]]

    def check_conjecture(p, earlier):
        table1 = {r["Q"]: r["M"] for r in earlier["table1"]["rows"]}
        return [f"conjecture Q={r['Q']}: M={r['M']} != table1 {table1.get(r['Q'])} "
                f"/ csv {fx.table1[r['Q']]}"
                for r in p["rows"] if not r["M"] == table1.get(r["Q"]) == fx.table1[r["Q"]]]

    def experiments(pass_dir):
        cold = os.path.join(pass_dir, "cache")
        q_max, q3 = str(SCAN_Q_MAX), str(SCAN_K3_Q_MAX)
        return [
            Experiment("table1", ["table1", "--q-max", q_max, "--cache-dir", cold],
                       f"table1 --q-max {q_max}", check_table1),
            Experiment("conjecture", ["conjecture", "--q-min", "1", "--q-max", q_max,
                                      "--cache-dir", cold],
                       f"conjecture --q-max {q_max}", check_conjecture),
            Experiment("conjecture-k3", ["conjecture", "--q-min", "1", "--q-max", q3,
                                         "--k", "3"],
                       f"conjecture --q-max {q3} --k 3"),
        ]

    return experiments


def oracle_queries():
    """The criterion-2 grid at reduced size: (Q, k, N) query triples."""
    return [
        (Q, k, N)
        for k, q_max in ORACLE_GRID
        for Q in range(1, q_max + 1)
        for N in sorted({10, Q ** 3, Q ** (k + 1), 2 * Q ** (k + 1)})
    ]


def _oracle(seed, fx, warm_dir):
    # pre-fill the warm cache through the CLI itself, one set per (Q, k)
    for Q, k in sorted({(Q, k) for Q, k, _ in oracle_queries()}):
        status, _, err = invoke(["spacing", "--Q", str(Q), "--k", str(k), "--N", "1",
                                 "--cache-dir", warm_dir])
        if status != 0:
            raise RuntimeError(f"oracle cache pre-fill failed for Q={Q}, k={k}: {err}")

    def check_fast(brute_key):
        def check(p, earlier):
            b, f = earlier[brute_key]["rows"][0]["M"], p["rows"][0]["M"]
            return [] if b == f else [f"{brute_key}: brute M={b} != fast M={f}"]
        return check

    def experiments(pass_dir):
        out = []
        for Q, k, N in oracle_queries():
            base = ["spacing", "--Q", str(Q), "--k", str(k), "--N", str(N),
                    "--cache-dir", warm_dir]
            name = f"spacing --Q {Q} --k {k} --N {N}"
            out.append(Experiment(f"{name} brute", base + ["--engine", "brute"],
                                  f"{name} --engine brute"))
            out.append(Experiment(f"{name} fast", base + ["--engine", "fast"],
                                  f"{name} --engine fast", check_fast(f"{name} brute")))
        return out

    return experiments


def _sieve(seed, fx, warm_dir):
    rng = random.Random(seed)
    runs = [(inst, rng.randrange(2 ** 31))
            for inst in SIEVE_INSTANCES for _ in range(SIEVE_SEEDS_PER_INSTANCE)]

    def check_sieve(p, earlier):
        problems = []
        lam = p["lambda_max"]
        if not (isinstance(p["iterations"], int) and p["iterations"] >= 1):
            problems.append(f"iterations {p['iterations']!r}")
        if not p["residual"] <= 1e-10 * max(1.0, lam):
            problems.append(f"residual {p['residual']!r} above the 1e-10 target")
        base = fx.sieve.get((p["Q"], p["N"], p["k"]))
        if base is not None:
            if not math.isclose(lam, base["lambda_max"], rel_tol=LOOSE_REL):
                problems.append(f"lambda_max {lam!r} != baseline {base['lambda_max']!r}")
            ratios = {b["name"]: b["ratio"] for b in p["bounds"]}
            if set(ratios) != set(base["ratios"]):
                problems.append(f"bound names {sorted(ratios)} != {sorted(base['ratios'])}")
            else:
                problems += [f"ratio {n}: {ratios[n]!r} != baseline {r!r}"
                             for n, r in base["ratios"].items()
                             if not math.isclose(ratios[n], r, rel_tol=LOOSE_REL)]
        return problems

    def experiments(pass_dir):
        out = []
        for i, ((Q, N, k), s) in enumerate(runs):
            name = f"sieve-ratio --Q {Q} --N {N} --k {k}"
            out.append(Experiment(f"{name} #{i}", ["sieve-ratio", "--Q", str(Q), "--N", str(N),
                                                   "--k", str(k), "--seed", str(s)],
                                  name, check_sieve, loose=("lambda_max", "ratio")))
        out.append(Experiment("bounds", ["bounds", "--Q", "6", "--N", "216"],
                              "bounds --Q 6 --N 216"))
        return out

    return experiments


def transfer_rhs(q: int, k: int, N: int, seed: int) -> float:
    """Additive side of the transfer inequality by FFT, independent of the
    package: S(a) = sum_n a_n e(an/m) is m times the inverse DFT of the
    sequence binned by n mod m."""
    m = q ** k
    rng = np.random.default_rng(seed)
    seq = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    binned = np.zeros(m, dtype=np.complex128)
    np.add.at(binned, np.arange(1, N + 1) % m, seq)
    S = m * np.fft.ifft(binned)
    coprime = np.array([math.gcd(a, q) == 1 for a in range(m)])
    return int(coprime.sum()) / m * float(np.sum(np.abs(S[coprime]) ** 2))


def weyl_powers(a: int, p: int, k: int, n_min: int, N: int) -> list:
    """|sum_{n<=L} e(a n**k / p)|**kappa for L = n_min..N, phases reduced exactly."""
    n = np.arange(1, N + 1, dtype=np.int64)
    r = np.array([a * pow(int(x), k, p) % p for x in n], dtype=np.float64)
    partial = np.cumsum(np.exp(2j * np.pi * r / p))
    kappa = 2 ** (k - 1)
    return [float(abs(partial[L - 1]) ** kappa) for L in range(n_min, N + 1)]


def _charsums(seed, fx, warm_dir):
    rng = random.Random(seed)
    transfer_seed = rng.randrange(2 ** 31)
    numerators = [rng.randrange(1, p) for _, p, _, _ in WEYL_RUNS]

    def check_gauss(p, earlier):
        problems = [] if p["violations"] == 0 else [f"{p['violations']} Gauss-sum violations"]
        if p["primitive_count"] > p["characters"]:
            problems.append("more primitive characters than characters")
        return problems

    def check_transfer(p, earlier):
        q, N = TRANSFER
        row = p["rows"][0]
        rhs = transfer_rhs(q, 2, N, transfer_seed)
        problems = [] if p["inequality_holds"] is True else ["transfer inequality fails"]
        if not math.isclose(row["rhs"], rhs, rel_tol=FLOAT_REL):
            problems.append(f"transfer rhs {row['rhs']!r} != recomputed {rhs!r}")
        if not 0.0 < row["lhs"] <= row["rhs"] * (1 + 1e-9):
            problems.append(f"transfer lhs {row['lhs']!r} outside (0, rhs]")
        return problems

    def check_weyl(a, prime, k, n_min, N):
        def check(p, earlier):
            problems = [] if p["violations"] == 0 else [f"{p['violations']} Weyl violations"]
            rows = p["rows"]
            if [r["N"] for r in rows] != list(range(n_min, N + 1)):
                return problems + ["weyl rows do not cover n_min..N"]
            expect = weyl_powers(a, prime, k, n_min, N)
            for r, s in zip(rows, expect):
                if not math.isclose(r["S_pow_kappa"], s, rel_tol=FLOAT_REL,
                                    abs_tol=FLOAT_REL * r["N"] ** (2 ** (k - 1))):
                    problems.append(f"weyl N={r['N']}: {r['S_pow_kappa']!r} != {s!r}")
                if not (r["bound"] > 0 and math.isclose(r["ratio"], r["S_pow_kappa"] / r["bound"],
                                                         rel_tol=FLOAT_REL)):
                    problems.append(f"weyl N={r['N']}: ratio {r['ratio']!r} inconsistent")
            return problems
        return check

    def check_poisson(p, earlier):
        return [] if p["within_tail_bound"] is True else ["Poisson gap above tail bound"]

    def experiments(pass_dir):
        out = []
        for q, k in GAUSS_MODULI:
            name = f"gauss --q {q} --k {k}"
            out.append(Experiment(name, ["gauss", "--q", str(q), "--k", str(k)], name, check_gauss))
        q, N = TRANSFER
        out.append(Experiment("transfer", ["transfer", "--q", str(q), "--N", str(N),
                                           "--seed", str(transfer_seed)], None, check_transfer))
        for a, (k, prime, n_min, N) in zip(numerators, WEYL_RUNS):
            out.append(Experiment(f"weyl --k {k}", ["weyl", "--alpha", f"{a}/{prime}", "--k", str(k),
                                                    "--N", str(N), "--n-min", str(n_min)],
                                  None, check_weyl(a, prime, k, n_min, N)))
        for N in POISSON_N:
            name = f"poisson --N {N}"
            out.append(Experiment(name, ["poisson", "--N", str(N)], name, check_poisson))
        return out

    return experiments


_SETUPS = {"scan": _scan, "oracle": _oracle, "sieve": _sieve, "charsums": _charsums}
WORKLOADS = tuple(_SETUPS)


def prepare(name: str, seed: int, fx: Fixtures, warm_dir: str):
    """Set a workload up; returns ``experiments(pass_dir) -> [Experiment]``.

    ``warm_dir`` holds whatever the workload treats as warm (the oracle's
    pre-filled fraction-set cache); ``pass_dir`` is fresh for every pass.
    """
    return _SETUPS[name](seed, fx, warm_dir)

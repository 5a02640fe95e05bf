"""Command-line front end: every experiment as a reproducible subcommand.

Reports embed their full run configuration so any output can be regenerated
from its own header.  JSON is the canonical format; CSV is provided for
table diffing.  Exit codes: 0 success, 1 usage, guard or file-system error,
2 an assertable invariant was violated by the computation.

Fraction sets are cached per (Q, k) in a cache directory (flag
``--cache-dir`` or environment variable POWERSIEVE_CACHE_DIR) using the
compact binary format, so range scans do not re-enumerate.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .characters import build_character_table, gauss_sum, mult_transfer_check
from .expsum import PolynomialPhase, exp_sum, poisson_identity_check, weyl_bound
from .rationals import FractionSet, enumerate_set, expected_cardinality
from .sieve import SieveBoundViolation, bound_catalog, sieve_ratio_experiment
from .spacing import (
    SpacingQuery,
    conjecture_scan,
    spacing_count_bruteforce,
    spacing_count_fast,
    table1_statistic,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2

CACHE_ENV = "POWERSIEVE_CACHE_DIR"


@dataclass
class RunConfig:
    """Echo of one CLI run; serialized into every report header."""

    subcommand: str
    Q: Optional[int] = None
    q_min: Optional[int] = None
    q_max: Optional[int] = None
    k: int = 2
    N: Optional[int] = None
    epsilon: float = 0.0
    seed: int = 0
    format: str = "json"
    cache_dir: Optional[str] = None
    out: Optional[str] = None
    extra: dict = field(default_factory=dict)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for assertion failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cached_set(Q: int, k: int, cache_dir: Optional[str]) -> FractionSet:
    if not cache_dir:
        return enumerate_set(Q, k)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"fracset_Q{Q}_k{k}.bin")
    if os.path.exists(path):
        fs = FractionSet.read_cache(path)
        expected = expected_cardinality(Q, k)
        if (fs.Q, fs.k) != (Q, k) or len(fs) != expected:
            raise ValueError(
                f"{path}: cache holds {len(fs)} points of S({fs.Q}, {fs.k}), "
                f"not the {expected} of S({Q}, {k})"
            )
        return fs
    fs = enumerate_set(Q, k)
    fs.write_cache(path)
    return fs


def _emit(config: RunConfig, payload: dict, wall: float) -> None:
    header = {
        "tool": "powersieve",
        "version": __version__,
        "config": {k: v for k, v in asdict(config).items() if v is not None},
        "wall_time_s": round(wall, 6),
    }
    if config.format == "json":
        text = json.dumps({"header": header, **payload}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        for key, val in header.items():
            if key == "config":
                val = json.dumps(val, sort_keys=True)
            buf.write(f"# {key}: {val}\n")
        rows = payload.get("rows", [])
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        for key, val in payload.items():
            if key != "rows":
                buf.write(f"# {key}: {json.dumps(val, sort_keys=True)}\n")
        text = buf.getvalue()
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_table1(config: RunConfig) -> tuple[dict, int]:
    q_max = config.q_max
    if q_max is None or q_max < 1:
        raise ValueError(f"--q-max must be >= 1, got {q_max}")
    if config.k != 2:
        raise ValueError(f"table1 is the k = 2 statistic, got --k {config.k}")
    rows = []
    for Q in range(1, q_max + 1):
        fs = _cached_set(Q, 2, config.cache_dir)
        rows.append({"Q": Q, "M": table1_statistic(Q, fs)})
    return {"rows": rows}, EXIT_OK


def _cmd_spacing(config: RunConfig) -> tuple[dict, int]:
    fs = _cached_set(config.Q, config.k, config.cache_dir)
    query = SpacingQuery(config.Q, config.k, config.N)
    engine = config.extra.get("engine", "fast")
    res = (
        spacing_count_bruteforce(query, fs)
        if engine == "brute"
        else spacing_count_fast(query, fs)
    )
    payload = {
        "rows": [
            {
                "Q": config.Q,
                "k": config.k,
                "N": config.N,
                "M": res.count,
                "witness_a": res.witness.a if res.witness else None,
                "witness_q": res.witness.q if res.witness else None,
                "set_size": len(fs),
            }
        ]
    }
    return payload, EXIT_OK


def _cmd_conjecture(config: RunConfig) -> tuple[dict, int]:
    report = conjecture_scan(
        config.q_min,
        config.q_max,
        config.k,
        cache=lambda Q: _cached_set(Q, config.k, config.cache_dir),
    )
    rows = [
        {
            "Q": r.Q,
            "M": r.count,
            "M_open": r.count_open,
            "witness_a": r.witness_a,
            "witness_q": r.witness_q,
            "ratio": r.ratio,
        }
        for r in report.rows
    ]
    payload = {
        "rows": rows,
        "running_max": report.running_max,
        "fit": {"intercept": report.fit_intercept, "slope": report.fit_slope},
    }
    return payload, EXIT_OK


def _cmd_sieve_ratio(config: RunConfig) -> tuple[dict, int]:
    fs = _cached_set(config.Q, config.k, config.cache_dir)
    try:
        rec = sieve_ratio_experiment(
            config.Q,
            config.N,
            config.k,
            epsilon=config.epsilon,
            fraction_set=fs,
        )
    except SieveBoundViolation as exc:
        return {"error": str(exc)}, EXIT_ASSERTION
    return rec, EXIT_OK


def _cmd_bounds(config: RunConfig) -> tuple[dict, int]:
    rows = [
        {"name": name, "value": value, "assertable": assertable}
        for name, value, assertable in bound_catalog(
            config.Q, config.N, config.k, config.epsilon
        )
    ]
    return {"rows": rows}, EXIT_OK


def _cmd_weyl(config: RunConfig) -> tuple[dict, int]:
    alpha = Fraction(config.extra["alpha"])
    start = config.extra.get("start", 1)
    n_min = config.extra.get("n_min", config.N)
    if not 1 <= n_min <= config.N:
        raise ValueError(f"need 1 <= --n-min <= --N = {config.N}, got --n-min {n_min}")
    phase = PolynomialPhase.monomial(alpha, config.k)
    kappa = 2 ** (config.k - 1)
    rows = []
    violations = 0
    for N in range(n_min, config.N + 1):
        s = abs(exp_sum(phase, (start, N))) ** kappa
        b = weyl_bound(phase, (start, N))
        if s > b * (1 + 1e-12):
            violations += 1
        rows.append({"N": N, "S_pow_kappa": s, "bound": b, "ratio": s / b})
    payload = {"rows": rows, "violations": violations}
    return payload, EXIT_ASSERTION if violations else EXIT_OK


def _cmd_poisson(config: RunConfig) -> tuple[dict, int]:
    check = poisson_identity_check(config.N, config.extra.get("tail"))
    ok = check.gap <= check.tail_bound
    payload = {
        "rows": [
            {
                "N": config.N,
                "lhs": check.lhs,
                "rhs": check.rhs,
                "gap": check.gap,
                "tail_bound": check.tail_bound,
                "terms": check.terms,
            }
        ],
        "within_tail_bound": ok,
    }
    return payload, EXIT_OK if ok else EXIT_ASSERTION


def _cmd_gauss(config: RunConfig) -> tuple[dict, int]:
    q, k = config.Q, config.k
    table = build_character_table(q, k)
    expected = q ** (k / 2)
    rows = []
    violations = 0
    for j in range(len(table)):
        g = gauss_sum(table, j)
        prim = bool(table.primitive[j])
        if prim and abs(abs(g.value) - expected) > 1e-9 * max(1.0, expected):
            violations += 1
        rows.append(
            {
                "index": j,
                "primitive": prim,
                "gauss_re": g.value.real,
                "gauss_im": g.value.imag,
                "gauss_abs": abs(g.value),
            }
        )
    payload = {
        "rows": rows,
        "characters": len(table),
        "primitive_count": int(table.primitive.sum()),
        "violations": violations,
    }
    return payload, EXIT_ASSERTION if violations else EXIT_OK


def _cmd_transfer(config: RunConfig) -> tuple[dict, int]:
    rng = np.random.default_rng(config.seed)
    seq = rng.standard_normal(config.N) + 1j * rng.standard_normal(config.N)
    lhs, rhs = mult_transfer_check(config.Q, config.k, seq)
    ok = lhs <= rhs * (1 + 1e-9) + 1e-9
    payload = {
        "rows": [{"q": config.Q, "k": config.k, "N": config.N, "lhs": lhs, "rhs": rhs}],
        "inequality_holds": ok,
    }
    return payload, EXIT_OK if ok else EXIT_ASSERTION


_COMMANDS = {
    "table1": _cmd_table1,
    "spacing": _cmd_spacing,
    "conjecture": _cmd_conjecture,
    "sieve-ratio": _cmd_sieve_ratio,
    "bounds": _cmd_bounds,
    "weyl": _cmd_weyl,
    "poisson": _cmd_poisson,
    "gauss": _cmd_gauss,
    "transfer": _cmd_transfer,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out", default=None)


@functools.cache  # built once per process: a parse leaves no state on the parser
def build_parser() -> _Parser:
    parser = _Parser(prog="powersieve", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("table1", parents=[], help="quadratic-denominator scan table")
    p.add_argument("--q-max", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("spacing", help="one spacing count M_k(Q, N)")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--engine", choices=("fast", "brute"), default="fast")
    _add_common(p)

    p = sub.add_parser("conjecture", help="scan Q range at N = Q**(k+1)")
    p.add_argument("--q-min", type=int, default=1)
    p.add_argument("--q-max", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("sieve-ratio", help="lambda_max against the bound catalog")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("bounds", help="evaluate the closed-form bound catalog")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("weyl", help="differencing bound tightness rows")
    p.add_argument("--alpha", required=True, help="leading coefficient, e.g. 1/7")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--start", type=int, default=1)
    _add_common(p)

    p = sub.add_parser("poisson", help="truncated kernel summation identity")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tail", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("gauss", help="Gauss sums of all characters mod q**k")
    p.add_argument("--Q", "--q", dest="Q", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("transfer", help="multiplicative-to-additive transfer")
    p.add_argument("--Q", "--q", dest="Q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    _add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    extra = {}
    for key in ("engine", "alpha", "n_min", "start", "tail"):
        if hasattr(args, key) and getattr(args, key) is not None:
            extra[key] = getattr(args, key)
    return RunConfig(
        subcommand=args.subcommand,
        Q=getattr(args, "Q", None),
        q_min=getattr(args, "q_min", None),
        q_max=getattr(args, "q_max", None),
        k=args.k,
        N=getattr(args, "N", None),
        epsilon=args.epsilon,
        seed=args.seed,
        format=args.format,
        cache_dir=args.cache_dir or os.environ.get(CACHE_ENV),
        out=args.out,
        extra=extra,
    )


def run(config: RunConfig) -> int:
    """Dispatch a run; returns the process exit status."""
    handler = _COMMANDS.get(config.subcommand)
    if handler is None:
        print(f"powersieve: unknown subcommand {config.subcommand!r}", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        payload, status = handler(config)
        _emit(config, payload, time.perf_counter() - start)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"powersieve {config.subcommand}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())

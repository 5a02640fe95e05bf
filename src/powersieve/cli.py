"""Command-line front end: every experiment as a reproducible subcommand.

Each subcommand takes only the flags its handler reads, declared once in
``build_parser``; handlers read the parsed namespace.  Reports echo those
flags (the ones with a value) in their header, so any output can be
regenerated from its own header.  ``sieve-ratio --seed`` is the one flag
accepted and ignored.  JSON is the canonical format; CSV is provided for
table diffing.  Exit codes: 0 success, 1 usage, guard or file-system error,
2 an assertable invariant was violated by the computation.

``table1`` is the quadratic scan statistic: the spacing count over S(Q, 2)
at N = Q**3, that is 2 * ||x - x'|| < Q**-3.  Handlers pass each set to the
spacing and scan entry points, which read Q and k off it; ``sieve-ratio``
passes Q, N and k alone and enumerates no set.

Fraction sets are cached per (Q, k) in a cache directory (``--cache-dir`` or
POWERSIEVE_CACHE_DIR, on table1, spacing and conjecture): the file holds the
lower half below 1/2, as a set holds it, and reading it certifies that half.
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
from typing import Optional

import numpy as np

from . import __version__
# gauss_sum, exp_sum and weyl_bound are unused here; perfbench/spans.py patches them by name
from .characters import (TRANSFER_TERMS_GUARD, build_character_table, gauss_sum,
                         mult_transfer_check)
from .expsum import (PolynomialPhase, exp_sum, exp_sum_prefixes, poisson_identity_check,
                     weyl_bound, weyl_bounds, weyl_kappa)
from .rationals import FractionSet, _checked_size, enumerate_set
from .sieve import SieveBoundViolation, bound_catalog, sieve_ratio_experiment
from .spacing import check_spacing, conjecture_scan, spacing_count_bruteforce, spacing_count_fast

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2

CACHE_ENV = "POWERSIEVE_CACHE_DIR"


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
    path = os.path.join(cache_dir, f"fracset_Q{Q}_k{k}.half.bin")
    if os.path.exists(path):
        fs = FractionSet.read_cache(path)  # certified to be S(fs.Q, fs.k)
        if (fs.Q, fs.k) != (Q, k):
            raise ValueError(f"{path}: cache holds S({fs.Q}, {fs.k}), not S({Q}, {k})")
        return fs
    fs = enumerate_set(Q, k)
    fs.write_cache(path)
    return fs


def _cached_sets(q_min: int, q_max: int, k: int, cache_dir: Optional[str]):
    """S(Q, k) for Q = q_min..q_max, one at a time, the range refused before
    the first set: size and width grow with Q, so S(q_max, k) is refused first."""
    if q_min < 1 or q_max < q_min:
        raise ValueError(f"bad scan range [{q_min}, {q_max}]")
    _checked_size(q_max, k)
    return (_cached_set(Q, k, cache_dir) for Q in range(q_min, q_max + 1))


# Top-level lists of dicts (rows, bounds) hold flat dicts of scalars.  With indent=2's
# separator between a row's items, one C-encoder call lays out a whole list; escaped strings
# hold no newline, so "},<sep>{" occurs only between rows, the one boundary laid out by hand.
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_parts(doc: dict) -> list[str]:
    """json.dumps(doc, indent=2) + "\n" in pieces, each top-level list of dicts
    spliced in from ``_ROWS_ENCODER``: the indent=2 encoder is pure Python and
    costs more than most handlers' computing."""
    lists = {k: v for k, v in doc.items() if isinstance(v, list) and v and isinstance(v[0], dict)}
    parts, text = [], json.dumps({**doc, **dict.fromkeys(lists, [])}, indent=2)
    for key, rows in lists.items():
        slot = f"\n  {json.dumps(key)}: ["
        head, text = text.split(slot + "]")
        body = _ROWS_ENCODER.encode(rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        parts += [head, slot + "\n    {\n      ", body, "\n    }\n  ]"]
    return [*parts, text, "\n"]


def _emit(args: argparse.Namespace, payload: dict, wall: float) -> None:
    header = {
        "tool": "powersieve",
        "version": __version__,
        "config": {k: v for k, v in vars(args).items() if v is not None},
        "wall_time_s": round(wall, 6),
    }
    if args.format == "json":
        parts = _json_parts({"header": header, **payload})
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
        parts = [buf.getvalue()]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _cmd_table1(args: argparse.Namespace) -> tuple[dict, int]:
    # map holds no set while the next is built: one set of the range is alive at a time
    counts = map(lambda fs: spacing_count_fast(fs, fs.Q ** 3),
                 _cached_sets(1, args.q_max, 2, args.cache_dir))
    return {"rows": [{"Q": row["Q"], "M": row["M"]} for row in counts]}, EXIT_OK


def _cmd_spacing(args: argparse.Namespace) -> tuple[dict, int]:
    brute = args.engine == "brute"  # both refusals come before the set is built
    check_spacing(args.N, _checked_size(args.Q, args.k), brute)
    engine = spacing_count_bruteforce if brute else spacing_count_fast
    return {"rows": [engine(_cached_set(args.Q, args.k, args.cache_dir), args.N)]}, EXIT_OK


def _cmd_conjecture(args: argparse.Namespace) -> tuple[dict, int]:
    return conjecture_scan(_cached_sets(args.q_min, args.q_max, args.k, args.cache_dir)), EXIT_OK


def _cmd_sieve_ratio(args: argparse.Namespace) -> tuple[dict, int]:
    try:
        rec = sieve_ratio_experiment(args.Q, args.N, args.k, args.epsilon)
    except SieveBoundViolation as exc:
        return {"error": str(exc)}, EXIT_ASSERTION
    return rec, EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> tuple[dict, int]:
    return {"rows": bound_catalog(args.Q, args.N, args.k, args.epsilon)}, EXIT_OK


def _cmd_weyl(args: argparse.Namespace) -> tuple[dict, int]:
    n_min = args.N if args.n_min is None else args.n_min
    if not 1 <= n_min <= args.N:
        raise ValueError(f"need 1 <= --n-min <= --N = {args.N}, got --n-min {n_min}")
    kappa = weyl_kappa(args.k, args.N)  # at the largest N, before the phase is formed
    try:
        phase = PolynomialPhase.monomial(args.alpha, args.k)
    except ZeroDivisionError:
        raise ValueError(f"--alpha {args.alpha} has a zero denominator") from None
    # one differencing pass at the largest N: its cell guard refuses the range before any term
    bounds = weyl_bounds(phase, (args.start, args.N), n_min)
    powers = [abs(S) ** kappa for S in exp_sum_prefixes(phase, (args.start, args.N), n_min)]
    rows = [{"N": N, "S_pow_kappa": s, "bound": b, "ratio": s / b}
            for N, s, b in zip(range(n_min, args.N + 1), powers, bounds)]
    violations = sum(s > b * (1 + 1e-12) for s, b in zip(powers, bounds))
    return {"rows": rows, "violations": violations}, EXIT_ASSERTION if violations else EXIT_OK


def _cmd_poisson(args: argparse.Namespace) -> tuple[dict, int]:
    row = poisson_identity_check(args.N, args.tail)
    ok = row["gap"] <= row["tail_bound"]
    return {"rows": [row], "within_tail_bound": ok}, EXIT_OK if ok else EXIT_ASSERTION


def _cmd_gauss(args: argparse.Namespace) -> tuple[dict, int]:
    q, k = args.Q, args.k
    table = build_character_table(q, k)
    expected = q ** (k / 2)
    gauss = table.gauss.tolist()
    primitive = table.primitive.tolist()
    gauss_abs = [abs(g) for g in gauss]  # np.abs can differ from abs in the last bit
    tol = 1e-9 * max(1.0, expected)
    violations = sum(p and abs(a - expected) > tol for p, a in zip(primitive, gauss_abs))
    rows = [{"index": j, "primitive": p, "gauss_re": g.real, "gauss_im": g.imag, "gauss_abs": a}
            for j, (p, g, a) in enumerate(zip(primitive, gauss, gauss_abs))]
    payload = {
        "rows": rows,
        "characters": len(table),
        "primitive_count": int(table.primitive.sum()),
        "violations": violations,
    }
    return payload, EXIT_ASSERTION if violations else EXIT_OK


def _cmd_transfer(args: argparse.Namespace) -> tuple[dict, int]:
    if args.N < 1:
        raise ValueError(f"the sequence needs N >= 1 terms, got N = {args.N}")
    if args.N > TRANSFER_TERMS_GUARD:
        raise ValueError(f"the sequence has N = {args.N} terms, over the guard "
                         f"{TRANSFER_TERMS_GUARD}")
    rng = np.random.default_rng(args.seed)
    seq = rng.standard_normal(args.N) + 1j * rng.standard_normal(args.N)
    lhs, rhs = mult_transfer_check(args.Q, args.k, seq)
    ok = lhs <= rhs * (1 + 1e-9) + 1e-9
    payload = {
        "rows": [{"q": args.Q, "k": args.k, "N": args.N, "lhs": lhs, "rhs": rhs}],
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


@functools.cache  # built once per process: a parse leaves no state on the parser
def build_parser() -> _Parser:
    """The one place a flag is declared: each subcommand gets the parent
    parsers of the flags its handler reads, and --format/--out."""

    def flag(*names, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    output = flag("--format", choices=("csv", "json"), default="json")
    output.add_argument("--out", default=None)
    Q = flag("--Q", type=int, required=True)
    q = flag("--Q", "--q", dest="Q", type=int, required=True)
    N = flag("--N", type=int, required=True)
    k = flag("--k", type=int, default=2)
    epsilon = flag("--epsilon", type=float, default=0.0)
    seed = flag("--seed", type=int, default=0,
                help="seed of transfer's input; sieve-ratio accepts and ignores it")
    cache = flag("--cache-dir", default=None, help=f"default: ${CACHE_ENV}")

    parser = _Parser(prog="powersieve", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, help: str, *parents) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=[*parents, output])

    p = command("table1", "quadratic-denominator scan table", cache)
    p.add_argument("--q-max", type=int, required=True)

    p = command("spacing", "one spacing count M_k(Q, N)", Q, N, k, cache)
    p.add_argument("--engine", choices=("fast", "brute"), default="fast")

    p = command("conjecture", "scan Q range at N = Q**(k+1)", k, cache)
    p.add_argument("--q-min", type=int, default=1)
    p.add_argument("--q-max", type=int, required=True)

    command("sieve-ratio", "lambda_max against the bound catalog", Q, N, k, epsilon, seed)
    command("bounds", "evaluate the closed-form bound catalog", Q, N, k, epsilon)

    p = command("weyl", "differencing bound tightness rows", N, k)
    p.add_argument("--alpha", required=True, help="leading coefficient, e.g. 1/7")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--start", type=int, default=1)

    p = command("poisson", "truncated kernel summation identity", N)
    p.add_argument("--tail", type=int, default=None)

    command("gauss", "Gauss sums of all characters mod q**k", q, k)
    command("transfer", "multiplicative-to-additive transfer", q, N, k, seed)
    return parser


def run(args: argparse.Namespace) -> int:
    """Dispatch a parsed run; returns the process exit status."""
    start = time.perf_counter()
    try:
        payload, status = _COMMANDS[args.subcommand](args)
        _emit(args, payload, time.perf_counter() - start)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"powersieve {args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if "cache_dir" in vars(args):
        args.cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

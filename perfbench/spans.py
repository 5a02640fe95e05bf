"""Per-layer tracing for the benchmark: spans around calls into each module.

The wrappers live here, not in the package.  Each one replaces a public name
in every module namespace that looks it up at call time (``cli`` imports
``enumerate_set`` by name, ``spacing`` calls ``neighbor_counts_sorted`` as a
module global, and so on), records a span, and hands the call through
unchanged, so traced payloads are byte-identical to untraced ones.

A span's time counts once per outermost span of that name (``arith``
functions call each other); its self time is its duration minus the part
its child spans cover.  Spans are timed in process CPU time, as the
end-to-end ``norm_cpu_s`` is before its normalisation, so a layer's share
of a pass adds up.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.time = defaultdict(float)       # inclusive, outermost per name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []                     # [name, start, child_time]

    def enter(self, name):
        self.calls[name] += 1
        self._stack.append([name, time.process_time(), 0.0])

    def leave(self):
        name, start, child = self._stack.pop()
        dur = time.process_time() - start
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if all(frame[0] != name for frame in self._stack):
            self.time[name] += dur

    def wrap(self, name, fn, count=None):
        """``fn`` inside span ``name``; ``count(tracer, args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if count is not None:
                count(self, args, result)
            return result

        return traced


def _count_enumerate(tr, args, fs):
    tr.counts["rationals.points"] += len(fs)


def _count_cache_read(tr, args, fs):
    tr.counts["rationals.cache_read_bytes"] += os.path.getsize(args[0])


def _count_cache_write(tr, args, result):
    tr.counts["rationals.cache_write_bytes"] += os.path.getsize(args[1])


def _count_sorted(tr, args, counts):
    tr.counts["spacing.sorted_points"] += len(counts)


def _count_brute(tr, args, counts):
    tr.counts["spacing.brute_pairs"] += len(counts) ** 2


def _count_lambda(tr, args, spec):
    inst = args[0]
    tr.counts["sieve.iterations"] += spec.iterations
    tr.counts["sieve.gram_cells"] += inst.K * inst.N


def _count_table(tr, args, table):
    tr.counts["characters.table_cells"] += table.values.size


def _count_exp_sum(tr, args, value):
    tr.counts["expsum.exp_sum_terms"] += args[1][1]


def install(tracer):
    """Patch every traced name; returns an undo list for ``uninstall``."""
    from powersieve import arith, characters, cli, expsum, rationals, sieve, spacing

    FractionSet = rationals.FractionSet
    SieveInstance = sieve.SieveInstance
    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_name(modules, attr, span, count=None):
        wrapped = tracer.wrap(span, getattr(modules[0], attr), count)
        for mod in modules:
            if attr in mod.__dict__:
                patch(mod, attr, wrapped)

    patch_name([rationals, cli, spacing], "enumerate_set", "rationals.enumerate", _count_enumerate)
    patch(FractionSet, "read_cache", staticmethod(
        tracer.wrap("rationals.cache_read", FractionSet.read_cache, _count_cache_read)))
    patch(FractionSet, "write_cache", tracer.wrap(
        "rationals.cache_write", FractionSet.write_cache, _count_cache_write))
    patch(FractionSet, "denominators", tracer.wrap(
        "rationals.denominators", FractionSet.denominators))

    patch_name([spacing], "neighbor_counts_sorted", "spacing.sorted", _count_sorted)
    patch_name([spacing], "neighbor_counts_bruteforce", "spacing.brute", _count_brute)
    patch_name([cli], "conjecture_scan", "spacing.scan")
    patch_name([cli], "spacing_count_fast", "spacing.count")
    patch_name([cli], "spacing_count_bruteforce", "spacing.count")

    patch_name([cli], "sieve_ratio_experiment", "sieve.experiment")
    patch(SieveInstance, "from_fraction_set", staticmethod(
        tracer.wrap("sieve.instance", SieveInstance.from_fraction_set)))
    patch_name([sieve], "gram_lambda_max", "sieve.lambda", _count_lambda)
    patch_name([cli, sieve], "bound_catalog", "sieve.bounds")

    patch_name([cli, characters], "build_character_table", "characters.table", _count_table)
    patch_name([cli], "gauss_sum", "characters.gauss")
    patch_name([cli], "mult_transfer_check", "characters.transfer")

    patch_name([cli], "weyl_bound", "expsum.weyl")
    patch_name([cli], "exp_sum", "expsum.exp_sum", _count_exp_sum)
    patch_name([cli], "poisson_identity_check", "expsum.poisson")

    for attr in ("factorize", "totient", "coprime_residues",
                 "unit_group_generators", "primitive_root_odd_prime_power"):
        patch_name([arith, characters, rationals], attr, "arith")
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(tr, report_bytes):
    """The per-layer metrics of one traced pass (``trace.overhead_s`` aside)."""

    def rate(num, den):
        return num / den if den > 0 else 0.0

    hits = tr.calls["rationals.cache_read"]
    misses = tr.calls["rationals.cache_write"]
    m = {
        "rationals.enumerate_s": tr.time["rationals.enumerate"],
        "rationals.enumerate_calls": tr.calls["rationals.enumerate"],
        "rationals.points": tr.counts["rationals.points"],
        "rationals.cache_write_s": tr.time["rationals.cache_write"],
        "rationals.cache_write_bytes": tr.counts["rationals.cache_write_bytes"],
        "rationals.cache_read_s": tr.time["rationals.cache_read"],
        "rationals.cache_read_bytes": tr.counts["rationals.cache_read_bytes"],
        "rationals.denominators_calls": tr.calls["rationals.denominators"],
        "cli.cache_hits": hits,
        "cli.cache_misses": misses,
        "cli.cache_hit_ratio": rate(hits, hits + misses),
        "spacing.sorted_s": tr.time["spacing.sorted"],
        "spacing.sorted_calls": tr.calls["spacing.sorted"],
        "spacing.sorted_points": tr.counts["spacing.sorted_points"],
        "spacing.brute_s": tr.time["spacing.brute"],
        "spacing.brute_pairs": tr.counts["spacing.brute_pairs"],
        "spacing.scan_self_s": tr.self_time["spacing.scan"],
        "sieve.instance_s": tr.time["sieve.instance"],
        "sieve.lambda_s": tr.time["sieve.lambda"],
        "sieve.iterations": tr.counts["sieve.iterations"],
        "sieve.gram_cells": tr.counts["sieve.gram_cells"],
        "characters.table_s": tr.time["characters.table"],
        "characters.tables": tr.calls["characters.table"],
        "characters.table_cells": tr.counts["characters.table_cells"],
        "characters.gauss_s": tr.time["characters.gauss"],
        "characters.gauss_calls": tr.calls["characters.gauss"],
        "characters.transfer_s": tr.time["characters.transfer"],
        "expsum.weyl_s": tr.time["expsum.weyl"],
        "expsum.weyl_calls": tr.calls["expsum.weyl"],
        "expsum.exp_sum_s": tr.time["expsum.exp_sum"],
        "expsum.exp_sum_terms": tr.counts["expsum.exp_sum_terms"],
        "expsum.poisson_s": tr.time["expsum.poisson"],
        "arith.s": tr.time["arith"],
        "arith.calls": tr.calls["arith"],
        "cli.self_s": tr.self_time["cli"],
        "cli.report_bytes": report_bytes,
    }
    m["rationals.points_per_s"] = rate(m["rationals.points"], m["rationals.enumerate_s"])
    m["spacing.sorted_points_per_s"] = rate(m["spacing.sorted_points"], m["spacing.sorted_s"])
    m["spacing.brute_pairs_per_s"] = rate(m["spacing.brute_pairs"], m["spacing.brute_s"])
    m["sieve.iteration_ms"] = rate(1000.0 * m["sieve.lambda_s"], m["sieve.iterations"])
    return m

"""Self-tests of the benchmark's failure accounting, tracing and counters.

    python3 perfbench/selftest.py

Takes about a minute: it runs one untraced and one traced pass of three
workloads twice.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import unittest

import run

run.load_program()
import spans  # noqa: E402  (needs the package path set up by run)
import workloads  # noqa: E402
from powersieve import cli  # noqa: E402
from powersieve.rationals import expected_cardinality  # noqa: E402
from powersieve.sieve import ConvergenceError  # noqa: E402


class BenchTestCase(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK_DIR, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=run.WORK_DIR)
        self.fx = workloads.load_fixtures()

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)


class FailureAccounting(BenchTestCase):
    def test_payload_off_by_one_is_a_failure(self):
        experiments = workloads.prepare("oracle", 0, self.fx, os.path.join(self.work, "warm"))
        exps = [e for e in experiments(self.work) if e.key.startswith("spacing --Q 12 --k 2 ")]
        *_, outcomes = run.timed_pass(exps)
        clean = run.Verifier(self.fx)
        clean.verify(exps, outcomes)
        self.assertEqual((clean.attempted, clean.failures), (len(exps), []))

        status, out, err = outcomes[-1]          # a fast-engine report
        doc = json.loads(out)
        doc["rows"][0]["M"] += 1
        outcomes[-1] = (status, json.dumps(doc), err)
        corrupted = run.Verifier(self.fx)
        corrupted.verify(exps, outcomes)
        self.assertEqual(corrupted.attempted, len(exps))
        self.assertEqual([key for key, _ in corrupted.failures], [exps[-1].key])

    def test_raised_exceptions_are_failures_and_not_retried(self):
        calls = []

        def raising(*args, **kwargs):
            calls.append(args)
            raise (ConvergenceError(1.0, 5) if len(calls) == 1 else MemoryError())

        exps = [workloads.Experiment(f"sieve-ratio {i}", ["sieve-ratio", "--Q", "2", "--N", "8"],
                                     None) for i in range(2)]
        original = cli.sieve_ratio_experiment
        cli.sieve_ratio_experiment = raising
        try:
            *_, outcomes = run.timed_pass(exps)
        finally:
            cli.sieve_ratio_experiment = original
        verifier = run.Verifier(self.fx)
        verifier.verify(exps, outcomes)
        self.assertEqual(len(calls), 2)
        self.assertEqual(verifier.attempted, 2)
        self.assertEqual([m.split(":")[0] for _, m in verifier.failures],
                         ["raised ConvergenceError", "raised MemoryError"])


class TracedCounts(BenchTestCase):
    def traced_run(self, name, seed=3):
        args = argparse.Namespace(workload=name, seed=seed, seconds=0.0, trace=1)
        work = tempfile.mkdtemp(dir=self.work)
        metrics, passes, verifier = run.run_workload(args, work)
        self.assertEqual(verifier.failures, [])
        self.assertEqual([len(v) for v in passes.values()], [1, 0, 1, 1, 1, 1, 1, 0, 0])
        return metrics

    def test_enumerated_points_match_closed_form(self):
        m = self.traced_run("scan")
        expected = (sum(expected_cardinality(Q, 2) for Q in range(1, workloads.SCAN_Q_MAX + 1))
                    + sum(expected_cardinality(Q, 3)
                          for Q in range(1, workloads.SCAN_K3_Q_MAX + 1)))
        self.assertEqual(m["rationals.points"], expected)
        self.assertEqual((m["cli.cache_hits"], m["cli.cache_misses"]),
                         (workloads.SCAN_Q_MAX, workloads.SCAN_Q_MAX))

    def test_counts_repeat_at_a_fixed_seed(self):
        for name, counter in (("oracle", "spacing.brute_pairs"),
                              ("sieve", "sieve.iterations"),
                              ("charsums", "characters.table_cells")):
            with self.subTest(workload=name):
                first, second = self.traced_run(name)[counter], self.traced_run(name)[counter]
                self.assertGreater(first, 0)
                self.assertEqual(first, second)

    def test_tracing_restores_every_patched_name(self):
        before = {id(getattr(cli, n)) for n in ("enumerate_set", "conjecture_scan", "gauss_sum")}
        undo = spans.install(spans.Tracer())
        spans.uninstall(undo)
        after = {id(getattr(cli, n)) for n in ("enumerate_set", "conjecture_scan", "gauss_sum")}
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()

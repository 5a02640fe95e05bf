"""CLI integration: exit codes, formats, determinism, caching, and the README contract."""

import argparse
import ast
import csv
import importlib
import io
import json
import os
import pathlib
import re
import shlex
import struct
import sys
import time

import numpy as np
import pytest

from powersieve import __version__, cli, expsum, sieve
from powersieve.cli import (
    EXIT_ASSERTION,
    EXIT_OK,
    EXIT_USAGE,
    _cached_set,
    build_parser,
    main,
)
from powersieve.characters import build_character_table, gauss_sum
from powersieve.rationals import FractionSet, expected_cardinality


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def payload_of(out: str) -> dict:
    doc = json.loads(out)
    doc["header"].pop("wall_time_s")
    return doc


class TestExitCodes:
    def test_success(self, capsys):
        code, _ = run_cli(["spacing", "--Q", "2", "--N", "1000"], capsys)
        assert code == EXIT_OK

    def test_usage_error_bad_value(self, capsys):
        assert main(["table1", "--q-max", "0"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(["conjecture", "--q-min", "5", "--q-max", "4"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "powersieve conjecture: bad scan range [5, 4]\n"

    def test_usage_error_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["spacing", "--definitely-not-a-flag", "1"])
        assert err.value.code == EXIT_USAGE

    def test_usage_error_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == EXIT_USAGE

    def test_one_parser_serves_successive_calls(self, capsys):
        # the parser is built once per process: a refused parse must leave
        # nothing behind for the calls that follow it
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as err:
            main(["spacing", "--Q", "3", "--N", "27", "--engine", "slow"])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'slow'" in captured.err
        code, out = run_cli(["spacing", "--Q", "3", "--N", "27", "--engine", "brute"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["header"]["config"]["engine"] == "brute"
        assert (doc["rows"][0]["M"], doc["rows"][0]["set_size"]) == (2, 40)
        code, out = run_cli(["bounds", "--Q", "2", "--N", "16"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        # the echo is flat and holds exactly the subcommand's flags
        assert doc["header"]["config"] == {
            "subcommand": "bounds", "Q": 2, "N": 16, "k": 2, "epsilon": 0.0, "format": "json"
        }
        assert "per_q_exact" in [r["name"] for r in doc["rows"]]

    def test_brute_engine_at_a_threshold_denominator_past_int32(self, capsys):
        # the oracle's int16 cells never meet t_den = 2 * 10**10: it is clamped
        # to max(u) dmax**2 + 1, past which every floor is 0
        rows = {}
        for engine in ("brute", "fast"):
            argv = ["spacing", "--Q", "2", "--k", "2", "--N", "10000000000", "--engine", engine]
            code, out = run_cli(argv, capsys)
            assert code == EXIT_OK
            rows[engine] = json.loads(out)["rows"][0]["M"]
        assert rows["brute"] == rows["fast"] == 0

    def test_table1_refuses_k_other_than_2(self, capsys):
        # table1 is the k = 2 statistic and takes no --k at all
        for k in ("2", "3", "4"):
            with pytest.raises(SystemExit) as err:
                main(["table1", "--q-max", "2", "--k", k])
            assert err.value.code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: --k {k}" in captured.err

    def test_guard_violation_maps_to_usage(self, capsys):
        # basis guard: the start vector and the FFT buffers, seven vectors of
        # N = 2 * 10**7 floats, are over 1 GiB; refused before any is formed
        assert main(["sieve-ratio", "--Q", "40", "--N", str(2 * 10 ** 7)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("powersieve sieve-ratio: a Lanczos run keeping 1 vector(s) of "
                                "length N = 20000000 holds 1120000000 bytes with its FFT buffers, "
                                "over the basis guard 1073741824; reduce Q or N\n")
        # symbol width: (2Q)**(k+2) = 2**63 at Q = 1, k = 61
        assert main(["sieve-ratio", "--Q", "1", "--N", "4", "--k", "61"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "powersieve sieve-ratio: q**k = 2**63 has at least 64 bits, more than 63: the symbol "
            "of S(1, 61) sums terms up to (2Q)**(k+2)/2, which needs (2Q)**(k+2) < 2**63 for "
            "int64\n")

    def test_assertion_exit_on_violated_check(self, capsys, monkeypatch):
        # force a fake ceiling violation through the transfer inequality path
        import powersieve.cli as cli_mod

        def broken(q, k, seq, M=0):
            return 2.0, 1.0

        monkeypatch.setattr(cli_mod, "mult_transfer_check", broken)
        code, _ = run_cli(["transfer", "--q", "3", "--N", "5"], capsys)
        assert code == EXIT_ASSERTION

    def test_sieve_ratio_over_its_asserted_bound_exits_2(self, capsys, monkeypatch):
        # ten times the Gram form of S(2, 2) at N = 8 has lambda >= 10 K = 140,
        # over per_q_exact = 39, the catalog's assertable row; the residual
        # check passes, since the scaled matvec is a Hermitian operator too
        matvec = sieve._toeplitz_matvec
        monkeypatch.setattr(sieve, "_toeplitz_matvec", lambda c: (lambda x, G=matvec(c): 10 * G(x)))
        assert main(["sieve-ratio", "--Q", "2", "--N", "8"]) == EXIT_ASSERTION
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = payload_of(captured.out)
        assert set(payload) == {"header", "error"}
        lam = float(re.fullmatch(r"lambda_max (\S+) exceeds the per_q_exact bound 39\.0",
                                 payload["error"])[1])
        assert lam >= 140


class TestReports:
    def test_json_payload_shape(self, capsys):
        code, out = run_cli(["spacing", "--Q", "2", "--N", "1000"], capsys)
        doc = json.loads(out)
        assert doc["header"]["tool"] == "powersieve"
        assert doc["header"]["config"]["subcommand"] == "spacing"
        assert doc["rows"][0]["M"] == 0

    def test_csv_format(self, capsys):
        code, out = run_cli(
            ["table1", "--q-max", "3", "--format", "csv"], capsys
        )
        assert code == EXIT_OK
        body = [line for line in out.splitlines() if not line.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(body))))
        assert [(r["Q"], r["M"]) for r in rows] == [("1", "0"), ("2", "1"), ("3", "2")]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_cli(
            ["bounds", "--Q", "2", "--N", "16", "--out", str(target)], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        doc = json.loads(target.read_text())
        names = [r["name"] for r in doc["rows"]]
        assert "per_q_exact" in names

    def test_determinism_modulo_wall_time(self, capsys):
        _, out1 = run_cli(["sieve-ratio", "--Q", "2", "--N", "8", "--seed", "5"], capsys)
        _, out2 = run_cli(["sieve-ratio", "--Q", "2", "--N", "8", "--seed", "5"], capsys)
        assert payload_of(out1) == payload_of(out2)

    def test_config_echo_roundtrip(self, capsys):
        _, out = run_cli(["conjecture", "--q-min", "2", "--q-max", "4"], capsys)
        cfg = json.loads(out)["header"]["config"]
        assert cfg["q_min"] == 2 and cfg["q_max"] == 4
        _, out = run_cli(["transfer", "--q", "3", "--N", "5", "--seed", "9"], capsys)
        cfg = json.loads(out)["header"]["config"]
        assert cfg["Q"] == 3 and cfg["N"] == 5 and cfg["seed"] == 9


EVERY_SUBCOMMAND = [
    ["table1", "--q-max", "6"],
    ["spacing", "--Q", "3", "--k", "3", "--N", "81", "--engine", "brute"],
    ["conjecture", "--q-min", "2", "--q-max", "5"],
    ["sieve-ratio", "--Q", "2", "--N", "8"],
    ["bounds", "--Q", "3", "--N", "20", "--k", "3"],
    ["weyl", "--alpha=-3/97", "--k", "3", "--N", "30", "--n-min", "20", "--start", "-4"],
    ["poisson", "--N", "12"],
    ["gauss", "--q", "9", "--k", "3"],
    ["transfer", "--q", "5", "--N", "20", "--seed", "1"],
]


def indent2(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


class TestJsonLayout:
    """JSON reports are json.dumps(doc, indent=2) byte for byte, each top-level
    list of dicts (rows, bounds) spliced in from one C-encoder call."""

    def test_every_subcommand_is_listed(self):
        assert {argv[0] for argv in EVERY_SUBCOMMAND} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_stdout_and_out_file_are_indent2(self, argv, tmp_path, capsys):
        code, out = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert out == indent2(json.loads(out))
        target = tmp_path / "report.json"
        assert run_cli([*argv, "--out", str(target)], capsys) == (EXIT_OK, "")
        text = target.read_text(encoding="utf-8")
        assert text == indent2(json.loads(text))
        # the same bytes but for the wall time and the echo of --out itself
        text = text.replace(f',\n      "out": {json.dumps(str(target))}', "")
        wall = re.compile(r'"wall_time_s": [0-9.e-]+')
        assert wall.sub("", text) == wall.sub("", out)

    @staticmethod
    def emitted(payload, tmp_path, capsys, **config):
        args = argparse.Namespace(subcommand="test", format="json", out=None, **config)
        cli._emit(args, payload, 0.25)
        out = capsys.readouterr().out
        args.out = str(tmp_path / "report.json")
        cli._emit(args, payload, 0.25)
        header = {"tool": "powersieve", "version": __version__,
                  "config": {k: v for k, v in vars(args).items() if v is not None},
                  "wall_time_s": 0.25}
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == indent2(
            {"header": header, **payload})
        del header["config"]["out"]
        return out, indent2({"header": header, **payload})

    @pytest.mark.parametrize("payload", [
        {"rows": [{"text": '},\n      {"a": 1}, {', "quote": '"\\"', "comma": ",",
                   "brace": "}{", "note": "Gau\u00df \u2211 \U0001d4e0 \u00e9\n\t"},
                  {"text": "\n    },\n    {\n      ", "quote": "'", "comma": ", ",
                   "brace": "{}", "note": ""}]},
        {"rows": [{"x": float("nan"), "y": float("inf"), "z": -float("inf"), "w": -0.0},
                  {"x": 1e-320, "y": 1.7976931348623157e308, "z": 0.1, "w": -2}],
         "fit": {"intercept": float("nan"), "slope": 1.5}},
        {"rows": [{"index": 0, "primitive": False, "gauss_re": 1.0, "label": None}]},
        {"rows": [{"M": 3}]},
        {"rows": [{"M": 3}, {"M": 4}, {"Q": 5}], "running_max": [3, 4],
         "fit": {"rows": [], "slope": 0.5}},
        {"rows": [], "violations": 0},
        {"error": "no rows at all"},
        {"Q": 2, "bounds": [{"name": "a", "value": float("inf"), "assertable": True},
                            {"name": "b", "value": 2.0, "assertable": False}],
         "running_max": [3, 4], "rows": [{"M": 1}], "last": [{"note": '\n  "rows": []'}]},
    ], ids=["strings", "nonfinite", "one_row", "one_key_row", "one_key_rows", "empty_rows",
            "no_rows", "lists_of_dicts"])
    def test_hand_made_payloads(self, payload, tmp_path, capsys):
        out, expected = self.emitted(payload, tmp_path, capsys)
        assert out == expected

    def test_config_string_that_spells_the_rows_slot(self, tmp_path, capsys):
        payload = {"rows": [{"a": 1}, {"a": 2}]}
        out, expected = self.emitted(payload, tmp_path, capsys, label='\n  "rows": []')
        assert out == expected


class TestCsvLayout:
    """A CSV report holds the JSON rows as text and each other key as a
    ``# key: json`` line."""

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_csv_matches_json(self, argv, capsys):
        code, out = run_cli(argv, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        code, out = run_cli([*argv, "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        body = [line for line in lines if not line.startswith("#")]
        rows = doc.get("rows", [])
        assert list(csv.reader(body[:1])) == [list(rows[0])] if rows else body == []
        assert list(csv.DictReader(body)) == [{k: str(v) for k, v in r.items()} for r in rows]
        for key, val in doc.items():
            if key not in ("header", "rows"):
                assert f"# {key}: {json.dumps(val, sort_keys=True)}" in lines


class TestSubcommands:
    def test_sieve_ratio_past_twice_the_set_size(self, capsys, monkeypatch):
        # N = 20000 >= 2|S(10, 2)| = 3056, and K*N past the gram guard: Lanczos
        # on the (Q, k) symbol solves it, and no FractionSet is built
        def refuse(*args, **kwargs):
            raise AssertionError("FractionSet built by sieve-ratio")

        monkeypatch.setattr(cli, "enumerate_set", refuse)
        monkeypatch.setattr(FractionSet, "__init__", refuse)
        code, out = run_cli(["sieve-ratio", "--Q", "10", "--N", "20000"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["lambda_max"] == pytest.approx(39539.05118682, rel=1e-10, abs=0)
        assert doc["residual"] <= 1e-10 * doc["lambda_max"]

    def test_weyl_rows_and_validity(self, capsys):
        code, out = run_cli(
            ["weyl", "--alpha", "1/7", "--k", "3", "--N", "12", "--n-min", "8"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert [r["N"] for r in doc["rows"]] == list(range(8, 13))
        for r in doc["rows"]:
            assert r["S_pow_kappa"] <= r["bound"]

    @pytest.mark.parametrize("n_min", ["0", "13"])
    def test_weyl_refuses_n_min_outside_1_to_N(self, capsys, n_min):
        argv = ["weyl", "--alpha", "1/7", "--k", "3", "--N", "12", "--n-min", n_min]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"powersieve weyl: need 1 <= --n-min <= --N = 12, got --n-min {n_min}" in (
            captured.err
        )

    def test_weyl_refuses_a_zero_denominator(self, capsys):
        assert main(["weyl", "--alpha", "1/0", "--k", "2", "--N", "5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "powersieve weyl: --alpha 1/0 has a zero denominator\n"

    def test_weyl_refuses_before_it_sums(self, capsys):
        # the bound's first round would form 19,999,999 product cells; the
        # 2*10**7-term exp_sum is never started
        start = time.process_time()
        argv = ["weyl", "--alpha", "1/7", "--k", "2", "--N", "20000000", "--n-min", "20000000"]
        assert main(argv) == EXIT_USAGE
        assert time.process_time() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("powersieve weyl: at k=2, N=20000000 a differencing round "
                                "forms 19999999 product cells, over the guard 10000000; "
                                "reduce k or N\n")

    @pytest.mark.parametrize("argv,message", [
        (["--Q", "150", "--N", "0"], "N must be >= 1, got 0"),
        (["--Q", "40", "--k", "3", "--N", "10", "--engine", "brute"],
         "|S| = 5961042 exceeds the brute-force guard (50000); use spacing_count_fast"),
    ])
    def test_spacing_refuses_before_it_enumerates(self, argv, message, tmp_path, capsys,
                                                  monkeypatch):
        # S(150, 2) and S(40, 3) have millions of points; neither is built nor cached
        def unbuilt(*args):
            raise AssertionError("the set was built before the refusal")

        monkeypatch.setattr(cli, "enumerate_set", unbuilt)
        monkeypatch.setattr(FractionSet, "write_cache", unbuilt)
        assert main(["spacing", *argv, "--cache-dir", str(tmp_path / "cache")]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"powersieve spacing: {message}\n"
        assert expected_cardinality(40, 3) == 5961042

    @pytest.mark.parametrize("argv", [["--N", "10000000"], ["--N", "12", "--tail", "1000000000"]])
    def test_poisson_refuses_past_its_term_guard(self, capsys, argv):
        start = time.process_time()
        assert main(["poisson", *argv]) == EXIT_USAGE
        assert time.process_time() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("powersieve poisson: the truncated sum has T = 1000000000 "
                                "terms; it needs 1000 <= T <= 10000000\n")

    def test_poisson_refusal_names_the_guard(self, capsys, monkeypatch):
        # the stderr line formats the guard, so a smaller one is the one it names
        monkeypatch.setattr(expsum, "POISSON_TERMS_GUARD", 10 ** 6)
        assert main(["poisson", "--N", "1", "--tail", "5000000"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("powersieve poisson: the truncated sum has T = 5000000 "
                                "terms; it needs 1000 <= T <= 1000000\n")

    @pytest.mark.parametrize("subcommand", ["bounds", "sieve-ratio"])
    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_refused(self, capsys, subcommand, epsilon):
        assert main([subcommand, "--Q", "2", "--N", "8", f"--epsilon={epsilon}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"powersieve {subcommand}: need Q, N >= 1, k >= 2, "
                                f"finite epsilon >= 0; got Q=2, N=8, k=2, "
                                f"epsilon={float(epsilon)}\n")

    @pytest.mark.parametrize("subcommand", ["bounds", "sieve-ratio"])
    @pytest.mark.parametrize("Q, N, k", [(3, 27, 1), (0, 27, 2), (3, 0, 2)])
    def test_out_of_range_parameters_refused_as_given(self, capsys, subcommand, Q, N, k):
        argv = [subcommand, "--Q", str(Q), "--N", str(N), "--k", str(k)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"powersieve {subcommand}: need Q, N >= 1, k >= 2, "
                                f"finite epsilon >= 0; got Q={Q}, N={N}, k={k}, epsilon=0.0\n")

    @pytest.mark.parametrize("subcommand, epsilon", [("bounds", "2000"), ("sieve-ratio", "700")])
    def test_epsilon_past_float_range_refused(self, capsys, subcommand, epsilon):
        assert main([subcommand, "--Q", "2", "--N", "8", "--epsilon", epsilon]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"powersieve {subcommand}: the weyl_dyadic bound at Q=2, N=8, "
                                f"k=2, epsilon={float(epsilon)} leaves float range\n")

    @pytest.mark.parametrize("N", ["0", "-1"])
    def test_transfer_refuses_an_empty_sequence(self, capsys, monkeypatch, N):
        monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("drew terms"))
        assert main(["transfer", "--q", "3", "--N", N]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"powersieve transfer: the sequence needs N >= 1 terms, "
                                f"got N = {N}\n")

    def test_transfer_refuses_past_its_term_guard(self, capsys, monkeypatch):
        # refused before any generator is made, so no term is drawn
        monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("drew terms"))
        assert main(["transfer", "--q", "3", "--N", str(10 ** 10)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("powersieve transfer: the sequence has N = 10000000000 terms, "
                                "over the guard 10000000\n")

    def test_poisson_within_bound(self, capsys):
        code, out = run_cli(["poisson", "--N", "4"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["within_tail_bound"] is True

    def test_gauss_summary(self, capsys):
        code, out = run_cli(["gauss", "--q", "5"], capsys)
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["characters"] == 20  # phi(25)
        assert doc["primitive_count"] == 16
        assert doc["violations"] == 0

    @pytest.mark.parametrize("q,k", [(1, 2), (2, 2), (8, 2), (31, 2), (9, 3)])
    def test_gauss_rows_are_gauss_sums(self, q, k, capsys):
        code, out = run_cli(["gauss", "--q", str(q), "--k", str(k)], capsys)
        assert code == EXIT_OK
        table = build_character_table(q, k)
        rows = []
        for j in range(len(table)):
            g = gauss_sum(table, j)
            rows.append({"index": j, "primitive": bool(table.primitive[j]),
                         "gauss_re": g.real, "gauss_im": g.imag, "gauss_abs": abs(g)})
        assert json.loads(out)["rows"] == rows

    def test_transfer_ok(self, capsys):
        code, out = run_cli(["transfer", "--q", "5", "--N", "20", "--seed", "1"], capsys)
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["inequality_holds"] is True
        row = doc["rows"][0]
        assert row["lhs"] <= row["rhs"] * (1 + 1e-9)

    def test_conjecture_scan_payload(self, capsys):
        code, out = run_cli(["conjecture", "--q-max", "6"], capsys)
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["running_max"] == max(r["M"] for r in doc["rows"])
        assert {"Q", "M", "M_open", "witness_a", "witness_q", "ratio"} <= set(
            doc["rows"][0]
        )


class TestFileSystemErrors:
    def test_out_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        assert main(["bounds", "--Q", "2", "--N", "16", "--out", str(target)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("powersieve bounds: ")
        assert str(target) in captured.err and "Traceback" not in captured.err
        assert not target.parent.exists()

    def test_cache_dir_under_regular_file(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("not a directory")
        cache = plain / "cache"
        argv = ["spacing", "--Q", "2", "--N", "8", "--cache-dir", str(cache)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("powersieve spacing: ")
        assert str(plain) in captured.err and "Traceback" not in captured.err


class TestCache:
    def test_cache_file_created_and_reused(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["spacing", "--Q", "4", "--N", "64", "--cache-dir", str(cache)]
        code, out1 = run_cli(argv, capsys)
        assert code == EXIT_OK
        cached = list(cache.glob("fracset_Q4_k2.half.bin"))
        assert len(cached) == 1
        stamp = cached[0].stat().st_mtime_ns
        code, out2 = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert cached[0].stat().st_mtime_ns == stamp  # reused, not rewritten
        assert payload_of(out1) == payload_of(out2)

    def test_cache_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POWERSIEVE_CACHE_DIR", str(tmp_path / "envcache"))
        code, _ = run_cli(["spacing", "--Q", "3", "--N", "27"], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "envcache" / "fracset_Q3_k2.half.bin").exists()

    def test_renamed_foreign_cache_rejected(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["spacing", "--Q", "3", "--N", "27", "--cache-dir", str(cache)]) == EXIT_OK
        (cache / "fracset_Q3_k2.half.bin").rename(cache / "fracset_Q4_k2.half.bin")
        with pytest.raises(ValueError, match="S\\(3, 2\\)"):
            _cached_set(4, 2, str(cache))
        argv = ["spacing", "--Q", "4", "--N", "64", "--cache-dir", str(cache)]
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("keep", [20, -16])
    def test_truncated_cache_rejected(self, tmp_path, capsys, keep):
        cache = tmp_path / "cache"
        argv = ["spacing", "--Q", "3", "--N", "27", "--cache-dir", str(cache)]
        assert main(argv) == EXIT_OK
        path = cache / "fracset_Q3_k2.half.bin"
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated"):
            _cached_set(3, 2, str(cache))
        assert main(argv) == EXIT_USAGE

    def test_swapped_cache_records_rejected(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["spacing", "--Q", "3", "--N", "27", "--cache-dir", str(cache)]
        assert main(argv) == EXIT_OK
        path = cache / "fracset_Q3_k2.half.bin"
        data = bytearray(path.read_bytes())
        head = len(data) - 16 * (expected_cardinality(3, 2) // 2)  # L's (a, q) u64 pairs
        first, second = data[head:head + 16], data[head + 16:head + 32]
        data[head:head + 32] = second + first
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: cache records are not strictly increasing" in captured.err

    @pytest.mark.parametrize("argv", [["spacing", "--Q", "3", "--N", "27"],
                                      ["conjecture", "--q-min", "3", "--q-max", "3"],
                                      ["table1", "--q-max", "3"]])
    @pytest.mark.parametrize("i, a, q", [(8, 8, 6), (0, 1, 7), (19, 37, 6)])
    def test_cache_with_non_member_record_refused(self, tmp_path, capsys, argv, i, a, q):
        # each record of L (the file's 20 records) keeps its order: non-reduced
        # 8/6**2, base 7 outside (3, 6], numerator 37 past 6**2 at L's last record
        cache = tmp_path / "cache"
        argv = [*argv, "--cache-dir", str(cache)]
        assert main(argv) == EXIT_OK
        path = cache / "fracset_Q3_k2.half.bin"
        data = bytearray(path.read_bytes())
        at = len(data) - 16 * (expected_cardinality(3, 2) // 2 - i)  # L's (a, q) u64 pairs
        data[at:at + 16] = struct.pack("<QQ", a, q)
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"powersieve {argv[0]}: {path}: cache record {i}, "
                                f"{a}/{q}**2, is not in S(3, 2) below 1/2\n")

    def test_huge_header_count_refused_before_records_are_read(self, tmp_path, capsys,
                                                                monkeypatch):
        cache = tmp_path / "cache"
        argv = ["spacing", "--Q", "3", "--N", "27", "--cache-dir", str(cache)]
        assert main(argv) == EXIT_OK
        path = cache / "fracset_Q3_k2.half.bin"
        data = bytearray(path.read_bytes())
        data[8:32] = struct.pack("<QQQ", 3, 2, 10 ** 12)  # after the 8-byte magic
        path.write_bytes(bytes(data))
        reads = []
        fromfile = np.fromfile

        def spy(*args, **kwargs):
            reads.append(kwargs.get("count"))
            return fromfile(*args, **kwargs)

        monkeypatch.setattr(np, "fromfile", spy)
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        assert reads == []
        assert capsys.readouterr().err == (f"powersieve spacing: {path}: header counts "
                                           f"1000000000000 points, S(3, 2) has 40\n")

    def test_earlier_format_file_neither_read_nor_overwritten(self, tmp_path, capsys):
        # a whole-set PWFRSET1 file at the name the earlier format used, with
        # records that would fail any read: the run never opens it
        cache = tmp_path / "cache"
        cache.mkdir()
        old = cache / "fracset_Q3_k2.bin"
        data = b"PWFRSET1" + struct.pack("<QQQ", 3, 2, 40) + bytes(16 * 40)
        old.write_bytes(data)
        stamp = old.stat().st_mtime_ns
        argv = ["spacing", "--Q", "3", "--N", "27"]
        code, cold = run_cli([*argv, "--cache-dir", str(cache)], capsys)
        assert code == EXIT_OK
        code, warm = run_cli([*argv, "--cache-dir", str(cache)], capsys)
        assert code == EXIT_OK
        code, uncached = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert payload_of(cold) == payload_of(warm)
        assert json.loads(cold)["rows"] == json.loads(uncached)["rows"]
        assert old.read_bytes() == data and old.stat().st_mtime_ns == stamp
        assert sorted(p.name for p in cache.iterdir()) == ["fracset_Q3_k2.bin",
                                                           "fracset_Q3_k2.half.bin"]

    def test_cache_write_leaves_no_temporary(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["spacing", "--Q", "2", "--N", "8", "--cache-dir", str(cache)]) == EXIT_OK
        assert [p.name for p in cache.iterdir()] == ["fracset_Q2_k2.half.bin"]


# every subcommand also takes --format and --out
FLAGS = {
    "table1": "--q-max --cache-dir",
    "spacing": "--Q --N --k --engine --cache-dir",
    "conjecture": "--q-min --q-max --k --cache-dir",
    "sieve-ratio": "--Q --N --k --epsilon --seed",
    "bounds": "--Q --N --k --epsilon",
    "weyl": "--alpha --N --n-min --start --k",
    "poisson": "--N --tail",
    "gauss": "--Q --q --k",
    "transfer": "--Q --q --N --k --seed",
}

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
SRC = pathlib.Path(cli.__file__).parent


def subparsers():
    (action,) = [a for a in build_parser()._actions if a.dest == "subcommand"]
    return action.choices


def parser_flags() -> dict:
    """Each subcommand's option strings, --format and --out included."""
    return {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, p in subparsers().items()}


class TestFlagSets:
    def test_each_subcommand_takes_exactly_its_flags(self):
        assert parser_flags() == {name: set(f"{flags} --format --out".split())
                                  for name, flags in FLAGS.items()}

    @pytest.mark.parametrize("argv", [
        ["poisson", "--N", "4", "--k", "3"],
        ["gauss", "--q", "3", "--cache-dir", "d"],
        ["bounds", "--Q", "2", "--N", "16", "--seed", "1"],
        ["weyl", "--alpha", "1/7", "--N", "5", "--epsilon", "0.1"],
        ["conjecture", "--q-max", "3", "--seed", "1"],
        ["sieve-ratio", "--Q", "2", "--N", "8", "--cache-dir", "d"],
    ])
    def test_removed_flag_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    def test_sieve_ratio_accepts_and_echoes_seed(self, capsys):
        code, out = run_cli(["sieve-ratio", "--Q", "2", "--N", "8", "--seed", "7"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["header"]["config"]["seed"] == 7

    def test_readme_examples_parse(self):
        with open(README, encoding="utf-8") as fh:
            lines = [line.split("#")[0] for line in fh if line.startswith("powersieve ")]
        assert len(lines) == len(FLAGS)
        for line in lines:
            args = build_parser().parse_args(shlex.split(line)[1:])
            assert args.subcommand in FLAGS


def readme_section(title: str) -> str:
    """The text of README's ``## title`` section."""
    with open(README, encoding="utf-8") as fh:
        return fh.read().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def table_rows(section: str) -> dict:
    """The cells of each body row of the tables in ``section``, keyed by the
    first cell with its backticks stripped."""
    rows, body = {}, False
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if body and cells:
            rows[cells[0].strip("`")] = cells
        body = bool(cells) and (body or set(cells[0]) == {"-"})
    return rows


def spelled_int(text: str) -> int:
    """The integer a README cell such as `5 * 10**7` or `50_000` spells."""
    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return value(node.left) * value(node.right)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return value(node.left) ** value(node.right)
        raise ValueError(f"not an integer product of powers: {text}")
    return value(ast.parse(text.strip("`"), mode="eval").body)


class TestReadmeContract:
    """README states the user's contract; these pin it to the code."""

    def test_command_table_lists_exactly_each_subcommands_flags(self):
        section = readme_section("Command line")
        # --format and --out are stated once, for every subcommand
        assert "Every subcommand also takes `--format csv|json` (default json) and " \
            "`--out FILE`" in " ".join(section.split())
        table = {name: set(re.findall(r"--[A-Za-z][\w-]*", cells[1]))
                 for name, cells in table_rows(section).items()}
        assert {name: flags | {"--format", "--out"} for name, flags in table.items()} \
            == parser_flags()

    def test_layout_lists_every_module(self):
        listing = readme_section("Layout").split("src/powersieve/\n", 1)[1]
        listed = []
        for line in listing.splitlines():
            if not line.startswith("  "):
                break
            listed.append(line.split()[0])
        assert sorted(listed) == sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")

    def test_guard_table_holds_every_guard_at_its_value(self):
        rows = table_rows(readme_section("Guards"))
        named = {name: cells for name, cells in rows.items() if "." in name}
        for name, (_, value, _, exit_code) in named.items():
            module, constant = name.split(".")
            assert getattr(importlib.import_module(f"powersieve.{module}"), constant) \
                == spelled_int(value), name
            assert exit_code in ("1", "none: library only"), name
        # every public module-level GUARD, MAX or _BYTES constant in the package has its row
        declared = {f"{path.stem}.{target.id}"
                    for path in SRC.glob("*.py")
                    for node in ast.parse(path.read_text(encoding="utf-8")).body
                    if isinstance(node, ast.Assign)
                    for target in node.targets
                    if isinstance(target, ast.Name) and not target.id.startswith("_")
                    and re.search(r"GUARD|MAX|_BYTES$", target.id)}
        assert set(named) == declared
        assert {"int64 columns", "oracle cells", "symbol width", "float range"} <= set(rows)

    def test_help_prints_the_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == EXIT_OK
        out = capsys.readouterr().out
        for code in (EXIT_OK, EXIT_USAGE, EXIT_ASSERTION):
            assert re.search(rf"^  {code}  \w", out, re.M), code
        assert cli.CACHE_ENV in out


class TestWidthGuards:
    @pytest.mark.parametrize("argv,message", [
        (["spacing", "--Q", "1", "--k", "5000", "--N", "1"],
         "q**k = 2**5000 has at least 5001 bits, more than 31: S(1, 5000) is too wide"),
        (["spacing", "--Q", "1", "--k", "15000", "--N", "1"],
         "q**k = 2**15000 has at least 15001 bits, more than 31: S(1, 15000) is too wide"),
        (["gauss", "--q", "1000", "--k", "3000000"],
         "modulus 1000**3000000 (about 29897353 bits) exceeds the guard 1000000"),
        (["bounds", "--Q", "1000", "--N", "1", "--k", "300000"],
         "q**k = 1000000**300000 has at least 5700001 bits, more than 1024: "
         "the bounds at Q=1000, k=300000 need Q**(2k) inside float range"),
        # 4**512 has exactly 1025 bits, one past the budget it is refused for
        (["bounds", "--Q", "2", "--N", "1", "--k", "512"],
         "q**k = 4**512 has at least 1025 bits, more than 1024: "
         "the bounds at Q=2, k=512 need Q**(2k) inside float range"),
        # refused from k alone, before a phase of 10**7 coefficients is formed
        (["weyl", "--alpha", "1/7", "--k", "10000000", "--N", "5"],
         "k = 10000000: the differencing bound's 2**(2*kappa), kappa = 2**(k-1), "
         "leaves float range (2**1024) past k = 9"),
        # inside the int64 width rule, refused from its closed-form count
        (["spacing", "--Q", "5000", "--N", "1"],
         "S(5000, 2) has 177316520402 points, more than the budget 10000000"),
        # the rows' |S|**kappa and majorant need (4N)**kappa inside float range
        (["weyl", "--alpha", "1/7", "--k", "9", "--N", "20", "--n-min", "20"],
         "q**k = 80**256 has at least 1537 bits, more than 1024: at k=9, N=20 the "
         "differencing bound needs (4N)**kappa, kappa = 2**(k-1), inside float range"),
        # the second differencing round would hold 3999 x 3999 product cells
        (["weyl", "--alpha", "1/7", "--k", "4", "--N", "4000", "--n-min", "4000"],
         "at k=4, N=4000 a differencing round forms 15992001 product cells, "
         "over the guard 10000000; reduce k or N"),
        # a scan range is refused at its last, largest set before the first is made
        (["conjecture", "--q-min", "45", "--q-max", "46", "--k", "3"],
         "S(46, 3) has 10385352 points, more than the budget 10000000"),
        (["table1", "--q-max", "192"],
         "S(192, 2) has 10080808 points, more than the budget 10000000"),
        # so is a weyl range: rows from N = 1 pass the guard up to N = 10**7 + 1
        # (k=2) or 3163 (k=3), and the largest N's bound is evaluated first
        (["weyl", "--alpha", "1/7", "--k", "2", "--N", "20000000", "--n-min", "1"],
         "at k=2, N=20000000 a differencing round forms 19999999 product cells, "
         "over the guard 10000000; reduce k or N"),
        (["weyl", "--alpha", "1/7", "--k", "3", "--N", "5000", "--n-min", "1"],
         "at k=3, N=5000 a differencing round forms 24990001 product cells, "
         "over the guard 10000000; reduce k or N"),
    ])
    def test_refused_before_the_power_is_formed(self, argv, message, capsys):
        start = time.process_time()
        assert main(argv) == EXIT_USAGE
        assert time.process_time() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"powersieve {argv[0]}: {message}")


class TestBenchmarkTracing:
    """The benchmark's tracer (perfbench/spans.py) wraps package names by
    name, so a rename or deletion of one fails here as well as in the
    benchmark's own, much slower, self-tests."""

    def test_every_traced_name_is_patched_and_restored(self, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
        spans = importlib.import_module("spans")
        before = dict(vars(cli))
        undo = spans.install(spans.Tracer())
        spans.uninstall(undo)
        patched = {attr for owner, attr, _ in undo if owner is cli}
        assert {"enumerate_set", "conjecture_scan", "gauss_sum", "weyl_bound", "spacing_count_fast",
                "spacing_count_bruteforce", "sieve_ratio_experiment"} <= patched
        assert dict(vars(cli)) == before
        for owner, attr, original in undo:
            assert vars(owner)[attr] is original

    def test_the_scan_engine_calls_are_traced(self, monkeypatch, capsys):
        # three calls from table1, three from conjecture and one from spacing:
        # the spacing.sorted_* metrics read the engine through the name spans.py patches
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
        spans = importlib.import_module("spans")
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            for argv in (["table1", "--q-max", "3"], ["conjecture", "--q-max", "3"],
                         ["spacing", "--Q", "3", "--N", "27"]):
                assert main(argv) == EXIT_OK
        finally:
            spans.uninstall(undo)
        capsys.readouterr()
        metrics = spans.layer_metrics(tracer, 0)
        assert metrics["spacing.sorted_calls"] == 7
        assert metrics["spacing.sorted_s"] > 0

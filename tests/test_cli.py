"""CLI integration: exit codes, formats, determinism, caching."""

import copy
import csv
import io
import json
import sys

import pytest

from powersieve.cli import (
    EXIT_ASSERTION,
    EXIT_OK,
    EXIT_USAGE,
    _cached_set,
    build_parser,
    main,
)
from powersieve.rationals import expected_cardinality


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
        assert doc["header"]["config"]["extra"] == {"engine": "brute"}
        assert (doc["rows"][0]["M"], doc["rows"][0]["set_size"]) == (2, 40)
        code, out = run_cli(["bounds", "--Q", "2", "--N", "16"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["header"]["config"]["subcommand"] == "bounds"
        assert doc["header"]["config"]["extra"] == {}
        assert "per_q_exact" in [r["name"] for r in doc["rows"]]

    def test_table1_refuses_k_other_than_2(self, capsys):
        for k in ("3", "4"):
            assert main(["table1", "--q-max", "2", "--k", k]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"table1 is the k = 2 statistic, got --k {k}" in captured.err

    def test_guard_violation_maps_to_usage(self, capsys):
        # gram guard: K*N too large
        assert main(["sieve-ratio", "--Q", "40", "--N", "1000000"]) == EXIT_USAGE

    def test_assertion_exit_on_violated_check(self, capsys, monkeypatch):
        # force a fake ceiling violation through the transfer inequality path
        import powersieve.cli as cli_mod

        def broken(q, k, seq, M=0, table=None):
            return 2.0, 1.0

        monkeypatch.setattr(cli_mod, "mult_transfer_check", broken)
        code, _ = run_cli(["transfer", "--q", "3", "--N", "5"], capsys)
        assert code == EXIT_ASSERTION


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
        _, out = run_cli(
            ["conjecture", "--q-min", "2", "--q-max", "4", "--seed", "9"], capsys
        )
        cfg = json.loads(out)["header"]["config"]
        assert cfg["q_min"] == 2 and cfg["q_max"] == 4 and cfg["seed"] == 9


class TestSubcommands:
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
        cached = list(cache.glob("fracset_Q4_k2.bin"))
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
        assert (tmp_path / "envcache" / "fracset_Q3_k2.bin").exists()

    def test_renamed_foreign_cache_rejected(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["spacing", "--Q", "3", "--N", "27", "--cache-dir", str(cache)]) == EXIT_OK
        (cache / "fracset_Q3_k2.bin").rename(cache / "fracset_Q4_k2.bin")
        with pytest.raises(ValueError, match="S\\(3, 2\\)"):
            _cached_set(4, 2, str(cache))
        argv = ["spacing", "--Q", "4", "--N", "64", "--cache-dir", str(cache)]
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("keep", [20, -16])
    def test_truncated_cache_rejected(self, tmp_path, capsys, keep):
        cache = tmp_path / "cache"
        argv = ["spacing", "--Q", "3", "--N", "27", "--cache-dir", str(cache)]
        assert main(argv) == EXIT_OK
        path = cache / "fracset_Q3_k2.bin"
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated"):
            _cached_set(3, 2, str(cache))
        assert main(argv) == EXIT_USAGE

    def test_swapped_cache_records_rejected(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["spacing", "--Q", "3", "--N", "27", "--cache-dir", str(cache)]
        assert main(argv) == EXIT_OK
        path = cache / "fracset_Q3_k2.bin"
        data = bytearray(path.read_bytes())
        head = len(data) - 16 * expected_cardinality(3, 2)  # (a, q) u64 pairs
        first, second = data[head:head + 16], data[head + 16:head + 32]
        data[head:head + 32] = second + first
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: cache records are not strictly increasing" in captured.err

    def test_cache_write_leaves_no_temporary(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["spacing", "--Q", "2", "--N", "8", "--cache-dir", str(cache)]) == EXIT_OK
        assert [p.name for p in cache.iterdir()] == ["fracset_Q2_k2.bin"]

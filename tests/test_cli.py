"""Command line entry points, output formats and exit codes."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import dtcodes
from dtcodes import GF, double_toeplitz_code, parse_triple, weight_enumerator
from dtcodes import reference_data, search, verify
from dtcodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_code_minwt_negacirculant(capsys):
    code, out, err = run(capsys, "code", "--q", "3", "--nc", "(1,2,1,1,1,0)", "--minwt")
    assert code == 0
    assert json.loads(out) == 6
    assert "[12,6] code over F3" in err


def test_code_minwt_trivial_circulant(capsys):
    code, out, _ = run(capsys, "code", "--q", "2", "--dc", "(0)", "--minwt")
    assert code == 0
    assert json.loads(out) == 1


def test_code_minwt_quaternary(capsys):
    code, out, _ = run(capsys, "code", "--q", "4", "--dc", "(1,w)", "--minwt")
    assert code == 0
    assert json.loads(out) == 3


def test_code_wenum_matches_library(capsys):
    gf = GF(2)
    literal = "0;(1,1);(1,0)"
    code, out, _ = run(capsys, "code", "--q", "2", "--dt", literal, "--wenum")
    assert code == 0
    W = weight_enumerator(double_toeplitz_code(parse_triple(gf, literal)))
    assert json.loads(out) == list(W.coeffs)


def test_code_dual_is_orthogonal(capsys):
    code, out, _ = run(capsys, "code", "--q", "3", "--dc", "(1,2)", "--dual")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 4 and blob["k"] == 2
    assert len(blob["rows"]) == 2


def test_code_fsd(capsys):
    code, out, _ = run(capsys, "code", "--q", "2", "--dt", "1;(0,1);(1,1)", "--fsd")
    assert code == 0
    assert json.loads(out) is True


def test_code_usage_errors(capsys):
    # argparse rejects a missing family / action with exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["code", "--q", "2", "--minwt"])
    assert exc.value.code == 2
    capsys.readouterr()
    # a malformed literal is our own usage failure, same exit code
    code, _, err = run(capsys, "code", "--q", "2", "--dt", "garbage", "--minwt")
    assert code == 2
    assert "error" in err


def test_awe_coefficients(capsys):
    code, out, _ = run(capsys, "awe", "--q", "2", "--n", "2")
    assert code == 0
    assert json.loads(out) == [2, 1, 1]


def test_awe_verify(capsys):
    code, _, err = run(capsys, "awe", "--q", "3", "--n", "6", "--verify")
    assert code == 0
    assert "matches enumeration" in err


def test_awe_threshold(capsys):
    code, out, _ = run(capsys, "awe", "--q", "2", "--threshold", "--d", "6")
    assert code == 0
    assert json.loads(out) == 40
    code, _, err = run(capsys, "awe", "--q", "2", "--threshold")
    assert code == 2


def test_awe_table_csv(capsys):
    code, out, _ = run(capsys, "awe", "--q", "3", "--table", "--dmin", "5", "--dmax", "7")
    assert code == 0
    assert out.splitlines() == ["d,n", "5,20", "6,26", "7,32"]


def test_awe_odd_length_rejected(capsys):
    code, _, err = run(capsys, "awe", "--q", "2", "--n", "7")
    assert code == 2
    assert "even" in err


def test_search_find_optimal(capsys):
    code, out, err = run(capsys, "search", "--q", "2", "--n", "4", "--mode", "find-optimal")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(rec["min_weight"] == 2 for rec in lines)
    assert "optimum d=2" in err
    # C2 keeps the filtered optimal triples only
    keys = {(rec["t"], rec["a"], rec["b"]) for rec in lines}
    assert ("1", "(0)", "(1)") not in keys
    assert ("1", "(1)", "(0)") in keys


def test_search_family_rows(capsys):
    code, out, _ = run(capsys, "search", "--q", "3", "--n", "4", "--family", "nc")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert all(rec["mu"] == -1 and rec["min_weight"] == 3 for rec in recs)


def test_search_collect_at(capsys):
    code, out, _ = run(
        capsys, "search", "--q", "2", "--n", "6", "--reduction", "none",
        "--mode", "collect-at", "--d", "3",
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs and all(rec["min_weight"] == 3 for rec in recs)


def test_search_budget_exit(capsys):
    code, _, err = run(capsys, "search", "--q", "2", "--n", "12", "--budget", "100")
    assert code == 3
    assert "budget exceeded" in err


def test_search_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("DTCODES_WORKERS", "2")
    code, out, _ = run(capsys, "search", "--q", "2", "--n", "6", "--partitions", "2")
    assert code == 0
    monkeypatch.setenv("DTCODES_WORKERS", "zero")
    code, _, err = run(capsys, "search", "--q", "2", "--n", "6")
    assert code == 2
    assert "DTCODES_WORKERS" in err


@pytest.mark.parametrize("command", ["search", "classify"])
def test_negative_workers_exit_2(capsys, command):
    code, out, err = run(capsys, command, "--q", "2", "--n", "6", "--workers", "-3")
    assert code == 2
    assert out == ""
    assert "workers must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--q", "3", "--n", "4", "--mode", "find-optimal", "--d", "3"),
        ("--q", "2", "--n", "4", "--family", "dc", "--reduction", "C2"),
        ("--q", "3", "--n", "4", "--family", "nc", "--reduction", "C3"),
    ],
)
def test_ignored_search_inputs_exit_2(capsys, argv):
    code, out, err = run(capsys, "search", *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_classify_json(capsys):
    code, out, err = run(capsys, "classify", "--q", "2", "--n", "12")
    assert code == 0
    blob = json.loads(out)
    assert blob["d"] == 4
    assert blob["counts"] == {"dt_only": 4, "dc": 4, "nc": 0}
    assert len(blob["classes"]) == 8
    assert "4 + 4 + 0 classes" in err


def test_classify_semimonomial_off_f4_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(search, "search_dt", lambda *a, **k: pytest.fail("searched"))
    code, out, err = run(capsys, "classify", "--q", "2", "--n", "8", "--semimonomial")
    assert code == 2
    assert out == ""
    assert "F4 only" in err


def test_verify_tables_awe_suite(capsys):
    code, out, err = run(capsys, "verify-tables", "--suite", "awe-oracle")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"suite": "awe-oracle", "checks": 8, "failures": 0}
    assert err.count("[pass]") == 8


@pytest.mark.parametrize("suite, checks", [("generators", 393), ("thresholds", 138)])
def test_verify_tables_recorded_suites(capsys, suite, checks):
    code, out, err = run(capsys, "verify-tables", "--suite", suite)
    assert code == 0
    assert json.loads(out) == {"suite": suite, "checks": checks, "failures": 0}
    assert err.count("[pass]") == checks


def _recorded_report(gf, n, wrong_at=None):
    d = reference_data.OPTIMAL_MIN_WEIGHT[gf.q][n]
    n_dt, n_dc, n_nc = reference_data.CLASS_COUNTS[gf.q][n]
    if (gf.q, n) == wrong_at:
        n_dt += 1
    return SimpleNamespace(d_opt=d, n_dt=n_dt, n_dc=n_dc, n_nc=n_nc)


def test_verify_tables_thresholds_suite_catches_a_wrong_value(capsys, monkeypatch):
    monkeypatch.setitem(reference_data.GUARANTEED_LENGTH[3], 6, 28)
    code, out, err = run(capsys, "verify-tables", "--suite", "thresholds")
    assert code == 1
    assert json.loads(out) == {"suite": "thresholds", "checks": 138, "failures": 1}
    assert "[FAIL] n_3(6) = 28 (got 26)" in err


def test_verify_tables_classification_suite_counts_its_checks(capsys, monkeypatch):
    # a stand-in for classify keeps this fast; the suite's own grid has 10 cells
    monkeypatch.setattr(verify, "classify", _recorded_report)
    code, out, err = run(capsys, "verify-tables", "--suite", "classification-small")
    assert code == 0
    assert json.loads(out) == {"suite": "classification-small", "checks": 10, "failures": 0}
    assert err.count("[pass]") == 10
    monkeypatch.setattr(verify, "classify", lambda gf, n: _recorded_report(gf, n, wrong_at=(3, 6)))
    code, out, err = run(capsys, "verify-tables", "--suite", "classification-small")
    assert code != 0
    assert json.loads(out)["checks"] == 10
    assert "1 of 10 checks failed" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_console_entry_point():
    # the child imports the same dtcodes as this process, installed or not
    src = os.path.dirname(os.path.dirname(dtcodes.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dtcodes.cli", "awe", "--q", "4", "--n", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [64, 24, 180, 432, 324]

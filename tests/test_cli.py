"""Command line entry points, output formats and exit codes."""

import hashlib
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


# (--q, family flag, literal, action) -> exit code, stdout, stderr, as
# printed before the code literals went through reference_data.build_code
_CODE_LITERALS = [
    (("2", "--dc", "(1,1,0)", "--minwt"), 0, "3\n",
     "[6,3] code over F2: minimum weight 3\n"),
    (("2", "--nc", "(1,1,0)", "--wenum"), 0, "[1, 0, 0, 4, 3, 0, 0]\n",
     "[6,3] code over F2: weight enumerator with 8 codewords\n"),
    (("3", "--nc", "(1,2,1,1,1,0)", "--minwt"), 0, "6\n",
     "[12,6] code over F3: minimum weight 6\n"),
    (("4", "--dc", "(1,w)", "--wenum"), 0, "[1, 0, 0, 12, 3]\n",
     "[4,2] code over F4: weight enumerator with 16 codewords\n"),
    (("2", "--dt", "0;(1,1);(1,0)", "--wenum"), 0, "[1, 0, 1, 3, 2, 1, 0]\n",
     "[6,3] code over F2: weight enumerator with 8 codewords\n"),
    (("2", "--dc", "1,1", "--minwt"), 2, "",
     "error: vector literal must be parenthesised: '1,1'\n"),
    (("2", "--dc", "()", "--minwt"), 2, "",
     "error: first row must be nonempty\n"),
    (("2", "--nc", "(1,2)", "--minwt"), 2, "",
     "error: unknown F2 element token '2'\n"),
    (("2", "--dt", "C:(1,1)", "--minwt"), 2, "",
     "error: triple literal must have three ';'-separated parts: 'C:(1,1)'\n"),
    (("2", "--dt", "N:0;(1);(1)", "--minwt"), 2, "",
     "error: unknown F2 element token 'N:0'\n"),
    (("2", "--dc", "(1,2)", "--minwt"), 2, "",
     "error: unknown F2 element token '2'\n"),
    (("2", "--dt", "2;(1);(0)", "--minwt"), 2, "",
     "error: unknown F2 element token '2'\n"),
    (("3", "--dc", "C:(1,2)", "--minwt"), 2, "",
     "error: vector literal must be parenthesised: 'C:(1,2)'\n"),
]


@pytest.mark.parametrize(
    "argv,code,out,err", _CODE_LITERALS, ids=[" ".join(case[0][:3]) for case in _CODE_LITERALS]
)
def test_code_literals_keep_their_output(capsys, argv, code, out, err):
    q, family, literal, action = argv
    assert run(capsys, "code", "--q", q, family, literal, action) == (code, out, err)


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


@pytest.mark.parametrize("dmin,dmax", [("49", "52"), ("0", "3"), ("5", "4")])
def test_awe_table_range_rejected_before_output(capsys, dmin, dmax):
    # a range past the supported d = 50 fails up front, not after printing rows
    code, out, err = run(capsys, "awe", "--q", "2", "--table", "--dmin", dmin, "--dmax", dmax)
    assert code == 2
    assert out == ""
    assert "dmax <= 50" in err


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


# at-least runs: (extra options, records, records of weight 4, sha256 prefix of stdout),
# recorded when each at-least attainer's weight came from its own minimum_weight call
@pytest.mark.parametrize("argv,count,above,digest", [
    (("--q", "4", "--n", "6"), 216, 6, "30f95118158dbd6e"),
    (("--family", "nc", "--q", "3", "--n", "8"), 72, 16, "1afbfb61d4a2c2a6"),
])
def test_search_at_least_output_is_pinned(capsys, argv, count, above, digest):
    code, out, err = run(capsys, "search", *argv, "--mode", "at-least", "--d", "3")
    assert code == 0
    assert err == f"floor d=3: {count} codes\n"
    weights = [json.loads(line)["min_weight"] for line in out.splitlines()]
    assert (len(weights), weights.count(4), set(weights)) == (count, above, {3, 4})
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_search_budget_exit(capsys):
    code, _, err = run(capsys, "search", "--q", "2", "--n", "12", "--budget", "100")
    assert code == 3
    assert "budget exceeded" in err


def test_classify_undecided_exit(capsys, monkeypatch):
    # the 56 optimal F3 n=6 triples fall into 3 classes, so some pair
    # test runs, and with no nodes to spend it cannot decide
    dedupe = search.dedupe_into_classes
    monkeypatch.setattr(search, "dedupe_into_classes", lambda codes, **kw: dedupe(codes, node_cap=0, **kw))
    code, out, err = run(capsys, "classify", "--q", "3", "--n", "6")
    assert code == 3
    assert out == ""
    assert "equivalence search budget exceeded: code " in err


def test_search_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("DTCODES_WORKERS", "2")
    code, out, _ = run(capsys, "search", "--q", "2", "--n", "6", "--partitions", "2")
    assert code == 0
    monkeypatch.setenv("DTCODES_WORKERS", "zero")
    code, _, err = run(capsys, "search", "--q", "2", "--n", "6")
    assert code == 2
    assert "DTCODES_WORKERS" in err


_CONFIG = {"q": 2, "n": 6, "family": "DT", "reduction": "C2", "mode": "find-optimal",
           "d": None, "partitions": 1}


@pytest.mark.parametrize("content", [
    "[]",
    json.dumps({"version": 3, "config": _CONFIG, "chunks": {"0": 5}}),
    json.dumps({"version": 3, "config": _CONFIG, "chunks": {}})[:-9],
], ids=["list", "int-chunk", "truncated"])
def test_malformed_checkpoint_exits_2(capsys, tmp_path, content):
    path = tmp_path / "run.json"
    path.write_text(content)
    code, out, err = run(capsys, "search", "--q", "2", "--n", "6", "--checkpoint", str(path))
    assert code == 2
    assert out == ""
    assert "checkpoint rejected" in err
    # the well-formed file of the same search resumes
    path.write_text(json.dumps({"version": 3, "config": _CONFIG, "chunks": {}}))
    assert run(capsys, "search", "--q", "2", "--n", "6", "--checkpoint", str(path))[0] == 0


@pytest.mark.parametrize("where", ["missing-dir", "directory", "boolean-best"])
def test_unusable_checkpoint_exits_2(capsys, tmp_path, where):
    path = tmp_path
    if where == "missing-dir":
        path = tmp_path / "absent" / "run.json"
    elif where == "boolean-best":
        path = tmp_path / "run.json"
        chunks = {"0": [True, [], []]}
        path.write_text(json.dumps({"version": 3, "config": _CONFIG, "chunks": chunks}))
    code, out, err = run(capsys, "search", "--q", "2", "--n", "6", "--checkpoint", str(path))
    assert code == 2
    assert out == ""
    assert "checkpoint rejected" in err


_DC_CONFIG = dict(_CONFIG, n=8, family="DC", reduction="none")


# a chunk is [best, numbers, weights]; number 7 is the first row (1,1,1,0)
@pytest.mark.parametrize("chunk", [
    [4, [7.0], [True]],
    [4, [[7, -1]], [4]],
], ids=["non-integer-entries", "negacirculant-sign"])
def test_circulant_checkpoint_payload_exits_2(capsys, tmp_path, chunk):
    path = tmp_path / "run.json"
    rejected = {"version": 3, "config": _DC_CONFIG, "chunks": {"0": chunk}}
    path.write_text(json.dumps(rejected))
    argv = ("search", "--q", "2", "--n", "8", "--family", "dc", "--checkpoint", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "checkpoint rejected" in err
    # the chunk as the scan writes it resumes
    written = {"version": 3, "config": _DC_CONFIG, "chunks": {"0": [4, [7], [4]]}}
    path.write_text(json.dumps(written))
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"r": "(1,1,1,0)", "mu": 1, "min_weight": 4}


# the F2 n=8 search with two chunks of 36 numbers each; chunk 0 holds one attainer,
# number 35, the triple 0;(1,1,1);(1,1,1)
_F2_N8 = ("search", "--q", "2", "--n", "8", "--partitions", "2")
_F2_N8_CHUNK_0 = [4, [35], [4]]


def _append(chunk, number, weight):
    chunk[1].append(number)
    chunk[2].append(weight)


@pytest.mark.parametrize("edit", [
    # number 1, the triple 0;(1,0,0);(0,0,0) of weight 1
    lambda c: c.update({"0": [4, [1], [1]]}),
    # chunk 0's attainer number in chunk 1 names 1;(1,1,1);(1,1,1), of weight below 4
    lambda c: _append(c["1"], 35, 4),
    # 0;(0,0,1);(1,1,1), number 39 in the unfiltered order, past the 36 that C2 keeps
    lambda c: _append(c["0"], 39, 4),
    # a raised best whose attainers are gone
    lambda c: c.update({"1": [99, [], []]}),
], ids=["weight-1-as-optimum", "attainer-in-another-chunk", "filtered-out-triple",
        "best-without-records"])
def test_checkpoint_record_its_chunk_cannot_write_exits_2(capsys, tmp_path, edit):
    path = tmp_path / "ck.json"
    assert run(capsys, *_F2_N8, "--checkpoint", str(path))[0] == 0
    data = json.loads(path.read_text())
    assert data["chunks"]["0"] == _F2_N8_CHUNK_0
    edit(data["chunks"])
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *_F2_N8, "--checkpoint", str(path))
    assert (code, out) == (2, "")
    assert "checkpoint rejected" in err


def test_checkpoint_weight_its_code_does_not_have_exits_2(capsys, tmp_path):
    # the triple 0;(1,0,0);(0,0,0) spans a code of minimum weight 1, recorded as 4
    path = tmp_path / "ck.json"
    assert run(capsys, *_F2_N8, "--checkpoint", str(path))[0] == 0
    data = json.loads(path.read_text())
    data["chunks"]["0"] = [4, [1], [4]]
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *_F2_N8, "--checkpoint", str(path))
    assert (code, out) == (2, "")
    assert "checkpoint rejected" in err
    assert "number 1's weight 4 is not 0;(1,0,0);(0,0,0)'s minimum weight 1" in err


_RUN_OPTIONS = ("--q", "--n", "--reduction", "--workers", "--partitions", "--checkpoint", "--budget")


def _help_entries(capsys, command: str) -> dict:
    """Each option entry of ``dtcodes COMMAND --help``: its first flag and its text."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    entries = {}
    for line in capsys.readouterr().out.split("options:")[1].splitlines():
        if line.startswith("  -"):
            flag = line.split()[0].rstrip(",")
            entries[flag] = line
        elif line.startswith("    ") and entries:
            entries[flag] += line
    return {flag: " ".join(text.split()) for flag, text in entries.items()}


def test_search_and_classify_list_the_same_run_options(capsys):
    search_help, classify_help = _help_entries(capsys, "search"), _help_entries(capsys, "classify")
    for opt in _RUN_OPTIONS:
        assert search_help[opt] == classify_help[opt], opt
    assert "symmetry filter for dt searches" in classify_help["--reduction"]
    assert "largest candidate space the search will accept" in classify_help["--budget"]
    # the other options are each subcommand's own
    assert set(search_help) - set(_RUN_OPTIONS) == {"-h", "--family", "--mode", "--d"}
    assert set(classify_help) - set(_RUN_OPTIONS) == {"-h", "--semimonomial"}


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
    monkeypatch.setattr(search, "_search", lambda *a, **k: pytest.fail("searched"))
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

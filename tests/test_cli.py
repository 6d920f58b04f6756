"""The command surface: JSON documents, exit codes, determinism."""

import json
import os
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import defexp.cli
import defexp.validate
import defexp.zeros as zeros
from defexp.cli import main
from defexp.jpoly import DecompositionError
from defexp.qseries import a_series, eisenstein_q


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def subprocess_env(**extra) -> dict:
    """The environment with the imported defexp's source directory first
    on PYTHONPATH, so `python -m defexp` runs the package under test even
    when pytest put src/ on sys.path itself."""
    src = str(Path(defexp.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


COEFF_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "coeff"


def golden_argv(name: str) -> list[str]:
    """The CLI arguments whose stdout a coeff golden file holds."""
    stem = name.removesuffix(".json")
    if stem.startswith("fj_"):
        imax, jmax = re.fullmatch(r"fj_i(\d+)_j(\d+)", stem).groups()
        return ["fj", "--imax", str(int(imax)), "--jmax", str(int(jmax))]
    verb, n, raw = re.fullmatch(r"(coeff|reduce|eisenstein)_n(\d+)(_raw)?", stem).groups()
    return [verb, "--n", str(int(n))] + (["--basis", "raw"] if raw else [])


def test_coeff_goldens_are_all_present():
    assert len(list(COEFF_GOLDEN.glob("*.json"))) == 43


@pytest.mark.parametrize("name", sorted(p.name for p in COEFF_GOLDEN.glob("*.json")))
def test_exact_layer_output_matches_coeff_golden(capsys, name):
    """The benchmark's coeff workload, byte for byte, run in process."""
    code, out, err = run_cli(capsys, *golden_argv(name))
    assert code == 0, err
    assert out.encode() == (COEFF_GOLDEN / name).read_bytes()


README_GOLDEN = COEFF_GOLDEN.parent / "readme"
#: the globals of bench/make_goldens.py, the script that writes the README
#: goldens, read for its table of invocations (run_path writes no bytecode)
MAKE_GOLDENS = runpy.run_path(str(COEFF_GOLDEN.parents[1] / "make_goldens.py"))
#: each README invocation, keyed by its golden stdout (and CSV) file name
README_INVOCATIONS = dict(MAKE_GOLDENS["README_INVOCATIONS"])


@pytest.mark.parametrize("name", sorted(README_INVOCATIONS))
def test_readme_invocation_matches_its_golden(capsys, monkeypatch, tmp_path, name):
    """Each README invocation at the default precision, byte for byte,
    run in process from tmp_path, where the CSV lands."""
    monkeypatch.delenv(defexp.cli.PRECISION_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    csv = tmp_path / MAKE_GOLDENS["CSV_NAME"]
    code, out, err = run_cli(capsys, *README_INVOCATIONS[name])
    assert code == 0, err
    assert out.encode() == (README_GOLDEN / f"{name}.stdout").read_bytes()
    csv_golden = README_GOLDEN / f"{name}.csv"
    assert csv.exists() == csv_golden.exists()
    if csv_golden.exists():
        assert csv.read_bytes() == csv_golden.read_bytes()


def test_readme_budgets_are_below_the_newton_ladder(capsys, monkeypatch, tmp_path):
    """Every evaluation of f in the README invocations is at 647 bits or
    fewer, below the threshold of find_zero's precision ladder (which
    would move the digits of a golden zero): a threshold lowered that far
    fails here by name, not only as a golden diff."""
    monkeypatch.delenv(defexp.cli.PRECISION_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    seen = set()
    kernel = zeros._f_raw

    def counted(X, Q, bits):
        seen.add(bits)
        return kernel(X, Q, bits)

    monkeypatch.setattr(zeros, "_f_raw", counted)
    for argv in README_INVOCATIONS.values():
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
    assert max(seen) == 647
    assert max(seen) < zeros._LADDER_MIN_BITS


def test_coeff_raw_lowest_orders(capsys):
    doc = run_json(capsys, "coeff", "--n", "2", "--basis", "raw")
    assert doc == {
        "symbols": ["A0", "A1"],
        "terms": [{"exps": [0, 1], "coeff": "-1"}],
    }


def test_coeff_default_basis_is_raw(capsys):
    a = run_json(capsys, "coeff", "--n", "4")
    b = run_json(capsys, "coeff", "--n", "4", "--basis", "raw")
    assert a == b
    assert a["symbols"] == ["A0", "A1", "A2", "A3"]


def test_reduce_alias_matches_a012_basis(capsys):
    a = run_json(capsys, "reduce", "--n", "4")
    b = run_json(capsys, "coeff", "--n", "4", "--basis", "a012")
    assert a == b
    assert a["symbols"] == ["A0", "A1", "A2"]


def test_eisenstein_alias(capsys):
    doc = run_json(capsys, "eisenstein", "--n", "1")
    assert doc == {
        "symbols": ["E2"],
        "terms": [
            {"exps": [], "coeff": "1/24"},
            {"exps": [1], "coeff": "-1/24"},
        ],
    }


def test_series_named_objects(capsys):
    doc = run_json(capsys, "series", "--expr", "A0", "--trunc", "6")
    assert doc == a_series(0, 6).to_json()
    doc = run_json(capsys, "series", "--expr", "E6", "--trunc", "4")
    assert doc == eisenstein_q("E6", 4).to_json()
    doc = run_json(capsys, "series", "--expr", "P0", "--trunc", "6")
    assert doc["coeffs"] == ["1", "-3", "0", "5", "0", "0", "-7"]
    doc = run_json(capsys, "series", "--expr", "C1", "--trunc", "5")
    assert doc == a_series(0, 5).to_json()


def test_series_unknown_expression(capsys):
    code, out, err = run_cli(capsys, "series", "--expr", "XYZ", "--trunc", "5")
    assert code == 2
    assert out == ""
    assert "unknown series expression" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--expr", "C0", "--trunc", "5"],
        ["zeros", "--q", "1/2", "--k", "5", "--kmax", "4"],
        ["residuals", "--q", "1/2", "--n", "1", "--kmin", "12", "--kmax", "11"],
        ["ratio", "--q", "1/2", "--kmin", "12", "--kmax", "11"],
    ],
    ids=lambda argv: argv[0],
)
def test_verb_argument_errors_print_an_error_line(capsys, argv):
    """Argument checks inside the verbs: exit 2, an error line on stderr
    and nothing on stdout."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_zeros_single_and_range(capsys):
    doc = run_json(capsys, "zeros", "--q", "1/2", "--k", "6")
    assert len(doc) == 1
    assert doc[0]["k"] == 6
    assert doc[0]["x"].startswith("-201.002876")
    doc = run_json(capsys, "zeros", "--q", "1/2", "--k", "8", "--kmax", "10")
    assert [row["k"] for row in doc] == [8, 9, 10]


def test_zeros_bracket_failure_is_a_json_error(capsys):
    """No sign change around the guess (x_2 at q = 1/2), or none of x_k's
    parity: for k = 11 at q = 17/20 and k = 14 at q = 9/10 the nearest
    sign change is x_10's and x_11's, which no certificate of x_k covers."""
    for q, k, why in (
        ("1/2", "2", "no sign change"),
        ("17/20", "11", "no sign change"),
        ("9/10", "14", "no sign change"),
    ):
        code, out, err = run_cli(capsys, "zeros", "--q", q, "--k", k)
        assert code == 1, (q, k)
        doc = json.loads(out)
        assert doc["code"] == "bracket-failure"
        assert f"k={k}" in doc["message"] and why in doc["message"]


def test_a_runtime_error_is_no_bracket_failure(monkeypatch):
    """Only BracketError becomes the bracket-failure object: another
    RuntimeError from a verb propagates, with zeros loaded or not."""

    def broken(n):
        raise RuntimeError("not a bracket")

    monkeypatch.setattr(defexp.cli, "c_n", broken)
    with pytest.raises(RuntimeError, match="not a bracket"):
        main(["coeff", "--n", "2", "--basis", "raw"])


def test_decomposition_error_is_a_json_error(capsys, monkeypatch):
    """DecompositionError is a ValueError, yet it must not exit 2."""

    def broken(n):
        raise DecompositionError("pure-v residue")

    monkeypatch.setattr(defexp.cli, "c_n", broken)
    code, out, err = run_cli(capsys, "coeff", "--n", "3")
    assert code == 1
    assert json.loads(out) == {"code": "decomposition-error", "message": "pure-v residue"}


def test_zeros_rejects_q_outside_unit_interval(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--q", "5/4", "--k", "8"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "q, reason",
    [
        ("1/0", "q has a zero denominator, got '1/0'"),
        ("2", "q must lie in (0, 1), got 2"),
        ("0", "q must lie in (0, 1), got 0"),
        ("abc", "q must be a finite rational number, got 'abc'"),
    ],
)
@pytest.mark.parametrize(
    "verb",
    [
        ["zeros", "--k", "10"],
        ["residuals", "--n", "1", "--kmin", "10", "--kmax", "12"],
        ["ratio", "--kmin", "10", "--kmax", "12"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_bad_q_is_an_argument_error_that_names_its_reason(capsys, verb, q, reason):
    """Every --q that is no q in (0, 1), 1/0 among them, exits 2 with an
    error line naming the reason on stderr and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main([verb[0], "--q", q, *verb[1:]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument --q: {reason}\n" in err


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DEFEXP_PRECISION", "200")
    doc = run_json(capsys, "zeros", "--q", "1/2", "--k", "8")
    assert doc[0]["precision_bits"] == 200


def test_precision_env_below_8_bits_is_an_argument_error(capsys, monkeypatch):
    """The floor is the zeros module's; the CLI parses the integer only."""
    monkeypatch.setenv("DEFEXP_PRECISION", "7")
    code, out, err = run_cli(capsys, "zeros", "--q", "1/2", "--k", "10")
    assert code == 2
    assert out == ""
    assert "starts at 8, got 7" in err


def test_precision_env_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("DEFEXP_PRECISION", "not-a-number")
    code, out, err = run_cli(capsys, "zeros", "--q", "1/2", "--k", "8")
    assert code == 2
    assert "DEFEXP_PRECISION" in err


def test_residuals_document_and_csv(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    doc = run_json(
        capsys,
        "residuals",
        "--q", "1/2",
        "--n", "0",
        "--kmin", "10",
        "--kmax", "12",
        "--csv", str(target),
    )
    assert [row["k"] for row in doc["rows"]] == [10, 11, 12]
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "k,x_k,r_n"
    assert len(lines) == 4


def test_residuals_reject_a_negative_order_before_any_zero(capsys, monkeypatch):
    """A bad --n exits 2 before the zero table is built (the stub raises
    if it is), with nothing on stdout.  The verb reads zero_table from
    validate when it runs, so --n 0 reaches the same stub."""

    def no_table(*args, **kwargs):
        raise AssertionError("zero table built")

    monkeypatch.setattr(defexp.validate, "zero_table", no_table)
    argv = ["residuals", "--q", "1/2", "--kmin", "10", "--kmax", "60"]
    code, out, err = run_cli(capsys, *argv, "--n", "-1")
    assert code == 2
    assert out == ""
    assert "truncation order starts at 0, got -1" in err
    with pytest.raises(AssertionError, match="zero table built"):
        main([*argv, "--n", "0"])


def test_unwritable_csv_path_is_an_argument_error(capsys, tmp_path):
    """Exit 2 and an error line naming the path, not a traceback with
    exit 1 (reserved for the JSON error object); stdout stays empty."""
    target = tmp_path / "missing" / "rows.csv"
    code, out, err = run_cli(capsys, "fj", "--imax", "2", "--jmax", "3", "--csv", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert not target.parent.exists()
    # an empty path is no path: it once exited 0 and wrote nothing
    code, out, err = run_cli(capsys, "fj", "--imax", "1", "--jmax", "2", "--csv", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --csv")


def test_ratio_document(capsys):
    doc = run_json(capsys, "ratio", "--q", "1/2", "--kmin", "10", "--kmax", "12")
    ks = [row["k"] for row in doc["rows"]]
    assert ks == [10, 11, 12]
    for row in doc["rows"]:
        assert abs(float(Fraction(row["deviation_k2"]))) < 0.5


def test_fj_document(capsys):
    doc = run_json(capsys, "fj", "--imax", "3", "--jmax", "4")
    assert doc["c"][0] == ["0", "1", "3", "4", "7"]
    assert doc["c"][1][1] == "-1"


def test_selftest_passes_and_reports(capsys):
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(f["pass"] for f in doc["fixtures"])
    assert err.count("pass:") == len(doc["fixtures"])


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "coeff", "--n", "5", "--basis", "a012")
    _, out2, _ = run_cli(capsys, "coeff", "--n", "5", "--basis", "a012")
    assert out1 == out2


def test_argument_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeff"])  # --n is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--n", "3", "--basis", "weird"])
    assert exc.value.code == 2


def test_argument_error_leaves_the_parser_usable(capsys):
    """main builds its parser once per process; an argument error on it
    must not change the next call's output."""
    first = run_json(capsys, "coeff", "--n", "2")
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--n", "two"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_json(capsys, "coeff", "--n", "2") == first
    assert defexp.cli._parser() is defexp.cli._parser()


def test_installed_entry_point_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "defexp", "series", "--expr", "E2", "--trunc", "3"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == eisenstein_q("E2", 3).to_json()


def test_low_precision_zeros_call_ends():
    """DEFEXP_PRECISION below ~62 bits once left the bisection running forever."""
    proc = subprocess.run(
        [sys.executable, "-m", "defexp", "zeros", "--q", "1/2", "--k", "10"],
        capture_output=True,
        text=True,
        env=subprocess_env(DEFEXP_PRECISION="48"),
        timeout=60,
    )
    doc = json.loads(proc.stdout)
    if proc.returncode == 1:
        assert set(doc) == {"code", "message"}
    else:
        assert proc.returncode == 0, proc.stderr
        assert [(z["k"], z["precision_bits"]) for z in doc] == [(10, 48)]


def test_zeros_takes_no_guess_order():
    """The guess is always of order 2: --guess-order, even at 2, is an
    unknown argument."""
    proc = subprocess.run(
        [sys.executable, "-m", "defexp", "zeros", "--q", "1/2", "--k", "10"]
        + ["--guess-order", "2"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "unrecognized arguments: --guess-order 2" in proc.stderr


@pytest.mark.parametrize("order", ["-1", "21", "40"])
def test_zeros_guess_order_outside_0_to_20_exits_two(order):
    """An order of 40 once ran for minutes building C_1..C_40, and -1
    ended as a bracket failure; with the option gone, both are still
    argument errors that exit 2 at once."""
    proc = subprocess.run(
        [sys.executable, "-m", "defexp", "zeros", "--q", "1/2", "--k", "30"]
        + ["--guess-order", order],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"unrecognized arguments: --guess-order {order}" in proc.stderr

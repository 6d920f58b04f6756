"""The command surface: JSON documents, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import defexp.cli
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


def test_zeros_single_and_range(capsys):
    doc = run_json(capsys, "zeros", "--q", "1/2", "--k", "6")
    assert len(doc) == 1
    assert doc[0]["k"] == 6
    assert doc[0]["x"].startswith("-201.002876")
    doc = run_json(capsys, "zeros", "--q", "1/2", "--k", "8", "--kmax", "10")
    assert [row["k"] for row in doc] == [8, 9, 10]


def test_zeros_bracket_failure_is_a_json_error(capsys):
    code, out, err = run_cli(capsys, "zeros", "--q", "1/2", "--k", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["code"] == "bracket-failure"
    assert "k=2" in doc["message"]


def test_decomposition_error_is_a_json_error(capsys, monkeypatch):
    """DecompositionError is a ValueError, yet it must not exit 2."""

    def broken(n):
        raise DecompositionError("pure-v residue")

    monkeypatch.setattr(defexp.cli, "c_n", broken)
    code, out, err = run_cli(capsys, "coeff", "--n", "3")
    assert code == 1
    assert json.loads(out) == {"code": "decomposition-error", "message": "pure-v residue"}


def test_zeros_guess_order_flag(capsys):
    doc = run_json(
        capsys, "zeros", "--q", "1/2", "--k", "8", "--guess-order", "3"
    )
    assert doc[0]["k"] == 8


def test_zeros_rejects_q_outside_unit_interval(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--q", "5/4", "--k", "8"])
    assert exc.value.code == 2


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DEFEXP_PRECISION", "200")
    doc = run_json(capsys, "zeros", "--q", "1/2", "--k", "8")
    assert doc[0]["precision_bits"] == 200


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


@pytest.mark.parametrize("order", ["-1", "21", "40"])
def test_zeros_guess_order_outside_0_to_20_exits_two(order):
    """An order of 40 once ran for minutes building C_1..C_40, and -1
    ended as a bracket failure; both are argument errors."""
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
    assert "guess order must lie in 0..20" in proc.stderr

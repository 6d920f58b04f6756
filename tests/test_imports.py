"""What each entry point loads: `import defexp` and the exact verbs import
the exact layer only, and the numeric names load their module on first
access.  Each check runs in a fresh interpreter, since this process has
long imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defexp

SRC = Path(defexp.__file__).resolve().parents[1]
README_GOLDEN = SRC.parent / "bench" / "golden" / "readme"
#: the modules behind the numeric names, none of which an exact verb needs
NUMERIC = ("defexp.zeros", "defexp.validate", "defexp.precreal", "defexp.reference")

#: the README invocations of the exact verbs, keyed by their golden file
EXACT_INVOCATIONS = {
    "coeff_n4_raw": ["coeff", "--n", "4", "--basis", "raw"],
    "reduce_n4": ["reduce", "--n", "4"],
    "eisenstein_n2": ["eisenstein", "--n", "2"],
    "series_A1_t12": ["series", "--expr", "A1", "--trunc", "12"],
    "series_C5_t20": ["series", "--expr", "C5", "--trunc", "20"],
    "fj_i6_j8": ["fj", "--imax", "6", "--jmax", "8"],
}


def fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c script args` with this defexp's source first on PYTHONPATH."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


_RUN_WITHOUT_MPMATH = f"""
import json, sys
sys.modules["mpmath"] = None  # any import of mpmath or its libmp now fails
from defexp.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
loaded = [m for m in {NUMERIC!r} if m in sys.modules]
sys.stderr.write(json.dumps({{"code": code, "loaded": loaded}}))
"""


@pytest.mark.parametrize("name", sorted(EXACT_INVOCATIONS))
def test_exact_verbs_run_without_mpmath(name):
    """Each exact README invocation prints its golden byte for byte with
    mpmath unimportable, and loads no numeric module."""
    proc = fresh(_RUN_WITHOUT_MPMATH, *EXACT_INVOCATIONS[name])
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stderr.decode().splitlines()[-1])
    assert report == {"code": 0, "loaded": []}
    assert proc.stdout == (README_GOLDEN / f"{name}.stdout").read_bytes()


def test_coeff_loads_neither_mpmath_nor_a_numeric_module():
    proc = fresh(
        "import sys\n"
        "from defexp.cli import main\n"
        "main(['coeff', '--n', '4', '--basis', 'raw'])\n"
        f"print([m for m in ('mpmath',) + {NUMERIC!r} if m in sys.modules], file=sys.stderr)"
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode().strip() == "[]"


_LAZY_NAMES = f"""
import importlib, sys
import defexp
assert [m for m in ('mpmath',) + {NUMERIC!r} if m in sys.modules] == [], sys.modules
namespace = {{}}
exec("from defexp import *", namespace)
for name in defexp.__all__:
    value = getattr(defexp, name)
    owner = importlib.import_module(value.__module__)
    assert getattr(owner, name) is value, name
    assert vars(defexp)[name] is value, name  # bound, as a plain import binds it
    assert namespace[name] is value, name
import defexp.qseries, defexp.validate, defexp.zeros
assert defexp.find_zero is defexp.zeros.find_zero
assert defexp.fj_extract is defexp.qseries.fj_extract is defexp.validate.fj_extract
"""


def test_every_exported_name_is_its_defining_modules_object():
    """From a fresh `import defexp`, which loads no numeric module, the
    star import binds every name in __all__, each the object its module
    holds and each then bound in the package."""
    proc = fresh(_LAZY_NAMES)
    assert proc.returncode == 0, proc.stderr.decode()


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        defexp.no_such_name
    assert not hasattr(defexp, "coefficient_value")  # qseries' own, not exported


def test_a_bracket_failure_exits_1_when_cli_loads_zeros_itself():
    """main maps BracketError to its JSON object although zeros is not
    loaded when cli is imported."""
    proc = fresh(
        "import sys\n"
        "from defexp.cli import main\n"
        "assert 'defexp.zeros' not in sys.modules\n"
        "sys.exit(main(['zeros', '--q', '1/2', '--k', '2']))"
    )
    assert proc.returncode == 1, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    assert doc["code"] == "bracket-failure"
    assert "no sign change" in doc["message"]

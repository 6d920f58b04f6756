"""Write the golden outputs the benchmark and its tests compare against.

    python3 bench/make_goldens.py

Run from the repository root, at a commit whose outputs are known good.
It writes the stdout of every coeff-workload op (golden/coeff/) and of
every CLI invocation shown in README.md (golden/readme/, plus the CSV the
residuals example writes).  Later commits must reproduce them byte for
byte unless a change of output is declared.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

# (golden name, argv) of each `defexp ...` line in README.md, in order
README_INVOCATIONS = (
    ("coeff_n4_raw", ["coeff", "--n", "4", "--basis", "raw"]),
    ("reduce_n4", ["reduce", "--n", "4"]),
    ("eisenstein_n2", ["eisenstein", "--n", "2"]),
    ("series_A1_t12", ["series", "--expr", "A1", "--trunc", "12"]),
    ("series_C5_t20", ["series", "--expr", "C5", "--trunc", "20"]),
    ("zeros_q1_2_k10_15", ["zeros", "--q", "1/2", "--k", "10", "--kmax", "15"]),
    ("residuals_q1_2_n1_k10_30", ["residuals", "--q", "1/2", "--n", "1", "--kmin", "10", "--kmax", "30", "--csv", "rows.csv"]),
    ("ratio_q1_2_k10_25", ["ratio", "--q", "1/2", "--kmin", "10", "--kmax", "25"]),
    ("fj_i6_j8", ["fj", "--imax", "6", "--jmax", "8"]),
    ("selftest", ["selftest"]),
)
CSV_NAME = "rows.csv"


def run_readme(argv: list[str]) -> tuple[int, bytes, bytes | None]:
    """`python3 -m defexp argv` from a scratch directory inside bench/.

    Returns (exit code, stdout, the CSV it wrote or None).  DEFEXP_PRECISION
    is removed so the default precision applies.
    """
    WORK.mkdir(exist_ok=True)
    csv = WORK / CSV_NAME
    csv.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "DEFEXP_PRECISION"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "defexp", *argv], cwd=WORK, env=env, capture_output=True, timeout=120
    )
    written = csv.read_bytes() if csv.exists() else None
    csv.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, written


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    coeff_dir = BENCH / "golden" / "coeff"
    coeff_dir.mkdir(parents=True, exist_ok=True)
    for argv in workloads.coeff_argvs():
        code, text = workloads.run_cli(argv)
        if code != 0:
            raise SystemExit(f"{argv}: exit code {code}")
        (coeff_dir / workloads.golden_name(argv)).write_bytes(text.encode())

    readme_dir = BENCH / "golden" / "readme"
    readme_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in README_INVOCATIONS:
        code, out, csv = run_readme(argv)
        if code != 0:
            raise SystemExit(f"{argv}: exit code {code}")
        (readme_dir / f"{name}.stdout").write_bytes(out)
        if csv is not None:
            (readme_dir / f"{name}.csv").write_bytes(csv)


if __name__ == "__main__":
    main()

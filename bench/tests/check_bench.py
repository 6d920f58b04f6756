"""Tests of the benchmark itself (kept out of the library's test suite).

    python3 -m pytest -q bench/tests/check_bench.py

They take about half a minute: smoke-size runs of every workload, the oracle
and golden checks against deliberately wrong outputs, the tracer's
patching and counting, and a replay of every README CLI invocation
against its golden output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import make_goldens  # noqa: E402
import oracle  # noqa: E402
import sample  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = BENCH / ".work"


def _run(args, env=None, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_run_refuses_a_directory_without_the_library():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(["--workload", "zeros", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_low_precision_from_the_environment_is_not_passed_on():
    # DEFEXP_PRECISION=48 makes find_zero loop forever
    env = dict(os.environ, DEFEXP_PRECISION="48")
    proc = _run(["--workload", "zeros", "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke"], env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0


def test_q_for_seed():
    assert {workloads.q_for_seed(0, i) for i in range(5)} == {Fraction(1, 2)}
    qs = set()
    for seed in range(1, 60):
        for sample in range(4):
            q = workloads.q_for_seed(seed, sample)
            assert q == workloads.q_for_seed(seed, sample)
            assert Fraction(9, 20) <= q < Fraction(1, 2) if sample % 2 == 0 else Fraction(1, 2) < q <= Fraction(11, 20)
            assert q.denominator <= 40 and q.denominator & (q.denominator - 1)
            qs.add(q)
    assert len(qs) > 20


def test_oracle_accepts_a_zero_and_rejects_it_perturbed():
    from defexp.precreal import PrecReal
    from defexp.zeros import find_zero

    q = Fraction(1, 2)
    z = find_zero(12, q)
    assert oracle.check_zero(z, 12, q) is None
    tag = z.x.precision_bits
    moved = PrecReal(z.x.value * (1 + z.x.value.context.ldexp(1, -20)), tag)
    bad = type(z)(k=z.k, q=z.q, x=moved, bracket=z.bracket, residual=z.residual, precision_bits=tag)
    assert oracle.check_zero(bad, 12, q) is not None
    assert oracle.check_zero(z, 11, q) is not None  # right value, wrong index


def test_oracle_rejects_a_neighbouring_zero():
    from defexp.zeros import scan_zeros

    q = Fraction(1, 2)
    found = scan_zeros(q, workloads.scan_bounds(q, 5), 5)
    assert oracle.check_scan(found, q, 5) is None
    assert oracle.check_zero(found[3], 3, q) is not None  # x_4 presented as x_3
    assert oracle.check_zero(found[4], 3, q) is not None  # x_5: parity agrees, window does not


def test_golden_check_rejects_an_altered_golden(monkeypatch):
    altered = WORK / "golden"
    shutil.rmtree(altered, ignore_errors=True)
    shutil.copytree(BENCH / "golden", altered)
    target = altered / "coeff" / workloads.golden_name(workloads.coeff_argvs(smoke=True)[1])
    target.write_bytes(target.read_bytes().replace(b'"coeff": "', b'"coeff": "-', 1))
    try:
        good = workloads.build_ops("coeff", 0, smoke=True)
        monkeypatch.setattr(workloads, "GOLDEN_DIR", altered)
        bad = workloads.build_ops("coeff", 0, smoke=True)
    finally:
        shutil.rmtree(altered)
    outputs = [op.run() for op in good]
    assert [op.check(out) for op, out in zip(good, outputs)] == [None] * len(good)
    verdicts = [op.check(out) for op, out in zip(bad, outputs)]
    assert verdicts[1] is not None and verdicts[:1] + verdicts[2:] == [None] * (len(bad) - 1)


def test_a_failing_or_slow_op_is_counted_and_the_sample_goes_on(monkeypatch):
    monkeypatch.setattr(sample, "OP_TIMEOUT_S", 0.2)
    ran = []

    def boom():
        raise ZeroDivisionError("boom")

    ops = [
        workloads.Op("raises", boom, lambda out: None),
        workloads.Op("hangs", lambda: time.sleep(5), lambda out: None),
        workloads.Op("wrong", lambda: 1, lambda out: "wrong answer"),
        workloads.Op("fine", lambda: ran.append(1), lambda out: None),
    ]
    start = time.monotonic()
    outputs, times, between, within, cpu = sample._run_ops(ops)
    assert time.monotonic() - start < 2
    assert ran == [1] and len(times) == 4 and len(between) == 5 and len(within) == 4
    failures = sample._check(ops, outputs)
    assert [f["op"] for f in failures] == ["raises", "hangs", "wrong"]
    assert "OpTimeout" in failures[1]["why"]


def test_probes_inside_an_op_are_taken_off_its_time(monkeypatch):
    monkeypatch.setattr(sample, "PROBE_EVERY_S", 0.01)

    def busy():
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass

    outputs, times, between, within, cpu = sample._run_ops([workloads.Op("busy", busy, lambda out: None)])
    assert len(within[0]) >= 5
    assert times[0] + sum(within[0]) >= 0.3 > times[0]
    assert abs(cpu - times[0]) < 0.05
    scaled = sample.scaled_ops(times, between, within)
    assert scaled[0] > 0


def test_tracer_patches_every_binding_and_restores_it():
    import defexp
    import defexp.cli
    import defexp.reference
    import defexp.symcoeff
    import defexp.validate
    import defexp.zeros

    originals = {
        (defexp.zeros, "coefficient_value"): defexp.zeros.coefficient_value,
        (defexp.validate, "coefficient_value"): defexp.validate.coefficient_value,
        (defexp.symcoeff, "delta"): defexp.symcoeff.delta,
        (defexp.reference, "delta"): defexp.reference.delta,
        (defexp.cli, "c_n"): defexp.cli.c_n,
        (defexp.cli, "fj_extract"): defexp.cli.fj_extract,
        (defexp, "find_zero"): defexp.find_zero,
        (defexp.symcoeff.MPoly, "substitute"): defexp.symcoeff.MPoly.__dict__["substitute"],
    }
    t = tracer.Tracer()
    t.install()
    try:
        patched = t.patched
        for owner, name in originals:
            assert owner.__dict__[name] is not originals[owner, name]
            assert owner.__dict__[name].__wrapped__ is originals[owner, name]
    finally:
        t.uninstall()
    assert len(patched) > len(originals)
    for owner, name, original in patched:
        assert owner.__dict__[name] is original
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original


def test_tracer_counts_match_cache_info():
    import defexp.validate
    from defexp.precreal import context
    from defexp.qseries import coefficient_value

    q = Fraction(7, 15)
    before = coefficient_value.cache_info()
    ctx_before = context.cache_info()
    t = tracer.Tracer()
    t.install()
    start = time.perf_counter()
    try:
        table = defexp.validate.zero_table(q, 10, 12)
        for n in range(3):
            defexp.validate.residual_profile(q, n, range(10, 13), zeros=table)
    finally:
        t.uninstall()
    wall = time.perf_counter() - start
    after = coefficient_value.cache_info()
    ctx_after = context.cache_info()
    deltas = {
        "qseries.coefficient_value": (after.hits - before.hits, after.misses - before.misses),
        "precreal.context": (ctx_after.hits - ctx_before.hits, ctx_after.misses - ctx_before.misses),
    }
    metrics = tracer.layer_metrics(t, wall, deltas)
    assert metrics["qseries.coefficient_value.calls"] == sum(deltas["qseries.coefficient_value"]) > 0
    assert metrics["qseries.coefficient_value.hit_ratio"] > 0
    assert metrics["validate.zero_table.calls"] == 1
    assert metrics["zeros.find_zero.calls"] == 3
    assert metrics["zeros.eval_f.find_zero.calls"] == metrics["zeros.eval_f.calls"]
    assert metrics["zeros.eval_f.find_zero.calls_per_zero"] == metrics["zeros.eval_f.calls"] / 3
    assert 0.95 <= metrics["trace.top_level_coverage"] <= 1
    spans = {s[0]: s for s in t.spans}
    for s in t.spans:
        assert s[3] <= s[4]
        if s[1] is not None:
            parent = spans[s[1]]
            assert parent[3] <= s[3] and s[4] <= parent[4]


def test_coefficient_honesty_reports_the_known_over_claim():
    from defexp.qseries import coefficient_value

    q = Fraction(1, 2)
    calls = [(i, q, coefficient_value(i, q, 60, 256)) for i in (1, 2)]
    correct, claimed = oracle.coefficient_honesty(calls)
    assert claimed == 256
    assert 40 <= correct <= 60


def test_lambert_reference_matches_the_exact_series():
    from defexp.qseries import a_series

    q = Fraction(1, 3)
    avals = oracle.a012(q, 100)
    for i, value in enumerate(avals):
        series = a_series(i, 200)
        exact = sum(c * q**m for m, c in enumerate(series.coeffs))
        assert abs(value - value.context.mpf(exact.numerator) / exact.denominator) < value * 2.0**-90


@pytest.mark.parametrize("name, argv", make_goldens.README_INVOCATIONS)
def test_readme_invocations_match_their_goldens(name, argv):
    code, out, csv = make_goldens.run_readme(argv)
    assert code == 0
    assert out == (BENCH / "golden" / "readme" / f"{name}.stdout").read_bytes()
    csv_golden = BENCH / "golden" / "readme" / f"{name}.csv"
    assert csv == (csv_golden.read_bytes() if csv_golden.exists() else None)

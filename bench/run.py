"""The defexp benchmark: run one workload for a while and print its metrics.

    python3 bench/run.py --workload coeff|zeros|validate --seed N \
        --seconds S --trace 0|1

Run from the repository root; defexp is imported from src/.  Each sample
is a fresh interpreter (sample.py), because every CLI call pays for cold
caches.  Inside it one closed-loop client runs the workload's ops one
after another, then checks every output (golden bytes for coeff, the
independent oracle for zeros and validate).  Samples repeat for about S
seconds, each after two set-up-only spawns.

With --trace 0 the metrics are the end-to-end ones: wall_s (all ops of a
sample), slowest_op_s (its most expensive op), setup_s (spawn until
defexp is imported and the inputs exist) and peak_rss_mib (ru_maxrss of
a sample), as medians over the run's samples.  The times are scaled by
speed probes taken alongside (see sample.py); the unscaled ones are
printed too.  With --trace 1, untraced and traced samples alternate; the
metrics are the per-layer ones from the traced samples (medians), with
trace_overhead_ratio = traced wall / untraced wall.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  A sample that
crashes or times out counts all its ops as failed.  Exit code 2 when the
checkout holds no src/defexp, 1 when no sample produced timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 2  # set-up-only spawns before each sample
BUDGET_S = 170  # the whole run, set-up spawns included, ends within this

END_TO_END = (("wall_s", "s"), ("slowest_op_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "DEFEXP_PRECISION"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, index: int, mode: str, timeout: float) -> dict:
    """One sample.py process; a crash or timeout comes back as {"error": ...}."""
    cmd = [
        sys.executable,
        str(BENCH / "sample.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--sample", str(index),
        "--mode", mode,
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"sample timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"sample exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    doc = json.loads(lines[-1])
    expected = str((ROOT / "src" / "defexp").resolve())
    if doc["defexp"] != expected:
        return {"error": f"imported defexp from {doc['defexp']}, not {expected}"}
    return doc


def machine() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def measure(args) -> tuple[list[dict], list[dict]]:
    """Samples, each after a few set-up-only spawns, for about --seconds.

    Another sample starts only while it is expected to end inside the
    window (at least one of each kind the mode needs is always run) and
    inside the budget.  Spreading the set-up spawns over the run samples
    the machine's slow and fast spells alike.
    """
    start = time.monotonic()
    deadline = start + BUDGET_S
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    setups: list[dict] = []
    samples: list[dict] = []
    longest = 0.0
    while True:
        began = time.monotonic()
        index = len(samples)
        setups += [spawn(args, index, "setup", deadline - time.monotonic()) for _ in range(SETUP_SPAWNS)]
        kind = kinds[index % len(kinds)]
        doc = spawn(args, index, kind, deadline - time.monotonic())
        doc["kind"] = kind
        samples.append(doc)
        now = time.monotonic()
        longest = max(longest, now - began)
        if "error" in doc and "timed out" in doc["error"]:
            break
        if now + longest > deadline:
            break
        if len(samples) >= len(kinds) and now + longest > start + args.seconds:
            break
    return setups, samples


def _per_op(samples: list[dict], key: str) -> list[float]:
    """Median over samples of each op's time."""
    return [median(times) for times in zip(*(s[key] for s in samples))]


def end_to_end(setups: list[dict], plain: list[dict], key: str = "op_scaled_s") -> dict[str, float]:
    """wall_s and slowest_op_s are the sum and the maximum of the per-op
    medians: a slow spell that hit one op in one sample stays out of the
    figure, where it would move the median of whole-sample times.  Times
    are the probe-scaled ones (see sample.py) unless key says otherwise."""
    op_medians = _per_op(plain, key)
    setup_key = "setup_scaled_s" if key == "op_scaled_s" else "setup_s"
    return {
        "wall_s": sum(op_medians),
        "slowest_op_s": max(op_medians),
        "setup_s": median(s[setup_key] for s in setups),
        "peak_rss_mib": median(s["peak_rss_mib"] for s in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: median(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
    out["process.cpu_s"] = median(s["cpu_s"] for s in plain)
    # unscaled: traced samples take no probes inside ops, so their scaling differs
    out["trace_overhead_ratio"] = median(s["wall_s"] for s in traced) / median(s["wall_s"] for s in plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op lists, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "defexp" / "__init__.py").is_file():
        print(f"error: no src/defexp under {ROOT}; run from a checkout of the repository", file=sys.stderr)
        return 2

    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed, "trace": args.trace}))
    sys.path.insert(0, str(ROOT / "src"))
    n_ops = len(workloads.build_ops(args.workload, args.seed, smoke=args.smoke))
    setups, samples = measure(args)
    attempted = failed = 0
    for s in samples:
        if "error" in s:
            print(f"sample failed: {s['error']}", file=sys.stderr)
            attempted += n_ops
            failed += n_ops
            continue
        attempted += s["attempted"]
        failed += len(s["failures"])
        for f in s["failures"]:
            print(f"op failed: {f['op']}: {f['why']}", file=sys.stderr)
    ok = [s for s in samples if "error" not in s]
    plain = [s for s in ok if s["kind"] == "plain"]
    traced = [s for s in ok if s["kind"] == "traced"]
    setups = [s for s in setups if "error" not in s]
    if not plain or not setups or (args.trace and not traced):
        print("error: no sample produced timings", file=sys.stderr)
        return 1

    print(json.dumps({"samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
                      "setups": setups}))
    if args.trace:
        values = per_layer(plain, traced)
        units = dict(tracer.per_layer_names())
    else:
        values = end_to_end(setups, plain)
        units = dict(END_TO_END)
        raw = end_to_end(setups, plain, key="op_s")
        print("unscaled: " + ", ".join(f"{name} {raw[name]:.6f} {units[name]}" for name in raw))
    for name, value in values.items():
        print(f"{name:48s} {value:14.6f} {units[name]}")
    print(f"ops failed {failed} of {attempted} attempted, over {len(ok)} samples")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

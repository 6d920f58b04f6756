"""One benchmark sample in a fresh interpreter: set up, run the ops, check them.

    python3 bench/sample.py --workload W --seed N --sample I \
        --mode plain|traced|setup --spawned-at T [--smoke]

run.py starts this with src/ on PYTHONPATH and T = its time.monotonic()
just before the spawn (CLOCK_MONOTONIC is shared by all processes), so
setup_s covers interpreter start, ``import defexp`` and input generation.
The ops run one after another with no checking in between; the timed
section ends before the checks start.  Prints one JSON object on stdout.

Speed probes.  Shared 2-vCPU virtual machines (a Xeon VM with Python
3.11.7 was measured) change speed by up to 1.8x for seconds to minutes
at a time, whatever runs inside them.
A probe times a fixed piece of work that uses no defexp code (big-integer
products, Fraction sums, dict updates), about 3 ms on an idle machine.
One runs before the first op and after every op, one inside an op each
PROBE_EVERY_S of CPU time (from a SIGVTALRM handler; its time is taken
off the op's; not in traced samples), and fifteen after a set-up.  Each time is also reported
scaled by PROBE_REF_S / probe time, i.e. as seconds at the speed where a
probe takes PROBE_REF_S: a change to defexp moves the scaled times as it
moves the raw ones, a slow spell of the machine moves only the raw ones.
An op is scaled by the median of the probes taken inside it and just
around it; an op too short to hold probes borrows the probes up to
PROBE_WINDOW places before and after it, so that one descheduled probe
cannot move it.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

OP_TIMEOUT_S = 60
PROBE_REF_S = 0.003  # a probe on that VM when idle
PROBE_EVERY_S = 0.1
SETUP_PROBES = 15
PROBE_WINDOW = 3

_A, _B = 3**2000 + 1, 7**1500 + 1


def probe() -> float:
    """Seconds for the fixed probe work (about 3 ms when the machine is idle)."""
    start = time.perf_counter()
    acc = 0
    for i in range(160):
        acc ^= (_A * (_B + i)) >> 3000
    frac = Fraction(0)
    for i in range(1, 80):
        frac += Fraction(i % 7 + 1, i % 11 + 1)
    table: dict[tuple[int, int], int] = {}
    for i in range(3200):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_ops(ops, probe_inside: bool = True) -> tuple[list, list[float], list[float], list[list[float]], float]:
    """Run every op under a timeout, probing before and after each, and
    inside each unless probe_inside is false (a traced sample, whose spans
    must not hold probes).

    Returns (output or error of each op, op times without the probes run
    inside them, probes between ops, probes inside each op, CPU seconds
    of the ops without the probes).  An op that raises or times out is
    kept as an error.
    """
    within: list[list[float]] = []

    def on_tick(signum, frame):
        within[-1].append(probe())

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGVTALRM, on_tick)
    outputs, times, between, cpu = [], [], [probe()], 0.0
    for op in ops:
        within.append([])
        c = _cpu_s()
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        if probe_inside:
            signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            outputs.append((op.run(), None))
        except Exception as exc:  # a failed op is counted, the sample goes on
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(time.perf_counter() - t - sum(within[-1]))
        cpu += _cpu_s() - c - sum(within[-1])
        between.append(probe())
    return outputs, times, between, within, cpu


def scaled(seconds: float, probe_s: float) -> float:
    """Seconds at the reference speed, given a probe time taken alongside."""
    return seconds * PROBE_REF_S / probe_s


def scaled_ops(times: list[float], between: list[float], within: list[list[float]]) -> list[float]:
    """Op times scaled by the probes inside and around each op.

    between[i] ran just before op i and between[i + 1] just after it.
    """
    out = []
    for i, t in enumerate(times):
        near = within[i] + between[i : i + 2]
        if len(near) < 2 * PROBE_WINDOW:
            near = within[i] + between[max(0, i + 1 - PROBE_WINDOW) : i + 1 + PROBE_WINDOW]
        out.append(scaled(t, median(near)))
    return out


def _check(ops, outputs) -> list[dict]:
    failures = []
    for op, (out, err) in zip(ops, outputs):
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a check that cannot run fails its op
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append({"op": op.label, "why": err})
    return failures


def _cache_counts(caches) -> dict[str, tuple[int, int]]:
    return {name: (fn.cache_info().hits, fn.cache_info().misses) for name, fn in caches.items()}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample", type=int, default=0, help="index of this sample in its run")
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import defexp
    import workloads

    ops = workloads.build_ops(args.workload, args.seed, args.sample, args.smoke)
    setup_s = time.monotonic() - args.spawned_at
    doc = {"setup_s": setup_s, "defexp": str(Path(defexp.__file__).resolve().parent)}
    if args.workload != "coeff":
        doc["q"] = str(workloads.q_for_seed(args.seed, args.sample))
    if args.mode == "setup":
        doc["setup_scaled_s"] = scaled(setup_s, median(probe() for _ in range(SETUP_PROBES)))
        print(json.dumps(doc))
        return

    from defexp.precreal import context
    from defexp.qseries import coefficient_value

    caches = {"qseries.coefficient_value": coefficient_value, "precreal.context": context}
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = _cache_counts(caches)
    outputs, times, between, within, cpu = _run_ops(ops, probe_inside=tracer is None)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = _cache_counts(caches)
    if tracer is not None:
        tracer.uninstall()
    wall = sum(times)
    checked = time.perf_counter()
    doc.update(
        wall_s=wall,
        op_s=times,
        op_scaled_s=scaled_ops(times, between, within),
        probe_s=between,
        op_probe_s=within,
        cpu_s=cpu,
        peak_rss_mib=rss_mib,
        attempted=len(ops),
        failures=_check(ops, outputs),
        check_s=time.perf_counter() - checked,
    )
    if tracer is not None:
        doc["layers"] = _layers(tracer, wall, before, after)
    print(json.dumps(doc))


def _layers(tracer, wall, before, after) -> dict[str, float]:
    """Per-layer metrics of this traced sample, computed after the checks."""
    import oracle
    import tracer as tr
    from defexp.symcoeff import c_n, reduce_to_A012

    deltas = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
    out = tr.layer_metrics(tracer, wall, deltas)
    top = tr.highest_c_n(tracer)
    out["symcoeff.c_n.terms_raw"] = len(c_n(top).terms) if top else 0
    out["symcoeff.c_n.terms_reduced"] = len(reduce_to_A012(c_n(top)).terms) if top else 0
    correct, claimed = oracle.coefficient_honesty(tr.coefficient_calls(tracer))
    out["qseries.coefficient_value.correct_bits_min"] = correct
    out["qseries.coefficient_value.claimed_bits"] = claimed
    return out


if __name__ == "__main__":
    main()

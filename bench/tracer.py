"""Spans around the library's public functions, recorded from outside it.

A Tracer replaces every binding of each traced function in the loaded
``defexp`` modules with a wrapper that records one span per call: name,
parent span, start and end, plus a few values read at the boundary (the
bits eval_f was asked for and the tag it returned, the Newton steps of a
zero).  ``from ... import`` copies the name into the importing module, so
patching only the defining module would miss callers like
``defexp.zeros.coefficient_value``; MPoly.substitute is patched on the
class.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer numbers after the timed section.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from statistics import mean

# (module, attribute) of every spanned function, named <module>.<function>
SPANNED = (
    ("cli", "main"),
    ("symcoeff", "c_n"),
    ("symcoeff", "MPoly.substitute"),
    ("symcoeff", "reduce_to_A012"),
    ("symcoeff", "to_eisenstein"),
    ("jpoly", "delta"),
    ("qseries", "eval_mpoly_series"),
    ("qseries", "coefficient_value"),
    ("zeros", "eval_f"),
    ("zeros", "find_zero"),
    ("zeros", "scan_zeros"),
    ("validate", "zero_table"),
    ("validate", "residual_profile"),
    ("validate", "ratio_check"),
    ("validate", "fj_extract"),
)
COUNTED = (("exactmath", "divisor_sigma"),)  # too many calls for a span each
ZERO_FINDERS = ("zeros.find_zero", "zeros.scan_zeros")
SPAN_NAMES = tuple(f"{m}.{a}" for m, a in SPANNED)

# what a span keeps of its call, (args, kwargs, result) -> info; the
# benchmark captures each cli.main call's stdout in a fresh io.StringIO
_INFO = {
    "cli.main": lambda a, kw, r: sys.stdout.tell(),
    "symcoeff.c_n": lambda a, kw, r: a[0],
    "qseries.coefficient_value": lambda a, kw, r: (a[0], a[1], r),
    "zeros.eval_f": lambda a, kw, r: (a[2], r.precision_bits),
    "zeros.find_zero": lambda a, kw, r: len(r.newton_rel_steps),
    "zeros.scan_zeros": lambda a, kw, r: len(r),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for span in SPAN_NAMES:
        names += [(f"{span}.calls", "count"), (f"{span}.total_s", "s"), (f"{span}.self_s", "s")]
    names += [
        ("symcoeff.c_n.terms_raw", "count"),
        ("symcoeff.c_n.terms_reduced", "count"),
        ("qseries.coefficient_value.hit_ratio", "ratio"),
        ("qseries.coefficient_value.correct_bits_min", "bits"),
        ("qseries.coefficient_value.claimed_bits", "bits"),
    ]
    for finder in ZERO_FINDERS:
        parent = finder.split(".")[1]
        names += [
            (f"zeros.eval_f.{parent}.calls", "count"),
            (f"zeros.eval_f.{parent}.calls_per_zero", "count"),
            (f"zeros.eval_f.{parent}.mean_bits", "bits"),
            (f"zeros.eval_f.{parent}.lost_bits_mean", "bits"),
        ]
    names += [
        ("zeros.find_zero.newton_steps", "count"),
        ("cli.main.stdout_bytes", "bytes"),
        ("precreal.context.calls", "count"),
        ("precreal.context.misses", "count"),
        ("exactmath.divisor_sigma.calls", "count"),
        ("process.cpu_s", "s"),
        ("trace_overhead_ratio", "ratio"),
        ("trace.top_level_coverage", "ratio"),
    ]
    return names


def _resolve(module: str, attr: str):
    """(owner, name, function) for a dotted attribute of defexp.<module>."""
    owner = importlib.import_module(f"defexp.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Records spans (id, parent id, name, start, end, info) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, clock(), None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name: str, new) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded defexp modules."""
        resolved = [
            (_resolve(module, attr), f"{module}.{attr}", make)
            for group, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper))
            for module, attr in group
        ]
        modules = [m for n, m in sorted(sys.modules.items()) if n == "defexp" or n.startswith("defexp.")]
        for (owner, name, fn), label, make in resolved:
            wrapper = make(label, fn)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, bound, wrapper)

    def uninstall(self) -> None:
        """Put every patched binding back, last patched first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)


def _self_times(spans) -> tuple[list[float], list[float]]:
    """Duration and self time (duration minus child spans) of every span."""
    dur = [s[4] - s[3] for s in spans]
    own = list(dur)
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= dur[s[0]]
    return dur, own


def _ancestor(spans, sid, names):
    """Name of the nearest span at or above span `sid` named in `names`, if any."""
    while sid is not None:
        if spans[sid][2] in names:
            return spans[sid][2]
        sid = spans[sid][1]
    return None


def layer_metrics(tracer: Tracer, wall_s: float, cache_deltas: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Per-layer numbers of one traced sample (no oracle or golden work).

    cache_deltas maps "qseries.coefficient_value" and "precreal.context" to
    the (hits, misses) growth of their cache_info() over the timed section.
    """
    spans = tracer.spans
    dur, own = _self_times(spans)
    out: dict[str, float] = {}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    for name in SPAN_NAMES:
        group = by_name[name]
        out[f"{name}.calls"] = len(group)
        # a call nested in a call of the same function is already inside it
        outer = [s for s in group if _ancestor(spans, s[1], (name,)) is None]
        out[f"{name}.total_s"] = sum(dur[s[0]] for s in outer)
        out[f"{name}.self_s"] = sum(own[s[0]] for s in group)

    hits, misses = cache_deltas["qseries.coefficient_value"]
    calls = hits + misses
    out["qseries.coefficient_value.hit_ratio"] = hits / calls if calls else 0.0

    evals = defaultdict(list)
    for s in by_name["zeros.eval_f"]:
        if s[5] is None:  # raised
            continue
        bits, tag = s[5]
        evals[_ancestor(spans, s[1], ZERO_FINDERS)].append((bits, bits - tag))
    zeros_found = {
        "zeros.find_zero": len(by_name["zeros.find_zero"]),
        "zeros.scan_zeros": sum(s[5] for s in by_name["zeros.scan_zeros"] if s[5] is not None),
    }
    for finder in ZERO_FINDERS:
        rows = evals[finder]
        parent = finder.split(".")[1]
        out[f"zeros.eval_f.{parent}.calls"] = len(rows)
        found = zeros_found[finder]
        out[f"zeros.eval_f.{parent}.calls_per_zero"] = len(rows) / found if found else 0.0
        out[f"zeros.eval_f.{parent}.mean_bits"] = mean(b for b, _ in rows) if rows else 0.0
        out[f"zeros.eval_f.{parent}.lost_bits_mean"] = mean(lost for _, lost in rows) if rows else 0.0
    out["zeros.find_zero.newton_steps"] = sum(s[5] for s in by_name["zeros.find_zero"] if s[5] is not None)
    out["cli.main.stdout_bytes"] = sum(s[5] for s in by_name["cli.main"] if s[5] is not None)

    hits, misses = cache_deltas["precreal.context"]
    out["precreal.context.calls"] = hits + misses
    out["precreal.context.misses"] = misses
    out["exactmath.divisor_sigma.calls"] = tracer.counts["exactmath.divisor_sigma"]
    top = sum(dur[s[0]] for s in spans if s[1] is None)
    out["trace.top_level_coverage"] = top / wall_s if wall_s > 0 else 0.0
    return out


def coefficient_calls(tracer: Tracer) -> list[tuple]:
    """(i, q, returned value) of every traced coefficient_value call."""
    return [s[5] for s in tracer.spans if s[2] == "qseries.coefficient_value" and s[5] is not None]


def highest_c_n(tracer: Tracer) -> int:
    """Largest n passed to c_n during the traced section (0 if none)."""
    return max((s[5] for s in tracer.spans if s[2] == "symcoeff.c_n" and s[5] is not None), default=0)

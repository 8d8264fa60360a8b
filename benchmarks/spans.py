"""Span tracing of wglab from outside the program, and the layer metrics drawn from it.

A traced run rebinds each function in LAYERS, in its defining module and in
every module of the package that imported it by name, to a wrapper that
records a span: name, start, end, parent span and command id.  Spans stay
in memory and are written out when the run ends.  A layer's self time is
its span's duration minus the part of that interval its child spans cover.
The tracing overhead of a run is span_cost() times the number of spans.
"""

import functools
import json
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

# Span names are "<module>.<function>" relative to the package.
LAYERS = (
    "cli.main",
    "oscint.surface_transform",
    "oscint.singular_integral",
    "surface.singular_series",
    "surface.main_term",
    "surface.omega_hat",
    "surface.enumerate_prime_points",
    "surface.rep_count_array",
    "surface.rep_weight_array",
    "surface.fourier_numerator_array",
    "surface.max_weight_array",
    "numtheory.units",
    "numtheory.sieve_primes",
    "maxops.convolve",
    "maxops.maximal",
    "maxops.delta_scaling_probe",
    "ergodic.weyl_decay_scan",
    "ergodic.discrepancy",
)

# The private lru table surface.singular_series reads g(a, q; b, r) from.
G_TABLE = "expsums._g_over_a"


def _observe(name: str, result, counters: Counter) -> None:
    """Counters read off a layer's return value."""
    if name == "oscint.surface_transform":
        counters["oscint.surface_transform.tail_warnings"] += int(bool(getattr(result, "tail_warning", False)))
    elif name == "surface.enumerate_prime_points":
        counters["surface.enumerate_prime_points.solutions"] += int(getattr(result, "r", 0))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    cmd: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.cmd = 0
        self._local = threading.local()
        self._root = -1  # open root span; parent of spans opened on other threads

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, self.cmd)
            self.spans.append(span)
            if parent == -1:
                self._root = index
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if self._root == index:
                    self._root = -1
            _observe(name, result, self.counters)
            return result

        return traced

    def install(self, package: str = "wglab", layers=LAYERS) -> None:
        """Rebind every layer wherever the package's modules hold it by name."""
        modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
        for name in layers:
            module_name, func_name = name.rsplit(".", 1)
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func_name, None) if home else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "cmd": s.cmd}) + "\n")


def lru_counts():
    """(hits, misses) of G_TABLE, or None when it is missing."""
    module_name, func_name = G_TABLE.rsplit(".", 1)
    fn = getattr(sys.modules.get(f"wglab.{module_name}"), func_name, None)
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of the child intervals, per span."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans: list[Span], cmd=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, s (outermost spans of the name only), self_s and first_s.

    With `cmd` set, only spans of that command count.
    """
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        if cmd is not None and s.cmd != cmd:
            continue
        t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "first_s": s.end - s.start})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            t["s"] += s.end - s.start
    return totals


def span_cost() -> float:
    """Seconds a Tracer wrapper adds to one call, timed on a no-op in this process.

    The median over five rounds of 20000 wrapped calls minus as many bare
    calls.  The wrappers record into a Tracer of their own.
    """
    def noop():
        return None

    calls = 20000
    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def span_metrics(totals: dict[str, dict[str, float]], counters: Counter) -> dict[str, float]:
    """"<layer>.<field>" for every layer of LAYERS and field calls, s, self_s and
    first_s, plus the counter-derived metrics; absent layers read 0."""
    out = {}
    for layer in LAYERS:
        for field in ("calls", "s", "self_s", "first_s"):
            out[f"{layer}.{field}"] = float(totals.get(layer, {}).get(field, 0.0))
    out["surface.enumerate_prime_points.solutions"] = float(counters["surface.enumerate_prime_points.solutions"])
    calls = totals.get("oscint.surface_transform", {}).get("calls", 0)
    warnings = counters["oscint.surface_transform.tail_warnings"]
    out["oscint.surface_transform.tail_warning_frac"] = warnings / calls if calls else 0.0
    return out

"""Timing, tracing and statistics shared by the three workloads.

Nothing here imports ``repro``.  A workload is a fixed list of
:class:`Op` objects; :func:`run_passes` runs whole passes over it until
the run length is used up, timing every call from outside and checking
every output.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import math
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

now = time.perf_counter


# -- machine-speed calibration ------------------------------------------------

CALIBRATION_REF_S = 1e-3
"""What the calibration loop takes at reference speed, by definition."""
CALIBRATION_WINDOW = 5


def calibration_loop() -> float:
    """Seconds one fixed pure-Python loop takes right now (about 1 ms)."""
    start = now()
    acc = 0
    for i in range(10000):
        acc += (i * i) % 7
    return now() - start


class SpeedGauge:
    """The machine's current speed, from calibration loops between calls.

    A shared two-core virtual machine ran the same code up to twice as
    fast in one phase as in another, for seconds to minutes at a time.
    Every timing the benchmark reports is therefore scaled
    to reference speed: wall seconds times ``CALIBRATION_REF_S`` over the
    median of the last ``CALIBRATION_WINDOW`` loop times.  The loop is
    benchmark code, so no change to the program can move it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> None:
        self.samples.append(calibration_loop())

    def scale(self) -> float:
        """Factor turning wall seconds into reference seconds."""
        if not self.samples:
            self.tick()
        return CALIBRATION_REF_S / median(self.samples[-CALIBRATION_WINDOW:])


# -- spans ----------------------------------------------------------------------

_current = contextvars.ContextVar("designbench_span", default=None)
_op_id = contextvars.ContextVar("designbench_op", default=None)


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Each span has a name, start, end, parent span id and the id of the
    operation it belongs to.  A disabled tracer records nothing and its
    :meth:`span` costs one attribute check.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)

    def span(self, name: str, **attrs: Any) -> "_Span":
        return _Span(self if self.enabled else None, name, attrs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        children: Dict[int, List[Dict]] = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append(s)
        totals: Dict[str, float] = {}
        for s in self.spans:
            covered = _union_length(
                [(c["start"], c["end"]) for c in children.get(s["id"], [])]
            )
            totals[s["name"]] = totals.get(s["name"], 0.0) + (
                s["end"] - s["start"] - covered
            )
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class _Span:
    __slots__ = ("tracer", "name", "attrs", "record", "token")

    def __init__(self, tracer, name, attrs) -> None:
        self.tracer, self.name, self.attrs = tracer, name, attrs
        self.record = None

    def __enter__(self) -> Optional[Dict[str, Any]]:
        if self.tracer is None:
            return None
        parent = _current.get()
        self.record = {
            "id": next(self.tracer._ids),
            "name": self.name,
            "parent": parent["id"] if parent else None,
            "op": _op_id.get(),
            "start": now(),
            **self.attrs,
        }
        self.token = _current.set(self.record)
        return self.record

    def __exit__(self, *exc) -> bool:
        if self.record is not None:
            self.record["end"] = now()
            _current.reset(self.token)
            self.tracer.spans.append(self.record)
        return False


def set_operation(op_id: Optional[str]):
    """Tag spans opened from here on (this task/thread) with ``op_id``."""
    return _op_id.set(op_id)


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


# -- operations and passes ------------------------------------------------------


class Op:
    """One operation of a workload's fixed list.

    ``make(pass_index)`` returns the input of one call; ``call(input)``
    runs it through the program; ``check(input, output)`` returns whether
    the output is right.  A *warm* op repeats the same input every pass;
    a *cold* op gets a freshly generated input each pass.
    """

    def __init__(
        self,
        name: str,
        layer: str,
        make: Callable[[int], Any],
        call: Callable[[Any], Any],
        check: Callable[[Any, Any], bool],
        warm: bool = True,
        twoq: Callable[[Any, Any], int] = lambda inp, out: 0,
        backend: str = "",
        spec: Optional[Dict[str, Any]] = None,
        known_fault: bool = False,
    ) -> None:
        self.name, self.layer, self.warm = name, layer, warm
        self.backend, self.spec = backend, spec or {}
        self.known_fault = known_fault
        self.make, self.call, self.check, self.twoq = make, call, check, twoq
        self._input = None

    def input_for(self, pass_index: int):
        """Input 0 for a warm op; a new input ``pass_index + 1`` if cold."""
        if self.warm:
            if self._input is None:
                self._input = self.make(0)
            return self._input
        return self.make(pass_index + 1)


class PassLog:
    """Per-operation samples of the timed phase.

    ``times`` holds reference-speed seconds (see :class:`SpeedGauge`),
    ``raw_times`` the wall seconds they were scaled from.
    """

    def __init__(self, ops: Sequence[Op]) -> None:
        self.ops = list(ops)
        self.times: Dict[str, List[float]] = {op.name: [] for op in ops}
        self.raw_times: Dict[str, List[float]] = {op.name: [] for op in ops}
        self.gauge = SpeedGauge()
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, str] = {}
        self.passes = 0
        self.pass_times: List[float] = []
        self.pass_busy = 0.0
        self.twoq_total = 0
        self.outputs: Dict[str, Any] = {}
        self.responses: List[Any] = []
        self.completed = 0
        self.correct = True
        self.extra_rss_kb = 0

    def record(self, op: Op, seconds: float, ok: bool, why: str = "") -> None:
        """One call of ``seconds`` wall time; ``why`` is set if it raised."""
        self.attempted += 1
        scaled = seconds * self.gauge.scale()
        self.raw_times[op.name].append(seconds)
        self.times[op.name].append(scaled)
        self.pass_busy += scaled
        if not why:
            self.completed += 1
        if not ok:
            self.failed += 1
            self.failures.setdefault(op.name, why or "wrong output")
            # Only the known faults may fail; anything else is a wrong
            # answer the benchmark must not report as a timing.
            self.correct = self.correct and op.known_fault

    def end_pass(self) -> None:
        self.pass_times.append(self.pass_busy)
        self.pass_busy = 0.0
        self.passes += 1

    @property
    def latency(self) -> Dict[str, Any]:
        return latency_metrics(self.ops, self.times)

    @property
    def raw_latency(self) -> Dict[str, Any]:
        return latency_metrics(self.ops, self.raw_times)

    @property
    def throughput(self) -> float:
        """Operations per pass over the median pass time.

        A pass time is the sum of its calls' reference-speed times: the
        benchmark's own work between calls (input generation, reference
        checks, calibration) is left out.  Every pass runs the same
        operations, and the median keeps one pass caught in a slow phase
        from moving the figure.
        """
        return self.completed / self.passes / median(self.pass_times)

    @property
    def twoq(self) -> float:
        """Two-qubit gates of one pass's outputs, averaged over passes."""
        return self.twoq_total / self.passes

    @property
    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.extra_rss_kb)


def run_passes(
    ops: Sequence[Op], seconds: float, tracer: Tracer, first_pass: int = 0
) -> PassLog:
    """Whole passes over ``ops`` until ``seconds`` are used up.

    A new pass starts only while the mean pass so far still fits in the
    remaining time, so every run attempts the same operations a whole
    number of times.  Cold ops draw input number ``first_pass + pass``,
    so inputs stay new across several calls on one workload.  Checks and
    input generation run outside the timed calls; a calibration loop
    runs before each call.
    """
    log = PassLog(ops)
    start = now()
    while True:
        for op in ops:
            inp = op.input_for(first_pass + log.passes)
            log.gauge.tick()
            token = set_operation(f"{op.name}#{log.passes}")
            try:
                with tracer.span(op.layer, op=op.name):
                    t0 = now()
                    out = op.call(inp)
                    elapsed = now() - t0
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                elapsed = now() - t0
                log.record(op, elapsed, False, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                _op_id.reset(token)
            ok = bool(op.check(inp, out))
            log.record(op, elapsed, ok)
            log.twoq_total += op.twoq(inp, out)
            if log.passes == 0:
                log.outputs[op.name] = out
        log.end_pass()
        elapsed = now() - start
        if elapsed + elapsed / log.passes > seconds:
            break
    return log


# -- statistics -------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


TAIL_PERCENTILE = 95.0


def tail(values: Sequence[float]):
    """``(value, percentile, count)``: the p95 of a latency sample.

    Every workload's timed phase yields at least 200 calls, so at least
    ten lie beyond p95.  Higher percentiles were tried and rejected: on
    the shared two-core machine past p95 they rank single scheduler
    hiccups and moved by a quarter between identical runs.  With fewer
    than forty samples the median stands in (percentile 50).
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 40:
        return median(ordered), 50.0, count
    beyond = math.ceil(count * (1 - TAIL_PERCENTILE / 100))
    return ordered[count - beyond - 1], 100.0 * (count - beyond) / count, count


def latency_metrics(ops, times, ms: float = 1e3) -> Dict[str, Any]:
    """Latency figures over a fixed operation list and its samples."""
    per_op = {name: median(ts) for name, ts in times.items() if ts}
    warm = [per_op[op.name] for op in ops if op.warm and op.name in per_op]
    cold = [per_op[op.name] for op in ops if not op.warm and op.name in per_op]
    samples = [t for ts in times.values() for t in ts]
    tail_value, pct, count = tail(samples)
    return {
        "latency_geomean_ms": geomean(per_op.values()) * ms,
        "latency_warm_ms": geomean(warm) * ms,
        "latency_cold_ms": geomean(cold) * ms,
        "latency_tail_ms": tail_value * ms,
        "tail_percentile": pct,
        "tail_samples": count,
    }


def peak_rss_mb(extra_kb: int = 0) -> float:
    """Peak resident set of this process (plus ``extra_kb``) in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + extra_kb) / 1024.0


def process_peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of a live child process, in kB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0

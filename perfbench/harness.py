"""Measurement machinery shared by every workload.

* exact latency percentiles (nearest rank over every recorded sample);
* spans recorded around calls into the program's layers, and the
  self-time ledger built from them;
* per-process accounting read from ``/proc`` (CPU busy, peak RSS);
* the host fingerprint and a fixed pure-Python calibration kernel.

Nothing here imports the program under test, so the self-tests can run
it without a built checkout.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import inspect
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


# -- percentiles ---------------------------------------------------------------


def percentile(ordered, q):
    """Nearest-rank ``q`` quantile of an ascending sequence.

    The sample at rank ``ceil(q * n)`` (1-based): the smallest value with
    at least a ``q`` share of the samples at or below it.
    """
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q!r} outside (0, 1]")
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[rank - 1]


def beyond(n, q):
    """How many of ``n`` samples rank above the nearest-rank ``q`` quantile."""
    return n - max(1, math.ceil(q * n - 1e-9))


def latency_summary(samples_s):
    """p50, p90 and p99 in milliseconds plus the sample count.

    A percentile is ``None`` when fewer than :data:`MIN_BEYOND` samples
    lie beyond it: such a figure would be set by a handful of calls.
    """
    ordered = sorted(samples_s)
    n = len(ordered)
    out = {"n": n}
    for label, q in (("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99)):
        out[label] = (percentile(ordered, q) * 1e3
                      if n and beyond(n, q) >= MIN_BEYOND else None)
    return out


def describe(summary):
    """One line of a latency summary, for the notes printed with a result."""
    def ms(value):
        return "n/a" if value is None else f"{value:.3f} ms"

    return (f"n={summary['n']} p50 {ms(summary['p50_ms'])} "
            f"p90 {ms(summary['p90_ms'])} p99 {ms(summary['p99_ms'])}")


def latency_metrics(out, summary, suffix=""):
    """The end-to-end latency figure of one load point.

    A load point without enough samples for its p90 fails the run.
    """
    if summary["p90_ms"] is None:
        out.check(f"latency-samples{suffix}", f"only {summary['n']} samples")
    return {f"lat_p50_ms{suffix}": summary["p50_ms"] or 0.0}


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# -- spans and the ledger --------------------------------------------------------


class Tracer:
    """Spans around calls into the program, kept in memory until the end.

    :meth:`wrap` replaces a function or method on its owner (a class or a
    module) with a timing wrapper; :meth:`restore` puts every original
    back.  Each span records its name, start, end, the span that was open
    when it started (its parent) and the request id current at the time.
    Parents follow :mod:`contextvars`, so spans opened by concurrent
    asyncio tasks attach to the span that created the task.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, request_id]`` per span.
        self.spans: list = []
        self._parent = contextvars.ContextVar("perfbench_span", default=-1)
        #: The request (flow or burst) the current call serves.
        self.request = contextvars.ContextVar("perfbench_request", default=None)
        self._originals: list = []

    def open_span(self, name):
        """Open a span now; :meth:`close_span` with the returned pair ends it."""
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, self._parent.get(),
             self.request.get()]
        )
        return index, self._parent.set(index)

    def close_span(self, index, token) -> None:
        self.spans[index][2] = time.perf_counter()
        self._parent.reset(token)

    @contextlib.contextmanager
    def span(self, name):
        index, token = self.open_span(name)
        try:
            yield index
        finally:
            self.close_span(index, token)

    def wrap(self, owner, attr, name, on_result=None, request=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``name`` may be a callable ``(args, kwargs) -> str`` to name the
        span per call; ``on_result(result, args)`` sees each return value
        (used to count bytes on the wire); ``request(args, kwargs)`` names
        the request the call serves, which every span under it inherits.
        """
        original = getattr(owner, attr)
        if getattr(original, "__perfbench_wrapped__", False):
            return
        namer = name if callable(name) else (lambda args, kwargs: name)
        tracer = self

        def enter(args, kwargs):
            rtoken = None
            if request is not None:
                rtoken = tracer.request.set(request(args, kwargs))
            index, token = tracer.open_span(namer(args, kwargs))
            return index, token, rtoken

        def leave(index, token, rtoken):
            tracer.close_span(index, token)
            if rtoken is not None:
                tracer.request.reset(rtoken)

        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                opened = enter(args, kwargs)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    leave(*opened)
                if on_result is not None:
                    on_result(result, args)
                return result
        else:
            def wrapper(*args, **kwargs):
                opened = enter(args, kwargs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    leave(*opened)
                if on_result is not None:
                    on_result(result, args)
                return result

        wrapper.__perfbench_wrapped__ = True
        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, replacement) -> None:
        """Put ``replacement`` in place of ``owner.attr`` until :meth:`restore`."""
        original = getattr(owner, attr)
        replacement.__wrapped__ = original
        self._originals.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._originals:
            owner, attr, original, own = self._originals.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span: its duration minus the part its children cover."""
    children = collections.defaultdict(list)
    for name, start, end, parent, _rid in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, _parent, _rid) in enumerate(spans):
        out.append((end - start) - covered_length(children[index], start, end))
    return out


def ledger(spans, root):
    """Aggregate the spans nested under span ``root`` by name.

    Returns ``{name: {"count", "total_s", "self_s", "share"}}`` where
    ``share`` is the self time over the root's duration.  Only spans whose
    chain of parents reaches ``root`` with each interval inside its
    parent's count, so the shares of one root add up to 1.  Spans outside
    that tree (tasks outliving the call that started them) are returned
    under the key ``"(detached)"`` with their count only, when they started
    inside the root's interval.
    """
    selfs = self_times(spans)
    r_start, r_end = spans[root][1], spans[root][2]
    inside = {root}
    for index, (name, start, end, parent, _rid) in enumerate(spans):
        if index == root or parent not in inside:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        if start >= p_start and end <= p_end:
            inside.add(index)
    wall = r_end - r_start
    out: dict = {}
    detached = 0
    for index, span in enumerate(spans):
        if index not in inside:
            if r_start <= span[1] <= r_end:
                detached += 1
            continue
        entry = out.setdefault(
            span[0], {"count": 0, "total_s": 0.0, "self_s": 0.0, "share": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += selfs[index]
    for entry in out.values():
        entry["share"] = entry["self_s"] / wall if wall > 0 else 0.0
    if detached:
        out["(detached)"] = {"count": detached, "total_s": 0.0,
                             "self_s": 0.0, "share": 0.0}
    return out


def merge_ledgers(ledgers):
    """Sum several roots' ledgers; shares are recomputed over their walls."""
    out: dict = {}
    wall = 0.0
    for entries, root_wall in ledgers:
        wall += root_wall
        for name, entry in entries.items():
            acc = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "share": 0.0}
            )
            acc["count"] += entry["count"]
            acc["total_s"] += entry["total_s"]
            acc["self_s"] += entry["self_s"]
    for entry in out.values():
        entry["share"] = entry["self_s"] / wall if wall > 0 else 0.0
    return out


def durations(spans, name):
    """Durations (seconds) of every span called ``name``."""
    return [s[2] - s[1] for s in spans if s[0] == name and s[2] is not None]


def format_ledger(entries, decisions):
    """Human-readable ledger lines, largest self share first."""
    lines = [f"{'span':34s} {'count':>9s} {'self share':>10s} "
             f"{'self us/dec':>11s} {'total us/call':>13s}"]
    for name, e in sorted(entries.items(), key=lambda kv: -kv[1]["share"]):
        per_dec = e["self_s"] / decisions * 1e6 if decisions else 0.0
        per_call = e["total_s"] / e["count"] * 1e6 if e["count"] else 0.0
        lines.append(f"{name:34s} {e['count']:9d} {e['share']:10.4f} "
                     f"{per_dec:11.3f} {per_call:13.3f}")
    total = sum(e["share"] for e in entries.values())
    lines.append(f"{'(sum of shares)':34s} {'':9s} {total:10.4f}")
    return lines


# -- processes -------------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def cpu_seconds(pid="self"):
    """User plus system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        raw = fh.read().decode()
    # The command name may hold spaces; the fields resume after its ")".
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mib(pid="self"):
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class PeakRss:
    """Largest ``VmHWM`` seen per pid; the sum is the system's peak RSS."""

    def __init__(self) -> None:
        self.by_pid: dict = {}

    def sample(self, pid) -> None:
        try:
            value = peak_rss_mib(pid)
        except (FileNotFoundError, ProcessLookupError, RuntimeError):
            return  # already reaped; its last sample stands
        key = os.getpid() if pid == "self" else pid
        self.by_pid[key] = max(self.by_pid.get(key, 0.0), value)

    @property
    def total(self) -> float:
        return sum(self.by_pid.values())


# -- host -----------------------------------------------------------------------


def calibration_ms(rounds=3):
    """Median time of a fixed pure-Python kernel (integer and dict work)."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def host_fingerprint():
    """What a result must be read beside: interpreter, numpy, CPUs, speed."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - the program needs numpy anyway
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "calibration_ms": calibration_ms(),
    }


# -- results ---------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run hands back to the command line."""

    attempted: int = 0
    failed: int = 0
    #: check name -> None when it passed, else the reason it failed.
    checks: dict = field(default_factory=dict)
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: Free-form lines printed before the result (ledger, notes).
    notes: list = field(default_factory=list)
    #: Spans of a traced run, written out when the run ends.
    spans: list = field(default_factory=list)

    def check(self, name, problem) -> None:
        self.checks[name] = problem

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(v is None for v in self.checks.values())

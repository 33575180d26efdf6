"""Closed-loop runner, tracer and statistics shared by the workloads.

A workload is a list of rounds; a round is a list of :class:`Op`.  The loop
runs whole rounds, one call at a time, until the run length has passed and
at least ``MIN_OPS`` operations were attempted, so every run attempts the
same operations in the same proportions.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# Enough operations that at least ten fall beyond the 90th percentile.
MIN_OPS = 110
IMPORT_REPEATS = 3
COLD_START_REPEATS = 5
SETUP_REPEATS = 3
# Excess terms are floored here so a sum over exact answers stays above 0.
EXCESS_RESOLUTION_BITS = 1e-9

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class OpFailed(Exception):
    """The operation did not behave as documented (e.g. wrong exit code)."""


@dataclass
class Op:
    """One closed-loop operation.

    ``fn`` performs the call and returns its result; ``check`` inspects a
    result afterwards and returns a list of problems; ``fingerprint`` turns a
    result into bytes that must repeat exactly for the same inputs.
    ``layer`` names the layer whose behaviour the operation exercises, and
    ``tags`` label it for the per-layer metrics.
    """
    name: str
    layer: str
    fn: Callable[[], Any]
    check: Callable[[Any], list]
    fingerprint: Callable[[Any], bytes]
    tags: dict = field(default_factory=dict)


@dataclass
class Workload:
    """Rounds of operations plus the workload's own answer-quality phase.

    ``quality`` runs the fixed known-answer panel and returns
    (cf_excess_bits, problems); ``final_check`` checks properties that span
    several operations of a run; ``record_metrics`` derives per-layer
    metrics from the results; ``patches`` lists (owner, attribute, span
    name[, classmethod]) wrapped in traced runs only.
    """
    rounds: list
    quality: Callable[[], tuple]
    final_check: Callable[[list], list] = lambda records: []
    record_metrics: Callable[[list], dict] = lambda records: {}
    patches: list = field(default_factory=list)


@dataclass
class Record:
    op: Op
    round_index: int
    latency_ns: int
    result: Any = None
    error: str | None = None


class NullTracer:
    """Tracing off: wrapping returns the function itself."""
    enabled = False

    def wrap(self, fn, name):
        return fn

    def patch(self, owner, attr, name, method=None):
        pass

    def restore(self):
        pass


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, op index]."""
    enabled = True

    def __init__(self):
        self.spans: list = []
        self.op_index = None
        self._stack: list = []
        self._patched: list = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter_ns(), 0,
                   stack[-1] if stack else None, self.op_index]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
        return traced

    def patch(self, owner, attr, name, method=None):
        """Wrap ``owner.attr`` where callers look it up; undone by restore().

        With ``method``, ``owner.attr`` is a class used only through that
        classmethod, and is replaced by a stand-in exposing the traced one.
        """
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        if method is None:
            setattr(owner, attr, self.wrap(original, name))
        else:
            stand_in = SimpleNamespace(
                **{method: self.wrap(getattr(original, method), name)})
            setattr(owner, attr, stand_in)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()



def span_cost_ns(calls: int = 20000) -> float:
    """Extra time one span adds to a call, from a calibration loop."""
    def noop():
        return None
    traced = Tracer().wrap(noop, "calibration")
    best = []
    for fn in (noop, traced, noop, traced):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        best.append((time.perf_counter_ns() - t0) / calls)
    return max(0.0, min(best[1], best[3]) - min(best[0], best[2]))


def run_loop(rounds, seconds: float, tracer) -> tuple[list, float]:
    """Run whole rounds until ``seconds`` have passed and MIN_OPS were tried."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            if tracer.enabled:
                tracer.op_index = len(records)
                call = tracer.wrap(op.fn, "op")
            else:
                call = op.fn
            rec = Record(op=op, round_index=r, latency_ns=0)
            t0 = time.perf_counter_ns()
            try:
                rec.result = call()
            except OpFailed as exc:
                rec.error = str(exc)
            except Exception as exc:  # a crash is a failed operation
                rec.error = f"{type(exc).__name__}: {exc}"
            rec.latency_ns = time.perf_counter_ns() - t0
            records.append(rec)
        r += 1
        if time.perf_counter() >= deadline and len(records) >= MIN_OPS:
            break
    return records, time.perf_counter() - start


def check_records(records, n_distinct_rounds: int) -> list:
    """Checks on every successful result; repeats must reproduce the first."""
    problems = []
    first: dict = {}
    for rec in records:
        if rec.error is not None:
            continue
        key = (rec.round_index % n_distinct_rounds, rec.op.name)
        fp = rec.op.fingerprint(rec.result)
        if key in first:
            if fp != first[key]:
                problems.append(f"{rec.op.name}: repeat of round "
                                f"{key[0]} differs from its first run")
            continue
        first[key] = fp
        problems.extend(f"{rec.op.name}: {p}" for p in rec.op.check(rec.result))
    return problems


def quantile(values, q: float) -> float:
    """Inclusive-method quantile (q in (0, 1)), as statistics.quantiles."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return float(values[lo] + (values[hi] - values[lo]) * (pos - lo))


def mismatch(name: str, got: float, want: float, tol: float) -> list:
    """[] when |got - want| <= tol, else one problem naming the value."""
    return [] if abs(got - want) <= tol else [
        f"{name} {got!r} != reference {want!r}"]


def excess_sum(pairs) -> float:
    """Sum of (reported - exact), each term floored at the resolution."""
    return float(sum(max(v - exact, EXCESS_RESOLUTION_BITS)
                     for v, exact in pairs))


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.optimize
t2 = time.perf_counter()
import cohkit.cli
t3 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "scipy_optimize": t2 - t1,
                  "cohkit": t3 - t2}))
"""


def import_times() -> dict:
    """Median import seconds of numpy, scipy.optimize and cohkit.cli, each
    taken in fresh interpreters started one after another."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    out = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    out["total"] = statistics.median(sum(s.values()) for s in samples)
    return out


def cold_start() -> tuple[float, list]:
    """Median wall seconds of ``python -m cohkit.cli --version`` in a fresh
    interpreter; also returns the problems seen in its output."""
    times, problems = [], []
    for _ in range(COLD_START_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cohkit.cli", "--version"],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.startswith("cohkit "):
            problems.append(f"cold start: exit {proc.returncode}, "
                            f"output {proc.stdout[:60]!r}")
    return statistics.median(times), problems


def environment() -> dict:
    import numpy
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "nproc": os.cpu_count(), "nproc_affinity": affinity,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


@dataclass
class Span:
    name: str
    duration_ns: int
    self_ns: int
    op: Op | None


def spans_with_self_time(tracer, records) -> list:
    """Resolve raw spans: duration, self time (minus direct children) and
    the operation each span ran under."""
    raw = tracer.spans
    child_ns = [0] * len(raw)
    for name, start, end, parent, _ in raw:
        if parent is not None:
            child_ns[parent] += end - start
    out = []
    for i, (name, start, end, parent, op_index) in enumerate(raw):
        op = records[op_index].op if op_index is not None else None
        out.append(Span(name, end - start, end - start - child_ns[i], op))
    return out


def median_of(values, scale: float) -> float:
    """Median scaled into the metric's unit; 0.0 when the layer was not
    exercised by this workload."""
    values = list(values)
    return float(statistics.median(values)) * scale if values else 0.0

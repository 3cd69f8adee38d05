"""Layer tracer: timing wrappers installed from outside the program.

The tracer replaces public entry points of the ``repro`` modules with thin
wrappers (:meth:`Tracer.wrap`) and keeps everything in memory until the run
ends.  Two kinds of wrapper exist:

* **span** wrappers, for calls made once per run, chunk, span or job: each
  call is recorded as a span ``(id, parent, name, start, end, run)``;
* **accumulator** wrappers, for per-slot calls (the DRAM scheduler, renaming,
  bank mapping, MMA selects): each call only adds to a count and a self-time
  total, because one span per slot would be too many.

Self time is a call's duration minus the time covered by wrapped calls made
inside it.  The wrapper's own bookkeeping is excluded from every layer and
kept in :attr:`Tracer.overhead_s`.  Two costs of a wrapper fall outside what
it can time itself: entering and leaving it (which lands in the caller) and
the clock reads inside the callee's interval.  :func:`calibrate` measures
both once per tracer on a wrapped no-op, and every call moves them from the
layers to the overhead, so that for the root span::

    root duration == sum(self_s.values()) + overhead_s

where the root's own self time (``self_s[ROOT]``) is the part of the timed
phase no wrapped layer covers: the *unattributed* residual.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Name of the root span that brackets a workload's timed phase.
ROOT = "bench.run"


class Tracer:
    """In-memory span and accumulator store for one traced run."""

    def __init__(self, run_id: str, raw: bool = False) -> None:
        self.run_id = run_id
        #: Span records: dicts with id, parent, name, start, end, run.
        self.spans: List[Dict[str, Any]] = []
        #: Self seconds per layer name.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Outermost calls per layer name (a layer calling itself, e.g. a
        #: subclass delegating to ``super()``, counts once).
        self.calls: Dict[str, int] = defaultdict(int)
        #: Seconds spent in the wrappers' own bookkeeping.
        self.overhead_s = 0.0
        # Frames: [name, child_seconds, span_id].  The bottom frame stands
        # for code outside every traced span.
        self._stack: List[list] = [["", 0.0, None]]
        self._next_id = 1
        self._patches: List[tuple] = []
        #: Per-call seconds charged to the caller and to the callee by a
        #: wrapper beyond what it times itself (see :func:`calibrate`).
        self.hidden_s, self.bias_s = (0.0, 0.0) if raw else calibrate()

    # ------------------------------------------------------------------ #
    # Manual spans (for phases no single function call brackets).
    # ------------------------------------------------------------------ #
    def begin(self, name: str) -> None:
        """Open a span; it must be closed by :meth:`end` with the same name."""
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([name, 0.0, span_id, self._stack[-1][2],
                            time.perf_counter()])

    def end(self, name: str) -> None:
        frame = self._stack.pop()
        if frame[0] != name:
            raise RuntimeError(f"span {name!r} closed while {frame[0]!r} "
                               "is open")
        finished = time.perf_counter()
        elapsed = finished - frame[4]
        self.self_s[name] += elapsed - frame[1]
        self.calls[name] += 1
        self.spans.append({"id": frame[2], "parent": frame[3], "name": name,
                           "start": frame[4], "end": finished,
                           "run": self.run_id})
        self._stack[-1][1] += elapsed

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, owner: Any, attr: str, name: str, span: bool = False,
             post: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a timing
        wrapper.  ``post(args, kwargs, result, outermost)`` runs after a
        successful call, outside every timed interval."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        stack = self._stack
        perf = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        tracer = self
        hidden = self.hidden_s
        bias = self.bias_s

        def wrapper(*args, **kwargs):
            entered = perf()
            parent = stack[-1]
            if span:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[2]
            frame = [name, 0.0, span_id]
            stack.append(frame)
            ok = False
            started = perf()
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                finished = perf()
                stack.pop()
                elapsed = finished - started
                self_s[name] += elapsed - frame[1] - bias
                outermost = parent[0] != name
                if outermost:
                    calls[name] += 1
                if span:
                    tracer.spans.append({
                        "id": span_id, "parent": parent[2], "name": name,
                        "start": started, "end": finished,
                        "run": tracer.run_id})
                if ok and post is not None:
                    post(args, kwargs, result, outermost)
                left = perf()
                parent[1] += left - entered + hidden
                tracer.overhead_s += left - entered + hidden - elapsed + bias
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def replace_item(self, table: dict, key: str, value: Any) -> None:
        """Swap one entry of a registry dict until :meth:`restore`."""
        self._patches.append((table, key, table[key]))
        table[key] = value

    def restore(self) -> None:
        """Undo every :meth:`wrap` and :meth:`replace_item`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> List[float]:
        """Inclusive durations (seconds) of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        """Write spans, self times and counts as one JSON document."""
        document = {"run": self.run_id, "spans": self.spans,
                    "self_s": dict(self.self_s), "calls": dict(self.calls),
                    "overhead_s": self.overhead_s}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")


class _Probe:
    def noop(self, value):
        return value


def calibrate(calls: int = 50_000) -> tuple:
    """``(hidden, bias)`` seconds per wrapped call, measured on a no-op.

    ``hidden``: entering and leaving the wrapper, which lands in the
    caller's self time (the root's self time per call, less the cost of a
    plain call).  ``bias``: the clock reads inside the callee's interval
    (the no-op's self time, less its own body).  Best of three rounds.
    """
    probe = _Probe()
    perf = time.perf_counter
    best = None
    for _ in range(3):
        started = perf()
        for value in range(calls):
            pass
        loop = (perf() - started) / calls
        started = perf()
        for value in range(calls):
            probe.noop(value)
        plain = (perf() - started) / calls
        tracer = Tracer("calibration", raw=True)
        tracer.wrap(_Probe, "noop", "noop")
        try:
            tracer.begin("root")
            for value in range(calls):
                probe.noop(value)
            tracer.end("root")
        finally:
            tracer.restore()
        hidden = tracer.self_s["root"] / calls - plain
        bias = tracer.self_s["noop"] / calls - (plain - loop)
        if best is None or hidden + bias < sum(best):
            best = (max(0.0, hidden), max(0.0, bias))
    return best


def check_nesting(spans: List[Dict[str, Any]]) -> List[str]:
    """Problems with the span tree: a parent that was never recorded, or a
    child that starts before or ends after its parent.  Empty when sound."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        parent = s["parent"]
        if parent is None:
            continue
        outer = by_id.get(parent)
        if outer is None:
            problems.append(f"{s['name']}#{s['id']}: parent {parent} missing")
        elif s["start"] < outer["start"] or s["end"] > outer["end"]:
            problems.append(f"{s['name']}#{s['id']} escapes "
                            f"{outer['name']}#{parent}")
    return problems


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]

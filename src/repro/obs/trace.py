"""Structured run traces: timestamped NDJSON events plus an inspector.

``--trace-out trace.ndjson`` on the CLI installs a :class:`TraceWriter` as
the *current writer*; instrumented code emits events through the
module-level :func:`emit`, which is a no-op (one ``None`` check) when no
writer is installed.  One event per line::

    {"ts": 1754640000.12, "elapsed_s": 0.0031, "event": "chunk",
     "start_slot": 0, "slots": 65536, "duration_s": 0.171, ...}

``ts`` is wall-clock (``time.time()``), ``elapsed_s`` is monotonic time
since the writer was opened, ``event`` names the event type; every other
field is event-specific.  The emitted event types:

=====================  =================================================
event                  emitted by
=====================  =================================================
``trace_open``         the writer itself, first line of every file
``run_start``          ``ClosedLoopSimulation.run`` (any engine)
``run_end``            ditto — includes the report's headline numbers
``chunk``              every streamed execution window
``stream_finish``      streaming epilogue — cumulative session counters
``checkpoint_saved``   ``StreamingSimulation.save_checkpoint``
``checkpoint_resumed`` ``StreamingSimulation.load_checkpoint``
``fabric_stage``       switch crossbar stage completion
``switch_run``         switch port-stage completion
``sweep_start``        ``SweepRunner.run`` entry (job counts)
``job_dispatched``     per cache-missing job before execution
``job_cached``         per cache-hit job
``pool_start``         worker fleet spin-up (workers, job count)
``job_retry``          per retry of a transiently-failed job
``job_timeout``        per job killed for exceeding ``--timeout``
``worker_death``       per worker process that died mid-job
``job_failed``         per job permanently quarantined as a failure
``sweep_end``          ``SweepRunner.run`` exit (counts, duration)
``sweep_abort``        ``SweepRunner.run`` raised (culprit tag, error)
``cache_quarantined``  per corrupt cache entry renamed ``*.bad``
``grid_point``         per compiled YAML grid point
``fuzz_start``         ``fuzz_many`` entry (seeds, master seed)
``fuzz_case``          per differential fuzz case
``fuzz_divergence``    per diverging fuzz *leg*
``fuzz_end``           ``fuzz_many`` exit (case/divergence counts)
``bench_start``        ``run_suite`` entry (repeats, case count)
``bench_case``         per benchmark of ``repro bench``
``trace_close``        the writer itself, on close
=====================  =================================================

Events are flushed per line so a crashed run's trace is readable up to the
crash.  Writers are process-local: sweep worker processes do not inherit
the parent's writer (job lifecycle events are emitted parent-side).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import TraceFormatError

__all__ = [
    "TraceWriter",
    "emit",
    "get_trace",
    "read_events",
    "render_trace_summary",
    "set_trace",
    "summarize_trace",
    "using_trace",
]


class TraceWriter:
    """Appends NDJSON events to an open file, one line per event."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = os.fspath(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._opened = time.perf_counter()
        self.events_written = 0
        self.emit("trace_open", pid=os.getpid())

    def emit(self, event: str, **fields: Any) -> None:
        """Write one event line (wall timestamp + monotonic elapsed)."""
        if self._handle is None:
            return
        record: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "elapsed_s": round(time.perf_counter() - self._opened, 6),
            "event": event,
        }
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=False,
                                      default=str) + "\n")
        self._handle.flush()
        self.events_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self.emit("trace_close", events=self.events_written)
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- #
# The current writer
# --------------------------------------------------------------------- #

_current: Optional[TraceWriter] = None


def get_trace() -> Optional[TraceWriter]:
    """The current writer, or ``None`` when tracing is off."""
    return _current


def set_trace(writer: Optional[TraceWriter]) -> Optional[TraceWriter]:
    """Install ``writer`` as the current writer (``None`` disables)."""
    global _current
    previous = _current
    _current = writer
    return previous


@contextlib.contextmanager
def using_trace(writer: TraceWriter) -> Iterator[TraceWriter]:
    """Temporarily install ``writer`` (context manager); does not close it."""
    previous = set_trace(writer)
    try:
        yield writer
    finally:
        set_trace(previous)


def emit(event: str, **fields: Any) -> None:
    """Emit through the current writer; a no-op when tracing is off."""
    writer = _current
    if writer is not None:
        writer.emit(event, **fields)


# --------------------------------------------------------------------- #
# The inspector (``repro trace summarize``)
# --------------------------------------------------------------------- #

def read_events(path: os.PathLike) -> List[Dict[str, Any]]:
    """Parse an NDJSON trace file into a list of event dicts.

    Raises ``OSError`` on unreadable files and ``ValueError`` when a line is
    not a JSON object with an ``event`` field (truncated final lines from a
    crashed writer are tolerated and skipped).
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A writer killed mid-line leaves one truncated record; the
                # events before it are still a valid trace.
                continue
            if not isinstance(record, dict) or "event" not in record:
                raise TraceFormatError(
                    f"{os.fspath(path)}:{number}: not a trace event")
            events.append(record)
    return events


def summarize_trace(path: os.PathLike) -> Dict[str, Any]:
    """Aggregate a trace file into headline numbers.

    Returns a dict with the event-type histogram, the wall-clock span, chunk
    throughput (from ``chunk`` events), checkpoint save/restore latencies,
    sweep cache hit/miss counts and any fuzz divergences.
    """
    events = read_events(path)
    by_type: Dict[str, int] = {}
    for event in events:
        by_type[event["event"]] = by_type.get(event["event"], 0) + 1
    summary: Dict[str, Any] = {
        "path": os.fspath(path),
        "events": len(events),
        "by_type": by_type,
        "span_s": (events[-1]["elapsed_s"] - events[0]["elapsed_s"]
                   if events else 0.0),
    }
    chunks = [e for e in events if e["event"] == "chunk"]
    if chunks:
        slots = sum(e.get("slots", 0) for e in chunks)
        busy = sum(e.get("duration_s", 0.0) for e in chunks)
        summary["chunk_slots_total"] = slots
        summary["chunk_time_s"] = round(busy, 6)
        if busy > 0:
            summary["chunk_kslots_per_s"] = round(slots / busy / 1e3, 2)
    saves = [e for e in events if e["event"] == "checkpoint_saved"]
    if saves:
        summary["checkpoints_saved"] = len(saves)
        summary["checkpoint_save_mean_s"] = round(
            sum(e.get("duration_s", 0.0) for e in saves) / len(saves), 6)
    resumes = [e for e in events if e["event"] == "checkpoint_resumed"]
    if resumes:
        summary["checkpoints_resumed"] = len(resumes)
        summary["resumed_from_slot"] = resumes[-1].get("slot")
    cached = by_type.get("job_cached", 0)
    dispatched = by_type.get("job_dispatched", 0)
    if cached or dispatched:
        summary["jobs_cached"] = cached
        summary["jobs_dispatched"] = dispatched
    divergences = [e for e in events if e["event"] == "fuzz_divergence"]
    if divergences:
        summary["fuzz_divergences"] = [
            {"index": e.get("index"), "leg": e.get("leg"),
             "field": e.get("field")}
            for e in divergences]
    runs = [e for e in events if e["event"] == "run_end"]
    if runs:
        summary["runs"] = len(runs)
        summary["slots_simulated"] = sum(e.get("slots", 0) for e in runs)
    return summary


def render_trace_summary(summary: Dict[str, Any]) -> str:
    """Human-readable form of :func:`summarize_trace`'s dict."""
    lines = [f"trace {summary['path']}: {summary['events']} events over "
             f"{summary['span_s']:.3f}s"]
    for name in sorted(summary["by_type"]):
        lines.append(f"  {name}: {summary['by_type'][name]}")
    if "chunk_slots_total" in summary:
        rate = summary.get("chunk_kslots_per_s")
        rate_text = f" ({rate} kslots/s)" if rate is not None else ""
        lines.append(f"chunks: {summary['by_type'].get('chunk', 0)} windows, "
                     f"{summary['chunk_slots_total']} slots in "
                     f"{summary['chunk_time_s']:.3f}s{rate_text}")
    if "checkpoints_saved" in summary:
        lines.append(f"checkpoints: {summary['checkpoints_saved']} saved, "
                     f"mean {summary['checkpoint_save_mean_s'] * 1e3:.1f}ms")
    if "checkpoints_resumed" in summary:
        lines.append(f"resumed: {summary['checkpoints_resumed']} time(s), "
                     f"last from slot {summary['resumed_from_slot']}")
    if "jobs_cached" in summary or "jobs_dispatched" in summary:
        lines.append(f"jobs: {summary.get('jobs_dispatched', 0)} dispatched, "
                     f"{summary.get('jobs_cached', 0)} served from cache")
    if "runs" in summary:
        lines.append(f"runs: {summary['runs']}, "
                     f"{summary['slots_simulated']} slots simulated")
    for div in summary.get("fuzz_divergences", []):
        lines.append(f"DIVERGENCE: case {div['index']} "
                     f"leg {div['leg']} ({div['field']})")
    return "\n".join(lines)

"""Trace and metrics exporters.

Two trace formats cover the two consumption modes:

* **Chrome trace** (:func:`write_chrome_trace`) — the Trace Event Format
  consumed by ``chrome://tracing`` and Perfetto.  Spans become ``B``/``E``
  duration pairs, instants become ``i`` events, counter samples become
  ``C`` events, and ``M`` metadata rows name the process/thread lanes.
* **Flat rows** (:func:`write_jsonl`, :func:`write_csv`) — one row per
  event for pandas/awk-style analysis.

Exports are byte-deterministic for a deterministic simulation: every field
comes from sim-time or stable ordering, keys are sorted, and no wall-clock
or id() values leak in.  Unfinished spans (a producer mid-fetch when the
run ends) are dropped from duration output and counted in the returned
stats so truncation is visible rather than silent.
"""

from __future__ import annotations

import csv
import json
from typing import TYPE_CHECKING, Dict, List, Optional

from .spans import PHASE_DURATION, PHASE_INSTANT, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hub import Telemetry

#: microseconds per simulated second (Chrome ``ts`` is in microseconds)
_US = 1e6


def _span_args(span: Span) -> Dict[str, object]:
    args: Dict[str, object] = dict(span.args)
    if span.trace_id is not None:
        args["trace_id"] = span.trace_id
    return args


def chrome_trace_events(telemetry: "Telemetry") -> List[Dict[str, object]]:
    """Render a hub's events as a Chrome ``traceEvents`` list.

    Process ids are assigned per hub process label (in attach order) and
    thread ids per track (in first-appearance order within the process),
    both announced via ``M`` metadata rows so viewers show names, not
    numbers.
    """
    pids: Dict[str, int] = {name: i + 1 for i, name in enumerate(telemetry.processes())}
    tids: Dict[tuple, int] = {}
    meta: List[Dict[str, object]] = []
    timed: List[tuple] = []  # ((ts, seq), event)

    def pid_for(process: str) -> int:
        pid = pids.get(process)
        if pid is None:
            pid = len(pids) + 1
            pids[process] = pid
        return pid

    def tid_for(process: str, track: str) -> int:
        key = (process, track)
        tid = tids.get(key)
        if tid is None:
            tid = len([k for k in tids if k[0] == process]) + 1
            tids[key] = tid
            meta.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid_for(process),
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    for span in telemetry.events:
        pid = pid_for(span.process)
        tid = tid_for(span.process, span.track)
        if span.phase == PHASE_INSTANT:
            timed.append(
                (
                    (span.start * _US, span.seq),
                    {
                        "ph": "i",
                        "name": span.name,
                        "cat": span.category,
                        "pid": pid,
                        "tid": tid,
                        "ts": span.start * _US,
                        "s": "t",
                        "args": _span_args(span),
                    },
                )
            )
        elif span.finished:
            common = {"name": span.name, "cat": span.category, "pid": pid, "tid": tid}
            timed.append(
                (
                    (span.start * _US, span.seq),
                    {"ph": "B", "ts": span.start * _US, "args": _span_args(span), **common},
                )
            )
            timed.append(
                ((span.end * _US, span.end_seq), {"ph": "E", "ts": span.end * _US, **common})
            )

    for sample in telemetry.counter_samples:
        timed.append(
            (
                (sample.time * _US, sample.seq),
                {
                    "ph": "C",
                    "name": sample.name,
                    "pid": pid_for(sample.process),
                    "tid": 0,
                    "ts": sample.time * _US,
                    "args": {"value": sample.value},
                },
            )
        )

    # Metadata first, then (ts, emission seq).  Seq ties to the hub's
    # single-threaded emission order, so same-timestamp B/E edges stay
    # well-nested (zero-length spans in particular).
    timed.sort(key=lambda pair: pair[0])
    events: List[Dict[str, object]] = []
    for name, pid in pids.items():
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": name}}
        )
    events.extend(meta)
    events.extend(ev for _, ev in timed)
    return events


def write_chrome_trace(telemetry: "Telemetry", path: str) -> Dict[str, int]:
    """Write a Chrome/Perfetto-loadable JSON trace; returns export stats."""
    events = chrome_trace_events(telemetry)
    unfinished = sum(
        1 for s in telemetry.events if s.phase == PHASE_DURATION and not s.finished
    )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.telemetry",
            "dropped_events": telemetry.dropped,
            "unfinished_spans": unfinished,
        },
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    return {
        "events": len(events),
        "unfinished_spans": unfinished,
        "dropped_events": telemetry.dropped,
    }


def _flat_rows(telemetry: "Telemetry") -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for span in telemetry.events:
        rows.append(
            {
                "kind": "instant" if span.phase == PHASE_INSTANT else "span",
                "name": span.name,
                "category": span.category,
                "process": span.process,
                "track": span.track,
                "start": span.start,
                "end": span.end,
                "duration": span.duration if span.finished else None,
                "trace_id": span.trace_id,
                "args": span.args,
            }
        )
    for sample in telemetry.counter_samples:
        rows.append(
            {
                "kind": "counter",
                "name": sample.name,
                "category": "counter",
                "process": sample.process,
                "track": sample.name,
                "start": sample.time,
                "end": sample.time,
                "duration": 0.0,
                "trace_id": None,
                "args": {"value": sample.value},
            }
        )
    rows.sort(key=lambda r: (r["start"], r["kind"], r["track"], r["name"]))
    return rows


def write_jsonl(telemetry: "Telemetry", path: str) -> int:
    """One JSON object per event/sample; returns the row count."""
    rows = _flat_rows(telemetry)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
    return len(rows)


_CSV_FIELDS = [
    "kind",
    "name",
    "category",
    "process",
    "track",
    "start",
    "end",
    "duration",
    "trace_id",
    "args",
]


def write_csv(telemetry: "Telemetry", path: str) -> int:
    """Flat CSV (args JSON-encoded in the last column); returns row count."""
    rows = _flat_rows(telemetry)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["args"] = json.dumps(row["args"], sort_keys=True, separators=(",", ":"))
            writer.writerow(out)
    return len(rows)


def write_metrics_json(telemetry: "Telemetry", path: str) -> int:
    """Dump the metrics registry (``collect()`` rows) as pretty JSON."""
    rows = telemetry.registry.collect()
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(rows)


def validate_chrome_trace(doc: Dict[str, object]) -> Optional[str]:
    """Structurally validate a Chrome-trace document; None if OK.

    Checks the fields viewers actually require (ph/pid/tid, ts on
    non-metadata rows) and that the ``B``/``E`` pairs of each (pid, tid)
    lane nest: an ``E`` closes the ``B`` on top of its lane's stack, with
    the same name.  Returns a description of the first problem found.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return "traceEvents missing or not a list"
    open_stacks: Dict[tuple, List[str]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return f"event {i} is not an object"
        ph = ev.get("ph")
        if ph not in ("B", "E", "i", "C", "M", "X"):
            return f"event {i}: unknown phase {ph!r}"
        for field in ("pid", "tid", "name"):
            if field not in ev:
                return f"event {i}: missing {field}"
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            return f"event {i}: missing numeric ts"
        lane = (ev["pid"], ev["tid"])
        if ph == "B":
            open_stacks.setdefault(lane, []).append(ev["name"])
        elif ph == "E":
            stack = open_stacks.get(lane)
            if not stack:
                return f"event {i}: E with no open B on lane {lane}"
            if stack[-1] != ev["name"]:
                return f"event {i}: E {ev['name']!r} closes open B {stack[-1]!r} on lane {lane}"
            stack.pop()
    for lane, stack in open_stacks.items():
        if stack:
            return f"lane {lane}: unclosed B events {stack}"
    return None

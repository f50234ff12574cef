#!/usr/bin/env python3
"""Schema-check a gsuite Chrome-trace JSON (src/obs export).

Validates that an emitted trace is loadable and internally
consistent:

  * top-level shape: traceEvents list + otherData counter block;
  * every event has the fields its phase requires (X span, C
    counter, M metadata), integer pid/tid, and an integer,
    non-negative ts in the simulated-cycle domain;
  * per (pid, tid) track, timestamps are nondecreasing in file
    order (the exporter merges tracks in index order with a
    per-track stable sort — out-of-order events mean a broken
    export);
  * spans on one track nest or are disjoint (a span that partially
    overlaps its predecessor is malformed);
  * event-count identity: the per-phase counts embedded by the
    exporter in otherData (obs_spans/obs_counters/obs_events)
    equal what is actually in traceEvents, so a truncated or
    hand-edited file fails;
  * trace_dropped_events is present and — unless --allow-drops —
    zero, so ring-buffer overflow can never pass silently.

Exit status: 0 = valid, 1 = validation failure, 2 = usage/IO error.
"""

import argparse
import json
import sys

VALID_PHASES = {"X", "C", "M"}


class Failure(Exception):
    pass


def err(problems, msg):
    problems.append(msg)


def require(cond, problems, msg):
    if not cond:
        err(problems, msg)
    return cond


def validate_event(ev, idx, problems):
    """Field-level checks; returns the phase or None if unusable."""
    if not isinstance(ev, dict):
        err(problems, f"event #{idx}: not an object")
        return None
    ph = ev.get("ph")
    if ph not in VALID_PHASES:
        err(problems, f"event #{idx}: bad ph {ph!r}")
        return None
    ok = require(isinstance(ev.get("name"), str), problems,
                 f"event #{idx}: missing/odd name")
    for key in ("pid", "tid"):
        ok &= require(isinstance(ev.get(key), int), problems,
                      f"event #{idx}: missing integer {key}")
    if ph == "M":
        args = ev.get("args")
        require(isinstance(args, dict)
                and isinstance(args.get("name"), str), problems,
                f"event #{idx}: metadata without args.name")
        return ph if ok else None
    ts = ev.get("ts")
    ok &= require(isinstance(ts, int) and ts >= 0, problems,
                  f"event #{idx}: ts must be a non-negative "
                  f"integer (sim cycles), got {ts!r}")
    if ph == "X":
        dur = ev.get("dur")
        ok &= require(isinstance(dur, int) and dur >= 0, problems,
                      f"event #{idx}: span without integer dur")
    if ph == "C":
        require(isinstance(ev.get("args"), dict), problems,
                f"event #{idx}: counter without args series")
    if "args" in ev:
        require(isinstance(ev["args"], dict), problems,
                f"event #{idx}: args is not an object")
    return ph if ok else None


def validate_tracks(events, problems):
    """Per-track monotonicity and span nesting, in file order."""
    last_ts = {}
    span_stack = {}
    for idx, ev in enumerate(events):
        ph = ev.get("ph")
        if ph in (None, "M"):
            continue
        if not isinstance(ev.get("ts"), int):
            continue  # already reported by validate_event
        track = (ev.get("pid"), ev.get("tid"))
        ts = ev["ts"]
        if track in last_ts and ts < last_ts[track]:
            err(problems,
                f"event #{idx}: ts {ts} goes backwards on track "
                f"pid={track[0]} tid={track[1]} "
                f"(previous {last_ts[track]})")
        last_ts[track] = ts
        if ph != "X" or not isinstance(ev.get("dur"), int):
            continue
        end = ts + ev["dur"]
        stack = span_stack.setdefault(track, [])
        while stack and ts >= stack[-1][1]:
            stack.pop()
        if stack and end > stack[-1][1]:
            err(problems,
                f"event #{idx}: span [{ts}, {end}) partially "
                f"overlaps enclosing span "
                f"[{stack[-1][0]}, {stack[-1][1]}) on track "
                f"pid={track[0]} tid={track[1]}")
        stack.append((ts, end))


def validate_counts(counts, other, problems):
    """otherData identity: embedded counts match the event stream."""
    expected = {
        "obs_spans": counts["X"],
        "obs_counters": counts["C"],
        "obs_events": counts["X"] + counts["C"],
    }
    for key, want in expected.items():
        got = other.get(key)
        if got != want:
            err(problems,
                f"otherData.{key} = {got!r} but the trace holds "
                f"{want}")
    dropped = other.get("trace_dropped_events")
    if not isinstance(dropped, int) or dropped < 0:
        err(problems,
            "otherData.trace_dropped_events missing or not a "
            "non-negative integer")
    return dropped if isinstance(dropped, int) else 0


def validate(path, allow_drops):
    try:
        with open(path, "r", encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: cannot load: {e}", file=sys.stderr)
        return 2

    problems = []
    if not isinstance(trace, dict):
        problems.append("top level is not an object")
        trace = {}
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        problems.append("traceEvents missing or not a list")
        events = []
    other = trace.get("otherData")
    if not isinstance(other, dict):
        problems.append("otherData missing or not an object")
        other = {}

    counts = {"X": 0, "C": 0, "M": 0}
    for idx, ev in enumerate(events):
        ph = validate_event(ev, idx, problems)
        if ph is not None:
            counts[ph] += 1
    validate_tracks(events, problems)
    dropped = validate_counts(counts, other, problems)
    if dropped > 0 and not allow_drops:
        problems.append(
            f"trace dropped {dropped} events (ring-buffer "
            f"overflow); rerun with a larger track capacity or "
            f"pass --allow-drops")

    if problems:
        for p in problems[:50]:
            print(f"{path}: {p}", file=sys.stderr)
        if len(problems) > 50:
            print(f"{path}: ... and {len(problems) - 50} more",
                  file=sys.stderr)
        return 1

    print(f"{path}: OK ({counts['X']} spans, {counts['C']} counter "
          f"samples, {counts['M']} metadata records)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="Validate gsuite Chrome-trace JSON files")
    ap.add_argument("traces", nargs="+", help="trace JSON paths")
    ap.add_argument("--allow-drops", action="store_true",
                    help="do not fail on trace_dropped_events > 0")
    args = ap.parse_args()

    worst = 0
    for path in args.traces:
        worst = max(worst, validate(path, args.allow_drops))
    return worst


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Per-layer summary of a prooflab-bench chrome trace.

Reads the trace a traced run exports (obs::TraceRecorder's chrome://tracing
JSON) and turns it into the per-layer ledger:

  * self time per span name: a span's duration minus the part its child spans
    on the same thread cover;
  * atlas.build_ms (every atlas.build) and atlas.lookup_self_ms (atlas.lookup
    minus the atlas.build nested in it on the same thread: hit time plus time
    spent waiting on another thread's build);
  * the request ledger: each bench.serve_next span (arg = request seq) against
    its children on the dispatcher thread (parse.link, sweep.window,
    delta.run and whatever else nests there), with the unattributed residue;
  * delta.centers_reswept_per_req, from the delta.resweep spans' arg.

It refuses a trace whose droppedEvents is not 0: a ring that wrapped lost
spans, and every total above would silently undercount.

Usage: python3 trace_summary.py TRACE.json
"""
import json
import sys
from collections import defaultdict


class TraceError(Exception):
    pass


def _events(doc):
    """(tid, start_ns, end_ns, name, arg) per complete event."""
    out = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        start = round(e["ts"] * 1000.0)
        end = start + round(e["dur"] * 1000.0)
        out.append((e["tid"], start, end, e["name"], e.get("args", {}).get("i")))
    return out


def _nest(events):
    """Index of each event's innermost enclosing event on its thread, or -1."""
    parent = [-1] * len(events)
    by_tid = defaultdict(list)
    for i, (tid, start, end, _, _) in enumerate(events):
        by_tid[tid].append(i)
    for idx in by_tid.values():
        # Outer spans first when two start together.
        idx.sort(key=lambda i: (events[i][1], -events[i][2]))
        stack = []
        for i in idx:
            start, end = events[i][1], events[i][2]
            while stack and not (events[stack[-1]][1] <= start
                                 and end <= events[stack[-1]][2]):
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            stack.append(i)
    return parent


def _p50(values):
    """Median, reported only with at least 10 samples beyond it."""
    if len(values) < 20:
        return None
    s = sorted(values)
    return s[(len(s) + 1) // 2 - 1]


def _metric(value, unit, n):
    return {"value": "n/a" if value is None else value, "unit": unit, "n": n}


def summarize(path):
    with open(path) as f:
        doc = json.load(f)
    dropped = doc.get("droppedEvents")
    if dropped is None:
        raise TraceError(f"{path}: no droppedEvents field")
    if dropped != 0:
        raise TraceError(f"{path}: {dropped} events dropped; "
                         "the trace ring is too small for this workload")
    events = _events(doc)
    parent = _nest(events)
    child_ns = [0] * len(events)
    build_child_ns = [0] * len(events)
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            dur = events[i][2] - events[i][1]
            child_ns[p] += dur
            children[p].append(i)
            if events[i][3] == "atlas.build":
                build_child_ns[p] += dur

    spans = defaultdict(lambda: {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
    lookup_self_ns = 0
    reswept = []
    for i, (_, start, end, name, arg) in enumerate(events):
        dur = end - start
        s = spans[name]
        s["count"] += 1
        s["total_ms"] += dur / 1e6
        s["self_ms"] += (dur - child_ns[i]) / 1e6
        if name == "atlas.lookup":
            lookup_self_ns += dur - build_child_ns[i]
        elif name == "delta.resweep" and arg is not None:
            reswept.append(arg)

    # Request ledger: every span under a bench.serve_next on the dispatcher
    # thread, by self time, so the parts sum exactly to the serve_next total.
    ledger = defaultdict(float)
    residue_us = []
    serve_ms = 0.0
    requests = 0
    for i, (_, start, end, name, _) in enumerate(events):
        if name != "bench.serve_next":
            continue
        requests += 1
        serve_ms += (end - start) / 1e6
        residue = end - start - child_ns[i]
        residue_us.append(residue / 1e3)
        ledger["(residue)"] += residue / 1e6
        todo = list(children[i])
        while todo:
            j = todo.pop()
            ledger[events[j][3]] += (events[j][2] - events[j][1]
                                     - child_ns[j]) / 1e6
            todo.extend(children[j])

    residue_ms = ledger["(residue)"]
    return {
        "events": len(events),
        "dropped": dropped,
        "requests": requests,
        "spans": dict(spans),
        "ledger_ms": dict(ledger),
        "serve_next_ms": serve_ms,
        "metrics": {
            "atlas.build_ms": _metric(
                spans["atlas.build"]["total_ms"] if "atlas.build" in spans
                else 0.0, "ms", spans["atlas.build"]["count"]
                if "atlas.build" in spans else 0),
            "atlas.lookup_self_ms": _metric(
                lookup_self_ns / 1e6, "ms", spans["atlas.lookup"]["count"]
                if "atlas.lookup" in spans else 0),
            "delta.centers_reswept_per_req": _metric(
                sum(reswept) / len(reswept) if reswept else None, "count",
                len(reswept)),
            "trace.residue_frac": _metric(
                residue_ms / serve_ms if serve_ms else None, "fraction",
                requests),
            "trace.residue_us.p50": _metric(_p50(residue_us), "us",
                                            len(residue_us)),
            "trace.events": _metric(len(events), "count", 1),
        },
    }


def format_summary(summary):
    lines = [f"trace: {summary['events']} events, "
             f"{summary['dropped']} dropped, {summary['requests']} requests"]
    lines.append(f"  {'span':<18} {'count':>8} {'total_ms':>12} {'self_ms':>12}")
    for name, s in sorted(summary["spans"].items()):
        lines.append(f"  {name:<18} {s['count']:>8} {s['total_ms']:>12.3f} "
                     f"{s['self_ms']:>12.3f}")
    total = summary["serve_next_ms"]
    lines.append(f"request ledger: bench.serve_next {total:.3f} ms over "
                 f"{summary['requests']} requests, by self time:")
    for name, ms in sorted(summary["ledger_ms"].items(), key=lambda kv: -kv[1]):
        share = ms / total if total else 0.0
        lines.append(f"  {name:<18} {ms:>12.3f} ms {share:>8.1%}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    try:
        summary = summarize(argv[1])
    except (OSError, ValueError, KeyError, TraceError) as e:
        print(f"trace_summary: {e}", file=sys.stderr)
        return 1
    print(format_summary(summary))
    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']} (n={m['n']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Summarize observability output: Chrome trace JSON and/or StepReport JSONL.

  tools/trace_summary.py trace.json steps.jsonl ...

File type is detected from content, not extension: a JSON array of
trace_event objects is treated as a trace; a file of one JSON object per
line is treated as a step report.

For a trace, spans aggregate by (category, name): count, total time, mean,
max, and the share of the traced wall interval. Causally-tagged traces
(rank lanes from a RankSolver run) additionally get a per-step
`critical-path:` line and a per-rank wait/compute table via the same model
as tools/critical_path.py. For a step report, the summary shows run totals
(steps, cells updated, regrid events, ghost ops), aggregate phase times
with their share of summed step wall time, final gauge values, and — for
rank-parallel runs — per-rank traffic totals. ab.critical_path.v1 files
(from --critical-path= or critical_path.py --json) are rendered directly.
Files whose schema is not recognized exit non-zero with a clear message;
a missing or unreadable file exits non-zero with one `error:` line.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from critical_path import analyze, compress_chain  # noqa: E402


def load_json_doc(path):
    """Parse `path` as one JSON document, or None if it is not one."""
    with open(path) as f:
        text = f.read().strip()
    if not text.startswith(("[", "{")):
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def trace_events(doc):
    """Return trace events if `doc` is a Chrome trace, else None."""
    if isinstance(doc, dict):
        doc = doc.get("traceEvents")
    if not isinstance(doc, list):
        return None
    return [e for e in doc if isinstance(e, dict) and e.get("ph") == "X"]


def load_records(path):
    """Return step records if `path` is JSONL (one object per line)."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                return None
            if not isinstance(obj, dict):
                return None
            records.append(obj)
    return records or None


def summarize_trace(path, events):
    print(f"== {path}: Chrome trace, {len(events)} spans ==")
    if not events:
        return
    t0 = min(e["ts"] for e in events)
    t1 = max(e["ts"] + e.get("dur", 0.0) for e in events)
    wall_us = max(t1 - t0, 1e-9)
    tids = sorted({e.get("tid", 0) for e in events})
    print(f"traced interval: {wall_us / 1e6:.3f} s across {len(tids)} thread slot(s)")
    agg = {}
    for e in events:
        key = (e.get("cat", ""), e.get("name", "?"))
        ent = agg.setdefault(key, [0, 0.0, 0.0])  # count, total, max
        ent[0] += 1
        ent[1] += e.get("dur", 0.0)
        ent[2] = max(ent[2], e.get("dur", 0.0))
    print(f"{'cat':10s} {'name':24s} {'count':>8s} {'total ms':>10s} "
          f"{'mean us':>10s} {'max us':>10s} {'% wall':>7s}")
    for (cat, name), (count, total, mx) in sorted(
        agg.items(), key=lambda kv: -kv[1][1]
    ):
        print(f"{cat:10s} {name:24s} {count:8d} {total / 1e3:10.2f} "
              f"{total / count:10.1f} {mx:10.1f} {100.0 * total / wall_us:6.1f}%")
    summarize_causal(events)


def tagged_spans(events):
    """Causally-tagged rank spans, in critical_path.py's event shape."""
    out = []
    for e in events:
        args = e.get("args")
        if not isinstance(args, dict) or "id" not in args:
            continue
        pid = e.get("pid", 0)
        step = args.get("step", -1)
        if pid < 1 or step < 0 or e.get("cat") == "fault":
            continue
        out.append({
            "step": step, "rank": pid - 1, "name": e.get("name", "?"),
            "cat": e.get("cat", "?"), "ts": e.get("ts", 0.0),
            "dur": e.get("dur", 0.0), "id": args["id"],
            "parent": args.get("parent", 0),
        })
    return out


def summarize_causal(events):
    """critical-path: line per step plus a per-rank wait/compute table,
    computed by the earliest-start model shared with critical_path.py."""
    tagged = tagged_spans(events)
    if not tagged:
        return
    report = analyze(tagged)
    for s in report["steps"]:
        hops = compress_chain(s["critical_path"])
        top = max(hops, key=lambda h: h["dur_s"], default=None)
        where = (f"rank {top['rank']} {top['name']}[{top['cat']}]"
                 + (f" x{top['n']}" if top["n"] > 1 else "")
                 if top else "nothing")
        print(f"critical-path: step {s['step']} bounded by {where}, "
              f"makespan {s['makespan_s'] * 1e3:.3f} ms "
              f"({len(s['critical_path'])}-span chain), "
              f"straggler {s['straggler']:.2f}")
    # Aggregate the per-step busy/wait/idle decomposition across steps:
    # fractions are of total makespan, so each rank's row sums to 100%.
    total_makespan = sum(s["makespan_s"] for s in report["steps"])
    agg = {}
    for s in report["steps"]:
        for r in s["ranks"]:
            ent = agg.setdefault(r["rank"], [0, 0.0, 0.0, 0.0])
            ent[0] += r["spans"]
            ent[1] += r["busy_s"]
            ent[2] += r["wait_s"]
            ent[3] += r["idle_s"]
    print(f"{'rank':>4s} {'spans':>7s} {'compute ms':>11s} {'wait ms':>9s} "
          f"{'idle ms':>9s} {'compute%':>9s} {'wait%':>7s} {'idle%':>7s}")
    for rank in sorted(agg):
        spans, busy, wait, idle = agg[rank]
        pct = (lambda v: 100.0 * v / total_makespan
               if total_makespan > 0 else 0.0)
        print(f"{rank:4d} {spans:7d} {busy * 1e3:11.3f} {wait * 1e3:9.3f} "
              f"{idle * 1e3:9.3f} {pct(busy):8.1f}% {pct(wait):6.1f}% "
              f"{pct(idle):6.1f}%")


def summarize_critical_path(path, doc):
    """Render an ab.critical_path.v1 file (written by --critical-path= or
    critical_path.py --json)."""
    steps = doc.get("steps", [])
    print(f"== {path}: ab.critical_path.v1, {len(steps)} step(s) ==")
    for s in steps:
        hops = compress_chain(s.get("critical_path", []))
        top = max(hops, key=lambda h: h["dur_s"], default=None)
        where = (f"rank {top['rank']} {top['name']}[{top['cat']}]"
                 if top else "nothing")
        print(f"critical-path: step {s.get('step', '?')} bounded by {where}, "
              f"makespan {s.get('makespan_s', 0.0) * 1e3:.3f} ms, "
              f"straggler {s.get('straggler', 1.0):.2f}")


def summarize_report(path, records):
    print(f"== {path}: step report, {len(records)} records ==")
    wall = sum(r.get("wall_s", 0.0) for r in records)
    cells = sum(r.get("cells_updated", 0) for r in records)
    refined = sum(r.get("refined", 0) for r in records)
    coarsened = sum(r.get("coarsened", 0) for r in records)
    last = records[-1]
    print(f"steps: {len(records)}  sim time: {last.get('t', 0.0):.6g}  "
          f"final blocks: {last.get('blocks', 0)}")
    print(f"step wall total: {wall:.4f} s  cells updated: {cells}  "
          f"refine/coarsen events: {refined}/{coarsened}")
    ghost = last.get("ghost_ops", {})
    if any(ghost.values()):
        g_copy = sum(r.get("ghost_ops", {}).get("copy", 0) for r in records)
        g_res = sum(r.get("ghost_ops", {}).get("restrict", 0) for r in records)
        g_pro = sum(r.get("ghost_ops", {}).get("prolong", 0) for r in records)
        print(f"ghost ops: copy={g_copy} restrict={g_res} prolong={g_pro}")

    phase_totals = {}
    for r in records:
        for name, s in r.get("phases", {}).items():
            phase_totals[name] = phase_totals.get(name, 0.0) + s
    if phase_totals:
        print(f"{'phase':20s} {'total s':>10s} {'% step wall':>12s}")
        for name, s in sorted(phase_totals.items(), key=lambda kv: -kv[1]):
            share = 100.0 * s / wall if wall > 0 else 0.0
            print(f"{name:20s} {s:10.4f} {share:11.1f}%")

    gauges = last.get("gauges", {})
    if gauges:
        # Non-finite gauges are serialized as JSON null; show them as such.
        print("final gauges: "
              + "  ".join(f"{k}={'null' if v is None else format(v, '.6g')}"
                          for k, v in sorted(gauges.items())))

    # Fault-tolerance accounting (counters are cumulative; the last record
    # holds the run totals): checkpoints written and wire faults survived.
    counters = last.get("counters", {})
    robustness = {k: v for k, v in counters.items()
                  if k.startswith("ckpt.") or k.startswith("fault.")}
    if robustness:
        print("robustness: "
              + "  ".join(f"{k}={v}" for k, v in sorted(robustness.items())))

    # Block-pool substrate: cumulative slab traffic (counters) plus the
    # final arena shape (gauges). Older reports may not carry them.
    pool = {k: v for k, v in counters.items() if k.startswith("pool.")}
    pool.update({k: v for k, v in gauges.items() if k.startswith("pool.")})
    if pool:
        hits = pool.get("pool.reuse_hits", 0)
        fresh = pool.get("pool.fresh_allocs", 0)
        line = "pool: " + "  ".join(
            f"{k}={'null' if v is None else format(v, '.6g')}"
            for k, v in sorted(pool.items()))
        if hits + fresh > 0:
            line += f"  (reuse rate {100.0 * hits / (hits + fresh):.1f}%)"
        print(line)

    # Distributed metadata: final per-rank view shape (gauges: hull size,
    # descriptor/directory bytes) plus cumulative discovery and regrid
    # traffic (counters: probes issued, delta messages/bytes exchanged).
    # Absent entirely on global-metadata runs.
    topo = {k: v for k, v in counters.items() if k.startswith("topo.")}
    topo.update({k: v for k, v in gauges.items() if k.startswith("topo.")})
    if topo:
        line = "topo: " + "  ".join(
            f"{k}={'null' if v is None else format(v, '.6g')}"
            for k, v in sorted(topo.items()))
        probes = topo.get("topo.probes", 0)
        remote = topo.get("topo.remote_probes", 0)
        if probes:
            line += f"  (remote probe rate {100.0 * remote / probes:.1f}%)"
        print(line)

    # Layout autotuner: decision gauges published every step, so the last
    # record tells the whole story. tune.probe_ns.* carries the measured
    # per-candidate curve when the startup run probed (vs reused the cache).
    tune = {k: v for k, v in gauges.items() if k.startswith("tune.")}
    if tune.get("tune.tuned"):
        label = f"{int(tune.get('tune.m', 0))}"
        if tune.get("tune.pad0"):
            label += f"+pad{int(tune['tune.pad0'])}"
        if tune.get("tune.sub_block"):
            label += f"/sub{int(tune['tune.sub_block'])}"
        src = "cache" if tune.get("tune.from_cache") else "probed"
        probes = sum(1 for k in tune if k.startswith("tune.probe_ns."))
        line = (f"tune: chose block edge {label} at "
                f"{tune.get('tune.ns_per_cell', 0.0):.1f} ns/cell ({src}")
        if probes:
            line += f", {probes} candidates"
        line += ")"
        base = tune.get("tune.baseline_ns_per_cell", 0.0)
        if base:
            line += f"  baseline 8/pad0: {base:.1f} ns/cell"
        if last.get("layout"):
            line += f"  layout={last['layout']}"
        print(line)
    elif tune:
        print("tune: enabled, no applicable candidate (layout unchanged)")

    per_rank = {}
    for r in records:
        for t in r.get("per_rank", []):
            ent = per_rank.setdefault(t["rank"], [0, 0, 0, 0])
            ent[0] += t.get("sent_messages", 0)
            ent[1] += t.get("recv_messages", 0)
            ent[2] += t.get("sent_bytes", 0)
            ent[3] += t.get("recv_bytes", 0)
    if per_rank:
        print(f"{'rank':>4s} {'sent msgs':>10s} {'recv msgs':>10s} "
              f"{'sent bytes':>12s} {'recv bytes':>12s}")
        for rank in sorted(per_rank):
            sm, rm, sb, rb = per_rank[rank]
            print(f"{rank:4d} {sm:10d} {rm:10d} {sb:12d} {rb:12d}")
        sent = [v[2] for v in per_rank.values()]
        mean = sum(sent) / len(sent)
        if mean > 0:
            print(f"send imbalance (max/mean bytes): {max(sent) / mean:.2f}")


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("files", nargs="+", metavar="FILE",
                   help="Chrome trace JSON, StepReport JSONL, or "
                        "ab.critical_path.v1 file")
    args = p.parse_args()
    status = 0
    for path in args.files:
        try:
            doc = load_json_doc(path)
        except (OSError, UnicodeDecodeError) as e:
            sys.exit(f"error: cannot read {path}: "
                     f"{getattr(e, 'strerror', None) or e}")
        if isinstance(doc, dict) and "schema" in doc:
            if doc["schema"] == "ab.critical_path.v1":
                summarize_critical_path(path, doc)
                print()
            else:
                print(f"error: {path}: unknown schema "
                      f"{doc['schema']!r} (this tool understands Chrome "
                      "traces, JSONL step reports, and "
                      "ab.critical_path.v1)", file=sys.stderr)
                status = 1
            continue
        events = trace_events(doc) if doc is not None else None
        if events is not None:
            summarize_trace(path, events)
            print()
            continue
        records = load_records(path)
        if records is not None:
            summarize_report(path, records)
            print()
            continue
        print(f"error: {path} is neither a Chrome trace, a JSONL report, "
              "nor an ab.critical_path.v1 file", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

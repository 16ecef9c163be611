"""Metric logic of the repository benchmark.

Turns the raw record one `abbench` run writes (per-iteration times, output
checks, layer probes, spans) into the end-to-end and per-layer metrics that
BENCHMARK.json names. Pure functions, so tests can drive them with
hand-made records.
"""

import math
import statistics

# name -> (unit, better). The order is the order of the printed table.
# Counts of work, messages and bytes are "lower": the same result from
# less traffic is the better program.
# Times are process CPU time (all threads), not wall time: on a shared
# host the wall clock also counts the time neighbours held the cores, which
# moved wall-time figures of identical code by a factor of up to two between
# runs. The wall-clock figures are printed next to them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cell_updates_per_cpu_s": ("1/cpu-s", "higher"),
    "step_cpu_ms_p50": ("ms", "lower"),
    "step_cpu_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# The same figures on the wall clock: printed next to the metrics, not
# reported in the result line.
WALL = {
    "setup_s": ("s", "lower"),
    "cell_updates_per_s": ("1/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
}

PER_LAYER = {
    "physics.kernel_ns_per_cell": ("ns", "lower"),
    "physics.kernel_gflops": ("GFLOP/s", "higher"),
    "physics.kernel_flops_per_byte": ("flop/B", "higher"),
    "core.ghost_fill_ms": ("ms", "lower"),
    "core.ghost_gb_per_s": ("GB/s", "higher"),
    "core.ghost_vs_memcpy": ("ratio", "higher"),
    "core.ghost_ops_copy": ("count", "lower"),
    "core.ghost_ops_restrict": ("count", "lower"),
    "core.ghost_ops_prolong": ("count", "lower"),
    "amr.step_ms_p50": ("ms", "lower"),
    "amr.compute_dt_ms_p50": ("ms", "lower"),
    "amr.regrid_ms_p50": ("ms", "lower"),
    "amr.regrid_ms_p90": ("ms", "lower"),
    "amr.regrid_share": ("frac", "lower"),
    "amr.blocks_changed_per_regrid": ("count", "lower"),
    "amr.leaves": ("count", "lower"),
    "amr.flux_corrections": ("count", "lower"),
    "util.thread_speedup": ("ratio", "higher"),
    "util.parallel_efficiency": ("frac", "higher"),
    "util.pool_reuse_frac": ("frac", "higher"),
    "util.pool_slabs_in_use": ("count", "lower"),
    "parsim.ghost_msgs_per_step": ("count", "lower"),
    "parsim.ghost_mb_per_step": ("MB", "lower"),
    "parsim.flux_msgs_per_step": ("count", "lower"),
    "parsim.migrated_blocks": ("count", "lower"),
    "parsim.migration_mb": ("MB", "lower"),
    "parsim.topo_delta_kb_per_regrid": ("kB", "lower"),
    "parsim.wire_frames_per_step": ("count", "lower"),
    "parsim.wire_payload_mb_per_step": ("MB", "lower"),
    "parsim.wire_header_frac": ("frac", "lower"),
    "parsim.wire_crc_rejects": ("count", "lower"),
    "parsim.imbalance": ("ratio", "lower"),
    "parsim.model_efficiency": ("frac", "higher"),
    "parsim.rank_overhead_frac": ("frac", "lower"),
    "io.ckpt_save_ms": ("ms", "lower"),
    "io.ckpt_mb_per_s": ("MB/s", "higher"),
    "obs.trace_overhead_frac": ("frac", "lower"),
}

# Printed in the layer table of the rank workload only: on it they equal
# amr.step_ms_p50 and amr.regrid_ms_p50 (the benchmark times the public
# call of whichever solver runs), and on the AmrSolver workloads they would
# read a constant 0 ms, so BENCHMARK.json does not list them.
RANK_ONLY = {"parsim.step_ms_p50": ("ms", "lower"),
             "parsim.regrid_ms_p50": ("ms", "lower")}

MASS_TOLERANCE = 1e-12
TAIL_SAMPLES = 10  # a reported percentile needs this many samples beyond it


def percentile(xs, p):
    """Linear interpolation between closest ranks (p in [0, 100])."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    rank = p / 100.0 * (len(s) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def beyond(xs, value):
    return sum(1 for x in xs if x > value)


TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(xs):
    """Highest candidate percentile with >= TAIL_SAMPLES samples beyond it.

    Returns (p, value, n_samples), or None when even the median has fewer
    than TAIL_SAMPLES samples above it.
    """
    for p in TAIL_CANDIDATES:
        v = percentile(xs, p)
        if beyond(xs, v) >= TAIL_SAMPLES:
            return p, v, len(xs)
    return None


def supports(xs, p):
    """Whether percentile p of xs has at least TAIL_SAMPLES samples beyond."""
    return bool(xs) and beyond(xs, percentile(xs, p)) >= TAIL_SAMPLES


# ---------------------------------------------------------------------------
# Output checks and failure accounting.


def episode_checks(ep):
    """Named pass/fail checks of one episode's final output."""
    m0, m1 = ep["mass0"], ep["mass1"]
    checks = {
        "no_exception": ep["error"] == "",
        "mass_conserved": (m0 is not None and m1 is not None
                           and abs(m1 - m0) <= MASS_TOLERANCE * abs(m0)),
        "finite": bool(ep["finite"]),
        "density_positive": ep["min_density"] is not None
        and ep["min_density"] > 0.0,
    }
    if ep["has_pressure"]:
        checks["pressure_positive"] = (ep["min_pressure"] is not None
                                       and ep["min_pressure"] > 0.0)
    return checks


def run_checks(raw):
    """Checks that span the whole run: the episodes of one image replay one
    script, so their final hashes agree; traced runs also need their
    bitwise replay."""
    hashes = {}
    for ep in raw["episodes"]:
        if ep["error"] == "":
            hashes.setdefault(ep["variant"], set()).add(ep["hash"])
    checks = {"episodes_bitwise_equal": all(len(h) == 1
                                            for h in hashes.values())}
    rp = raw["replay"]
    if rp["ran"]:
        checks["replay_" + rp["kind"] + "_bitwise_equal"] = bool(rp["matches"])
    if raw.get("aux_error"):
        checks["traced_extras_ran"] = False
    return checks


def failure_accounting(raw):
    """(attempted, failed, failures) over every iteration of the run.

    An iteration that throws counts as failed (the episode stops there and
    its remaining iterations count as failed too). An episode whose final
    output fails a check counts all its iterations as failed, and a failed
    run-level check fails every iteration of the run.
    """
    attempted = failed = 0
    failures = []
    for i, ep in enumerate(raw["episodes"]):
        attempted += ep["attempted"]
        bad = [k for k, ok in episode_checks(ep).items() if not ok]
        if bad:
            failed += ep["attempted"]
            failures.append("episode %d: %s %s" % (i, ",".join(bad),
                                                   ep["error"]))
        else:
            failed += ep["failed"]
    bad_run = [k for k, ok in run_checks(raw).items() if not ok]
    if bad_run:
        failed = attempted
        failures.append("run: " + ",".join(bad_run) + " " +
                        raw.get("aux_error", ""))
    return attempted, failed, failures


# ---------------------------------------------------------------------------
# Spans.


def covered(parent, children):
    """Length of the part of [parent.t0, parent.t1] the children cover
    (overlapping children counted once)."""
    t0, t1 = parent
    ivs = sorted((max(a, t0), min(b, t1)) for a, b in children)
    total = 0
    cur_a = cur_b = None
    for a, b in ivs:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def span_table(spans):
    """name -> {"count", "total_ns", "self_ns"}; spans are
    [id, parent, name, t0, t1] rows. Self time is the span's duration minus
    the part of it its children cover."""
    children = {}
    for sid, parent, name, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    table = {}
    for sid, parent, name, t0, t1 in spans:
        row = table.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += t1 - t0
        row["self_ns"] += (t1 - t0) - covered((t0, t1), children.get(sid, []))
    return table


def durations_ms(spans, name, parent_name=None):
    """Durations of spans called `name` (optionally only those whose parent
    is called `parent_name`), in ms."""
    names = {sid: n for sid, _, n, _, _ in spans}
    return [(t1 - t0) * 1e-6 for sid, parent, n, t0, t1 in spans
            if n == name and (parent_name is None
                              or names.get(parent) == parent_name)]


# ---------------------------------------------------------------------------
# Metrics.


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def _loop_figures(timed, key, stages):
    """(rate, samples) of one clock: the median over episodes of cell
    updates per second of that clock, and every iteration time."""
    samples = [ms for ep in timed for ms in ep[key]]
    # Every episode is the same script, so each one's rate is a full sample
    # of the quantity; the median across episodes shrugs off one disturbed
    # episode where a pooled sum would not.
    rates = [_ratio(sum(c * stages for c in ep["cells"]),
                    sum(ep[key]) * 1e-3) for ep in timed]
    return _median(rates), samples


def end_to_end(raw):
    """End-to-end metrics from the timed (non-warm-up, untraced) episodes.

    The metrics use process CPU time; `info["wall"]` holds the same figures
    on the wall clock, printed but not reported."""
    timed = [ep for ep in raw["episodes"]
             if not ep["warmup"] and not ep["traced"]]
    stages = raw["config"]["rk_stages"]
    rate, samples = _loop_figures(timed, "iter_cpu_ms", stages)
    wall_rate, wall = _loop_figures(timed, "iter_ms", stages)
    tail = tail_percentile(samples) if samples else None
    values = {
        "setup_s": _median([ep["setup_cpu_s"] for ep in timed]),
        "cell_updates_per_cpu_s": rate,
        "step_cpu_ms_p50": percentile(samples, 50) if samples else 0.0,
        "step_cpu_ms_p90": percentile(samples, 90) if samples else 0.0,
        "peak_rss_mb": max((ep["peak_rss_mb"] for ep in raw["episodes"]),
                           default=0.0),
    }
    info = {
        "samples": len(samples),
        "p90_supported": supports(samples, 90),
        "tail": tail,
        "wall": {
            "setup_s": _median([ep["setup_s"] for ep in timed]),
            "cell_updates_per_s": wall_rate,
            "step_ms_p50": percentile(wall, 50) if wall else 0.0,
            "step_ms_p90": percentile(wall, 90) if wall else 0.0,
        },
    }
    return values, info


def per_layer(raw):
    """Per-layer metrics of a traced run. A layer the workload does not run
    reads 0 (the AmrSolver workloads have no parsim layer);
    util.thread_speedup is 1 on the single-thread workloads."""
    eps = raw["episodes"]
    traced = [ep for ep in eps if ep["traced"]]
    spans = raw["spans"]
    lay = raw["layers"]
    v = {}

    sweep_ms = _median(lay["sweep_ms"])
    v["physics.kernel_ns_per_cell"] = _ratio(sweep_ms * 1e6, lay["sweep_cells"])
    v["physics.kernel_gflops"] = _ratio(lay["sweep_flops"], sweep_ms * 1e6)
    v["physics.kernel_flops_per_byte"] = _ratio(lay["block_flops"],
                                                lay["block_bytes"])

    fill_ms = _median(lay["ghost_fill_ms"])
    memcpy_ms = _median(lay["memcpy_ms"])
    ghost_gbs = _ratio(lay["ghost_bytes"], fill_ms * 1e6)
    v["core.ghost_fill_ms"] = fill_ms
    v["core.ghost_gb_per_s"] = ghost_gbs
    v["core.ghost_vs_memcpy"] = _ratio(ghost_gbs, _ratio(lay["ghost_bytes"],
                                                         memcpy_ms * 1e6))
    ops = lay["ghost_ops"]
    v["core.ghost_ops_copy"] = ops[0]
    v["core.ghost_ops_restrict"] = ops[1]
    v["core.ghost_ops_prolong"] = ops[2]

    step_ms = durations_ms(spans, "step", "iteration")
    loop_adapt = durations_ms(spans, "adapt", "iteration")
    regrid = loop_adapt or durations_ms(spans, "adapt", "setup")
    iter_total = sum(durations_ms(spans, "iteration"))
    v["amr.step_ms_p50"] = percentile(step_ms, 50) if step_ms else 0.0
    dt_ms = durations_ms(spans, "compute_dt", "iteration")
    v["amr.compute_dt_ms_p50"] = percentile(dt_ms, 50) if dt_ms else 0.0
    v["amr.regrid_ms_p50"] = percentile(regrid, 50) if regrid else 0.0
    v["amr.regrid_ms_p90"] = percentile(regrid, 90) if regrid else 0.0
    v["amr.regrid_share"] = _ratio(sum(loop_adapt), iter_total)
    adapt_every = raw["config"]["adapt_every"]
    if adapt_every > 0:
        changed = [c for ep in traced
                   for i, c in enumerate(ep["changed"])
                   if (i + 1) % adapt_every == 0]
    else:
        changed = [c for ep in traced for c in ep["setup_changed"]]
    v["amr.blocks_changed_per_regrid"] = _ratio(sum(changed), len(changed))
    leaves = [n for ep in traced for n in ep["leaves"]]
    v["amr.leaves"] = _ratio(sum(leaves), len(leaves))
    v["amr.flux_corrections"] = lay["flux_corrections"]

    threads = raw["config"]["threads"]
    rp = raw["replay"]
    # Replays run right after the traced episode they pair with, so both
    # sides of each ratio see the same host speed.
    paired = eps[rp["paired_episode"]] if rp["ran"] else None
    if threads > 1 and paired and rp["iter_ms"]:
        k = len(rp["iter_ms"])
        speedup = _ratio(_median(rp["iter_ms"]),
                         _median(paired["iter_ms"][:k]))
    else:
        speedup = 1.0
    v["util.thread_speedup"] = speedup
    v["util.parallel_efficiency"] = speedup / threads
    pool = lay["pool"]
    acquires = pool["reuse_hits"] + pool["fresh_allocs"]
    v["util.pool_reuse_frac"] = _ratio(pool["reuse_hits"], acquires)
    v["util.pool_slabs_in_use"] = pool["slabs_in_use"]

    rl = lay["rank_loop"]
    steps = rl["steps"]
    regrids = rl["regrids"]
    v["parsim.ghost_msgs_per_step"] = _ratio(rl["ghost_messages"], steps)
    v["parsim.ghost_mb_per_step"] = _ratio(rl["ghost_bytes"] * 1e-6, steps)
    v["parsim.flux_msgs_per_step"] = _ratio(rl["flux_messages"], steps)
    v["parsim.migrated_blocks"] = _ratio(rl["migrated_blocks"], regrids)
    v["parsim.migration_mb"] = _ratio(rl["migration_bytes"] * 1e-6, regrids)
    v["parsim.topo_delta_kb_per_regrid"] = _ratio(rl["topo_delta_bytes"] * 1e-3,
                                                  regrids)
    v["parsim.wire_frames_per_step"] = _ratio(rl["wire_frames"], steps)
    v["parsim.wire_payload_mb_per_step"] = _ratio(
        rl["wire_payload_bytes"] * 1e-6, steps)
    v["parsim.wire_header_frac"] = _ratio(
        rl["wire_bytes"] - rl["wire_payload_bytes"], rl["wire_bytes"])
    v["parsim.wire_crc_rejects"] = rl["crc_rejects"]
    v["parsim.imbalance"] = _ratio(sum(lay["imbalance"]), len(lay["imbalance"]))
    v["parsim.model_efficiency"] = _ratio(sum(lay["model_efficiency"]),
                                          len(lay["model_efficiency"]))
    if lay["rank"] and paired and rp["iter_cpu_ms"]:
        # Both sides run on one thread, so CPU time keeps host contention
        # out of the ratio.
        v["parsim.rank_overhead_frac"] = _ratio(sum(paired["iter_cpu_ms"]),
                                                sum(rp["iter_cpu_ms"])) - 1.0
    else:
        v["parsim.rank_overhead_frac"] = 0.0

    save_ms = _median(lay["save_ms"])
    v["io.ckpt_save_ms"] = save_ms
    v["io.ckpt_mb_per_s"] = _ratio(lay["save_bytes"] * 1e-6, save_ms * 1e-3)

    # Traced episodes follow an untraced one; compare within each adjacent
    # pair, then take the median over pairs.
    ratios = [_ratio(sum(t["iter_cpu_ms"]), sum(u["iter_cpu_ms"]))
              for u, t in zip(eps, eps[1:])
              if t["traced"] and not u["traced"] and not u["warmup"]]
    v["obs.trace_overhead_frac"] = _median(ratios) - 1.0 if ratios else 0.0

    extra = {}
    if lay["rank"]:
        extra["parsim.step_ms_p50"] = v["amr.step_ms_p50"]
        extra["parsim.regrid_ms_p50"] = v["amr.regrid_ms_p50"]
    return v, extra


def result_line(raw):
    """The benchmark's last output line: correct/attempted/failed/metrics."""
    attempted, failed, failures = failure_accounting(raw)
    if raw["trace"]:
        values, _ = per_layer(raw)
        table = PER_LAYER
    else:
        values, _ = end_to_end(raw)
        table = END_TO_END
    units = {k: unit for k, (unit, _) in table.items()}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, failures

#!/usr/bin/env python3
"""The repository benchmark: one command, three adaptive-block workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py            # every workload, default seed

Builds perfbench/ (Release, into .bench_build/), runs the workload, checks
its outputs, prints every metric by name and unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the source tree

import metrics  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("mhd_static_t4", "adv_regrid_serial", "euler_rank4_shm")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Each selects a different program than the one measured.
OVERRIDES = ("AB_BENCH_BARRIER", "AB_BLOCK_POOL", "AB_TASK_STEAL",
             "AB_AUTOTUNE", "AB_TRANSPORT", "AB_DIST_META", "AB_ASYNC_TOPO",
             "AB_HULL_PREFETCH")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def check_environment():
    set_knobs = [k for k in OVERRIDES if k in os.environ]
    if set_knobs:
        raise BenchError(
            "environment overrides set: %s. Each selects a different program "
            "than the one this benchmark measures; unset them."
            % ", ".join(set_knobs))
    if not (ROOT / "src" / "amr" / "solver.hpp").is_file():
        raise BenchError("library sources not found under %s/src; run from "
                         "a full checkout" % ROOT)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the benchmark in Release."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError("build failed: %s" % e)
            if rc != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed (%s):\n%s"
                                 % (" ".join(cmd), "\n".join(tail)))
    cache = (bdir / "CMakeCache.txt").read_text(errors="replace")
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        raise BenchError("%s is not a Release build; delete it and rerun"
                         % bdir)
    return bdir / "abbench"


def host_fingerprint(raw):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "compiler": raw["build"]["compiler"],
        "flags": raw["build"]["flags"],
        "build_type": raw["build"]["type"],
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_workload(binary, workload, seed, seconds, trace):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s"
                         % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0 or not out.is_file():
        raise BenchError("abbench failed (exit %d): %s"
                         % (proc.returncode, proc.stderr.strip()))
    try:
        with open(out) as f:
            return json.load(f), out
    except ValueError as e:
        raise BenchError("unreadable record %s: %s" % (out, e))


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def report(raw, path):
    """Print the human-readable table; return the result object."""
    result, failures = metrics.result_line(raw)
    print("== %s  seed=%s  trace=%d  (record: %s)"
          % (raw["workload"], raw["seed"], raw["trace"],
             path.relative_to(ROOT)))
    print("host: " + json.dumps(host_fingerprint(raw), sort_keys=True))
    if raw["trace"]:
        values, extra = metrics.per_layer(raw)
        rows = [(k, values[k], u) for k, (u, _) in metrics.PER_LAYER.items()]
        rows += [(k, extra[k], metrics.RANK_ONLY[k][0]) for k in extra]
        for k, val, unit in rows:
            print("  %-34s %14s %s" % (k, fmt(val), unit))
        table = metrics.span_table(raw["spans"])
        print("  spans (traced episodes): name, count, total ms, self ms")
        for name, row in sorted(table.items(),
                                key=lambda kv: -kv[1]["total_ns"]):
            print("    %-22s %6d %12.3f %12.3f"
                  % (name, row["count"], row["total_ns"] * 1e-6,
                     row["self_ns"] * 1e-6))
    else:
        values, info = metrics.end_to_end(raw)
        for k, (unit, better) in metrics.END_TO_END.items():
            note = ""
            if k.startswith("step_"):
                note = "  (n=%d)" % info["samples"]
            if k == "step_cpu_ms_p90" and not info["p90_supported"]:
                note += "  [fewer than %d samples beyond p90]" % \
                    metrics.TAIL_SAMPLES
            print("  %-22s %14s %-4s %s better%s"
                  % (k, fmt(values[k]), unit, better, note))
        if info["tail"]:
            p, v, n = info["tail"]
            print("  highest percentile with >=%d samples beyond: p%g = %s ms"
                  " (n=%d)" % (metrics.TAIL_SAMPLES, p, fmt(v), n))
        print("  wall clock (not a metric; counts time neighbours held "
              "the cores):")
        for k, (unit, better) in metrics.WALL.items():
            print("    %-20s %14s %-4s %s better"
                  % (k, fmt(info["wall"][k]), unit, better))
    attempted = result["attempted"]
    print("  %-22s %14s      (%d of %d iterations)"
          % ("failed_frac", fmt(result["failed"] / attempted if attempted
                                else 1.0), result["failed"], attempted))
    ref = [ep["host_ref_ms"] for ep in raw["episodes"]]
    print("  host reference loop (not a metric): median %.2f ms, range "
          "%.2f-%.2f ms over %d episodes" % (metrics.percentile(ref, 50),
                                             min(ref), max(ref), len(ref)))
    hashes = sorted({ep["hash"] for ep in raw["episodes"]})
    print("  output hash (FNV-1a of final leaf interiors): %s"
          % ",".join(hashes))
    for line in failures:
        print("  FAILED CHECK: " + line)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; %d is held out for "
                    "checking claims)" % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measured time per workload (BENCHMARK.json "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        check_environment()
        binary = build()
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        results = {}
        for w in workloads:
            raw, path = run_workload(binary, w, args.seed, args.seconds,
                                     args.trace)
            results[w] = report(raw, path)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's metric logic.

    python3 -m unittest discover -s perfbench/tests

The percentile, failure-accounting and span tests are pure Python. The hash
and broken-check tests build and run the benchmark binary (Release, into
.bench_build/ like run.py does) on a few iterations.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402
import run  # noqa: E402


def fnv1a(data):
    h = 0xcbf29ce484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def episode(**kw):
    ep = {"warmup": False, "traced": False, "variant": 0, "setup_s": 0.1,
          "setup_cpu_s": 0.1, "attempted": 40,
          "failed": 0, "error": "", "iter_ms": [10.0] * 40,
          "iter_cpu_ms": [10.0] * 40,
          "cells": [1000] * 40, "leaves": [10] * 40, "changed": [0] * 40,
          "faults": [0] * 40, "setup_changed": [3, 0], "peak_rss_mb": 100.0,
          "host_ref_ms": 10.0, "mass0": 1.0, "mass1": 1.0, "finite": True,
          "min_density": 1.0,
          "min_pressure": 1.0, "has_pressure": True, "hash": "abc",
          "hash_replay_point": ""}
    ep.update(kw)
    return ep


def record(episodes, **kw):
    raw = {"workload": "w", "seed": "1", "trace": False,
           "config": {"threads": 1, "iterations_per_episode": 40,
                      "adapt_every": 0, "rk_stages": 2},
           "episodes": episodes,
           "replay": {"ran": False, "paired_episode": -1, "kind": "",
                      "threads": 0, "setup_s": 0.0, "iter_ms": [],
                      "iter_cpu_ms": [], "hash": "",
                      "matches": False},
           "aux_error": "", "spans": []}
    raw.update(kw)
    return raw


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        xs = [float(i) for i in range(100)]
        self.assertEqual(metrics.tail_percentile(xs)[0], 90.0)
        # Interpolated p90 of 0..n-1 sits at 0.9 (n - 1): 92 samples leave
        # exactly 10 above it, 91 leave 9.
        self.assertTrue(metrics.supports(xs[:92], 90))
        self.assertFalse(metrics.supports(xs[:91], 90))

    def test_highest_supported_percentile_and_count(self):
        self.assertEqual(metrics.tail_percentile(list(range(50)))[0], 80.0)
        p, value, n = metrics.tail_percentile(list(range(1000)))
        self.assertEqual((p, n), (99.0, 1000))
        self.assertEqual(metrics.beyond(list(range(1000)), value), 10)
        self.assertIsNone(metrics.tail_percentile(list(range(19))))

    def test_interpolation(self):
        self.assertEqual(metrics.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertEqual(metrics.percentile([5.0], 90), 5.0)

    def test_end_to_end_skips_warmup_and_traced_episodes(self):
        raw = record([episode(warmup=True, iter_cpu_ms=[500.0] * 40),
                      episode(traced=True, iter_cpu_ms=[99.0] * 40),
                      episode(), episode(), episode()])
        values, info = metrics.end_to_end(raw)
        self.assertEqual(info["samples"], 120)
        self.assertEqual(values["step_cpu_ms_p90"], 10.0)
        # 1000 cells x 2 stages per 10 ms iteration
        self.assertAlmostEqual(values["cell_updates_per_cpu_s"], 2e5)

    def test_end_to_end_uses_cpu_time_and_keeps_wall_time_apart(self):
        # Four threads busy for a 10 ms wall-clock iteration; the setup was
        # preempted for half its wall time.
        slow = episode(iter_cpu_ms=[40.0] * 40, setup_s=0.2, setup_cpu_s=0.1)
        values, info = metrics.end_to_end(record([slow] * 3))
        self.assertEqual(values["step_cpu_ms_p50"], 40.0)
        self.assertAlmostEqual(values["cell_updates_per_cpu_s"], 5e4)
        self.assertEqual(values["setup_s"], 0.1)
        self.assertEqual(info["wall"]["step_ms_p50"], 10.0)
        self.assertAlmostEqual(info["wall"]["cell_updates_per_s"], 2e5)
        self.assertEqual(info["wall"]["setup_s"], 0.2)
        self.assertEqual(set(info["wall"]), set(metrics.WALL))


class FailureAccounting(unittest.TestCase):
    def test_clean_run(self):
        attempted, failed, failures = metrics.failure_accounting(
            record([episode(), episode()]))
        self.assertEqual((attempted, failed, failures), (80, 0, []))

    def test_throwing_iteration_fails_the_rest_of_its_episode(self):
        raw = record([episode(), episode(error="iteration 10: boom",
                                         failed=30, hash="")])
        attempted, failed, _ = metrics.failure_accounting(raw)
        self.assertEqual((attempted, failed), (80, 40))

    def test_failed_output_check_fails_every_iteration_of_the_episode(self):
        raw = record([episode(), episode(mass1=1.0 + 1e-9)])
        attempted, failed, failures = metrics.failure_accounting(raw)
        self.assertEqual((attempted, failed), (80, 40))
        self.assertIn("mass_conserved", failures[0])
        for bad in ({"finite": False}, {"min_density": -1.0},
                    {"min_pressure": 0.0}):
            self.assertEqual(metrics.failure_accounting(
                record([episode(**bad)]))[1], 40)

    def test_run_level_checks_fail_the_whole_run(self):
        raw = record([episode(), episode(hash="other")])
        self.assertEqual(metrics.failure_accounting(raw)[1], 80)
        # Different images of the workload may differ, episodes of one not.
        raw = record([episode(), episode(variant=1, hash="other"),
                      episode(variant=1, hash="other")])
        self.assertEqual(metrics.failure_accounting(raw)[1], 0)
        replay = {"ran": True, "paired_episode": 0, "kind": "one_thread",
                  "threads": 1,
                  "setup_s": 0.0, "iter_ms": [1.0], "iter_cpu_ms": [1.0],
                  "hash": "x",
                  "matches": False}
        self.assertEqual(metrics.failure_accounting(
            record([episode()], replay=replay))[1], 40)

    def test_result_line_shape(self):
        result, _ = metrics.result_line(record([episode()] * 4))
        self.assertEqual(list(result), ["correct", "attempted", "failed",
                                        "metrics"])
        self.assertEqual(set(result["metrics"]), set(metrics.END_TO_END))


class SpanArithmetic(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(metrics.covered((0, 100), []), 0)
        self.assertEqual(metrics.covered((0, 100), [(10, 20), (15, 30)]), 20)
        self.assertEqual(metrics.covered((0, 100), [(-5, 10), (90, 120)]), 20)
        self.assertEqual(metrics.covered((0, 100), [(20, 30), (40, 50)]), 20)

    def test_self_time(self):
        spans = [[1, 0, "iteration", 0, 100],
                 [2, 1, "compute_dt", 0, 10],
                 [3, 1, "step", 10, 90],
                 [4, 0, "iteration", 100, 150],
                 [5, 4, "step", 100, 150]]
        table = metrics.span_table(spans)
        self.assertEqual(table["iteration"],
                         {"count": 2, "total_ns": 150, "self_ns": 10})
        self.assertEqual(table["step"]["self_ns"], 130)
        for got, want in zip(metrics.durations_ms(spans, "step", "iteration"),
                             [80e-6, 50e-6]):
            self.assertAlmostEqual(got, want)


class ContractFile(unittest.TestCase):
    def test_benchmark_json_names_the_metrics(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in spec["end_to_end"]}
        self.assertEqual(e2e, metrics.END_TO_END)
        layers = {m["name"]: (m["unit"], m["better"])
                  for m in spec["per_layer"]}
        self.assertEqual(layers, metrics.PER_LAYER)


class Binary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def run_binary(self, *args):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "raw.json"
            subprocess.run([str(self.binary), "--seconds", "0", "--trace", "0",
                            "--out", str(out)] + list(args), check=True)
            return json.loads(out.read_text())

    def test_fnv1a_matches_reference(self):
        for data in (b"", b"a", b"foobar", bytes(range(256))):
            got = subprocess.run([str(self.binary), "--fnv", data.hex()],
                                 check=True, capture_output=True,
                                 text=True).stdout.strip()
            self.assertEqual(got, fnv1a(data))
        self.assertEqual(fnv1a(b"a"), "af63dc4c8601ec8c")  # published vector

    def test_hash_is_stable_across_episodes_and_processes(self):
        # Episodes 0 (warm-up) and 1 step the seed's first image, episode 2
        # its second.
        args = ("--workload", "euler_rank4_shm", "--episodes", "3",
                "--iterations", "4")
        a = self.run_binary("--seed", "5", *args)
        b = self.run_binary("--seed", "5", *args)
        c = self.run_binary("--seed", "6", *args)
        self.assertEqual([ep["variant"] for ep in a["episodes"]], [0, 0, 1])
        first = {ep["hash"] for ep in a["episodes"][:2] + b["episodes"][:2]}
        self.assertEqual(len(first), 1)
        self.assertEqual(a["episodes"][2]["hash"], b["episodes"][2]["hash"])
        self.assertNotIn(a["episodes"][2]["hash"], first)
        self.assertNotIn(c["episodes"][0]["hash"], first)

    def test_deliberately_broken_output_fails_every_iteration(self):
        raw = self.run_binary("--workload", "euler_rank4_shm", "--seed", "5",
                              "--episodes", "2", "--iterations", "4",
                              "--break-check")
        result, failures = metrics.result_line(raw)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(all("mass_conserved" in f for f in failures))


if __name__ == "__main__":
    unittest.main()

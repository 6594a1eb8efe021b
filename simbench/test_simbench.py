#!/usr/bin/env python3
"""Tests of the simulator benchmark itself.

Run from the repository root:

    python3 simbench/test_simbench.py

The benchmark is built (incrementally) exactly as run.py builds it, and
each test drives the binary or run.py with short runs.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (the benchmark's own launcher)

ROOT = run.ROOT
BUILD_DIR = os.path.join(run.build_root(), "simbench")
BINARY = os.path.join(BUILD_DIR, "simbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
RECORDED_SEED = 1
# Records and fingerprint files the tests write, inside the build tree.
TMP = os.path.join(run.build_root(), "tests")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def setUpModule():
    log = os.path.join(run.build_root(), "simbench-build.log")
    os.makedirs(TMP, exist_ok=True)
    if not run.build(BUILD_DIR, log):
        raise RuntimeError(f"simbench build failed, see {log}")


class Run:
    """One benchmark process: its exit code, output and record."""

    def __init__(self, workload, seed, trace=0, seconds="0.5",
                 expect=FINGERPRINTS):
        self.out_dir = tempfile.mkdtemp(prefix="run-", dir=TMP)
        cmd = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", str(trace),
               "--expect", expect, "--out", self.out_dir]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        self.code = proc.returncode
        self.stdout = proc.stdout
        self.stderr = proc.stderr
        self.result = json.loads(proc.stdout.strip().splitlines()[-1])
        stem = f"{workload}-seed{seed}-trace{trace}"
        with open(os.path.join(self.out_dir, stem + ".json"),
                  encoding="utf-8") as f:
            self.record = json.load(f)
        self.chrome_path = os.path.join(self.out_dir, stem + ".trace.json")


def corrupted_fingerprints(mutate):
    with open(FINGERPRINTS, encoding="utf-8") as f:
        doc = json.load(f)
    mutate(doc["workloads"])
    fd, path = tempfile.mkstemp(suffix=".json", dir=TMP)
    with os.fdopen(fd, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


class Determinism(unittest.TestCase):
    def test_same_seed_gives_identical_counts_and_fingerprints(self):
        a = Run("flat4_shared", 5)
        b = Run("flat4_shared", 5)
        self.assertEqual((a.code, b.code), (0, 0))
        self.assertTrue(a.result["correct"] and b.result["correct"])
        for key in ("fingerprint", "counts", "trace_digest"):
            self.assertEqual(a.record[key], b.record[key], key)

    def test_different_seed_changes_the_traces(self):
        a = Run("flat4_shared", 5)
        b = Run("flat4_shared", 6)
        self.assertNotEqual(a.record["trace_digest"],
                            b.record["trace_digest"])
        self.assertNotEqual(a.record["fingerprint"], b.record["fingerprint"])

    def test_fig4_seed_changes_the_traces(self):
        a = Run("fig4_sweep", 5, seconds="0.1")
        b = Run("fig4_sweep", 6, seconds="0.1")
        self.assertTrue(a.result["correct"] and b.result["correct"])
        self.assertNotEqual(a.record["trace_digest"],
                            b.record["trace_digest"])


class FingerprintCheck(unittest.TestCase):
    def test_recorded_seed_matches(self):
        r = Run("hier4x4", RECORDED_SEED, seconds="0.1")
        self.assertEqual(r.result["failed"], 0)
        self.assertEqual(r.result["attempted"] % 16, 0)

    def test_corrupted_operation_fails_that_operation_in_every_rep(self):
        def bump(w):
            w["flat4_shared"]["ops"][0][1] += 1
        r = Run("flat4_shared", RECORDED_SEED,
                expect=corrupted_fingerprints(bump))
        self.assertEqual(r.code, 0)
        self.assertFalse(r.result["correct"])
        reps = r.result["attempted"] // 4
        self.assertEqual(r.result["failed"], reps)

    def test_corrupted_machine_field_fails_every_operation(self):
        def bump(w):
            w["fig4_sweep"]["elapsed_ticks"] += 1
        r = Run("fig4_sweep", RECORDED_SEED, seconds="0.1",
                expect=corrupted_fingerprints(bump))
        self.assertFalse(r.result["correct"])
        self.assertEqual(r.result["failed"], r.result["attempted"])

    def test_canary_checks_other_seeds_against_the_record(self):
        def bump(w):
            w["flat4_shared"]["upgrades"] += 1
        r = Run("flat4_shared", 5, expect=corrupted_fingerprints(bump))
        self.assertFalse(r.result["correct"])
        self.assertEqual(r.result["failed"], 4)  # the canary rep only


class Output(unittest.TestCase):
    def test_untraced_run_reports_every_end_to_end_metric(self):
        r = Run("flat4_private", 3, seconds="0.2")
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        got = {k: v["unit"] for k, v in r.result["metrics"].items()}
        self.assertEqual(got, expected)
        self.assertTrue(all(v["value"] > 0
                            for v in r.result["metrics"].values()))
        host = r.record["host"]
        for key in ("setup_s", "generate_s", "build_s", "peak_rss_mb",
                    "events_dispatched", "seed"):
            self.assertIn(key, host)
        self.assertEqual(host["seed"], 3)

    def test_traced_run_reports_every_per_layer_metric(self):
        r = Run("hier4x4", 4, trace=1, seconds="1")
        self.assertTrue(r.result["correct"])
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        got = {k: v["unit"] for k, v in r.result["metrics"].items()}
        self.assertEqual(got, expected)
        m = {k: v["value"] for k, v in r.result["metrics"].items()}
        self.assertGreater(m["hier.global_fetches_per_miss"], 0)
        self.assertGreater(m["sim.events_per_ref"], 1)
        self.assertGreater(m["obs.phase_block_copy_us"], 0)
        with open(r.chrome_path, encoding="utf-8") as f:
            spans = json.load(f)["traceEvents"]
        names = {s["name"] for s in spans}
        for name in ("generate", "build", "run", "collect", "ladder",
                     "traced", "checked", "proto.miss_dirty_ns"):
            self.assertIn(name, names)
        ladder = [s for s in spans if s["name"] == "mem.bus_tx_ns"]
        self.assertGreater(ladder[0]["args"]["calls"], 0)


class BadArguments(unittest.TestCase):
    CASES = [
        ["--workload", "nope", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "fig4_sweep", "--seed", "x1", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "fig4_sweep", "--seed", "-3", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "fig4_sweep", "--seed", "1", "--seconds", "0",
         "--trace", "0"],
        ["--workload", "fig4_sweep", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        ["--workload", "fig4_sweep", "--seed"],
    ]

    def check(self, cmd):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        self.assertEqual(proc.returncode, 1, cmd)
        self.assertIn("simbench:", proc.stderr)
        self.assertNotIn("terminate called", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)

    def test_binary_rejects_bad_arguments(self):
        for args in self.CASES:
            self.check([BINARY, *args])

    def test_launcher_rejects_bad_arguments(self):
        for args in self.CASES[:2]:
            self.check([sys.executable, os.path.join(HERE, "run.py"),
                        *args])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py

Builds through run.py like a real run (the first call may take a few
minutes), then checks that the printed metric and workload names match
BENCHMARK.json, that the seed changes the inputs but not the metric set,
that a corrupted serve-probe reply is counted as a failure, and that a
directory holding only the benchmark fails cleanly. Takes about two
minutes once built.
"""

import json
import os
import re
import shutil
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed=1, seconds=1, trace=0, extra=()):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = done.stdout.strip().split("\n")
    return done.returncode, json.loads(lines[-1]) if lines[-1] else None


def build_dir():
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return build if build.is_absolute() else ROOT / build


class BenchmarkJson(unittest.TestCase):
    def test_shape(self):
        doc = benchmark_json()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds",
                                    "workloads", "end_to_end", "per_layer"})
        self.assertEqual(doc["command"], RUN)
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        names = [w["name"] for w in doc["workloads"]]
        names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))


class Outputs(unittest.TestCase):
    def test_names_match_benchmark_json_on_every_workload(self):
        doc = benchmark_json()
        for workload in [w["name"] for w in doc["workloads"]]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in doc[kind]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    if kind == "end_to_end":
                        for name, entry in result["metrics"].items():
                            self.assertNotEqual(entry["value"], 0, name)

    def test_seed_changes_inputs_not_metric_set(self):
        run("nfs_10k")  # Builds the binary.
        binary = build_dir() / "perfbench" / "perfbench"
        digests = []
        for seed in (1, 2, 1):
            done = subprocess.run(
                [str(binary), "--workload", "nfs_10k", "--seed",
                 str(seed), "--describe-inputs"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            digests.append(json.loads(done.stdout)["table_digest"])
        self.assertNotEqual(digests[0], digests[1])
        self.assertEqual(digests[0], digests[2])
        sets = [set(run("nfs_10k", seed=seed)[1]["metrics"])
                for seed in (1, 2)]
        self.assertEqual(sets[0], sets[1])

    def test_corrupted_reply_is_a_failure(self):
        # The traced run's serve probe checks every reply.
        code, result = run("nfs_10k", trace=1, extra=("--corrupt-every", "50"))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_benchmark_alone_fails_without_result(self):
        alone = build_dir() / "selftest_alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        shutil.copytree(ROOT / "perfbench", alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(
            RUN + ["--workload", "nfs_10k", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
            cwd=alone, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180, env=env)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)

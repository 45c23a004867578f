#!/usr/bin/env python3
"""Tests for the benchmark itself.

    python3 perfbench/test_perfbench.py        # from the checkout root

They build through perfbench/run.py like a real run (the first build takes
a minute or two) and then make short runs: every declared metric appears
with its unit and direction, a sieve_server killed mid-run shows up as
failures without hanging the run, a wrong reference count fails the run,
and the benchmark refuses to run without the library sources.
"""
import json
import re
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT, timeout=175):
    """Runs the benchmark; returns (exit code, stdout lines, result, wall s)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *map(str, args)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result, time.monotonic() - start


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, ["paper_sieve", "fine_sieve", "remote_filter"])
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        seen = set(names)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_binary_declares_the_same_metrics(self):
        source = (HERE / "perfbench.cpp").read_text()

        def table(name):
            block = source.split(f"constexpr MetricDef {name}[] = {{")[1]
            block = block.split("};")[0]
            return re.findall(r'\{"([^"]+)", "([^"]+)", "([^"]+)"\}', block)

        for key, table_name in (("end_to_end", "kEndToEnd"),
                                ("per_layer", "kPerLayer")):
            declared = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
            self.assertEqual(declared, table(table_name), key)


class RunTest(unittest.TestCase):
    def check_result(self, lines, result, declared):
        self.assertIsNotNone(result, "last line is not JSON")
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        human = "\n".join(lines)
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(
                human, rf"metric {re.escape(m['name'])} +\S+ "
                       rf"{re.escape(m['unit'])} +\({m['better']} is better\)")

    def test_every_end_to_end_metric_on_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines, result, _ = run_bench(
                    "--workload", w["name"], "--seed", 7, "--seconds", 1,
                    "--trace", 0)
                self.assertEqual(code, 0, "\n".join(lines[-5:]))
                self.check_result(lines, result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertTrue(any(l.startswith("context {") for l in lines))

    def test_traced_run_prints_every_per_layer_metric(self):
        code, lines, result, _ = run_bench(
            "--workload", "remote_filter", "--seed", 7, "--seconds", 2,
            "--trace", 1)
        self.assertEqual(code, 0, "\n".join(lines[-5:]))
        self.check_result(lines, result, SPEC["per_layer"])
        trace = ROOT / ".bench_build/perfbench/out/trace-remote_filter-7.json"
        events = json.loads(trace.read_text())
        self.assertTrue(any(e.get("name", "").startswith("bench.solve.")
                            for e in events))

    def test_killed_server_counts_failures_and_the_run_ends(self):
        code, lines, result, wall = run_bench(
            "--workload", "remote_filter", "--seed", 7, "--seconds", 3,
            "--trace", 0, "--kill-server-after", 0.3)
        self.assertNotEqual(code, 0)
        self.check_result(lines, result, SPEC["end_to_end"])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(wall, 120)

    def test_wrong_reference_fails_the_run(self):
        code, lines, result, _ = run_bench(
            "--workload", "remote_filter", "--seed", 7, "--seconds", 1,
            "--trace", 0, "--corrupt-reference")
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_without_library_sources(self):
        lonely = ROOT / ".bench_build" / "lonely"
        shutil.rmtree(lonely, ignore_errors=True)
        lonely.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", lonely)
        shutil.copytree(HERE, lonely / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, _, result, _ = run_bench(
                "--workload", "paper_sieve", "--seed", 1, "--seconds", 1,
                "--trace", 0, cwd=lonely, timeout=60)
        finally:
            shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)

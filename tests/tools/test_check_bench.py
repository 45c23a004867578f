#!/usr/bin/env python3
"""Tests for the benchmark ledger tools: tools/check_bench.py gates the
committed BENCH_net.json / BENCH_adapt.json and fires on each mutated
bound; tools/run_bench.py's NetServer leaves no child behind when the
server never reports its port.

    python3 -m unittest tests/tools/test_check_bench.py
"""

import copy
import json
import os
import stat
import sys
import tempfile
import unittest
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import check_bench  # noqa: E402
import run_bench  # noqa: E402


def load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


class CommittedDocuments(unittest.TestCase):
    def test_committed_net_passes_full_gate(self):
        doc = load("BENCH_net.json")
        self.assertEqual(doc["kind"], "net")
        self.assertFalse(doc["quick"])
        check_bench.check(doc)

    def test_committed_adapt_passes(self):
        doc = load("BENCH_adapt.json")
        self.assertEqual(doc["kind"], "adapt")
        check_bench.check(doc)

    def test_main_exit_status(self):
        paths = [os.path.join(ROOT, "BENCH_net.json"),
                 os.path.join(ROOT, "BENCH_adapt.json")]
        with mock.patch("sys.stdout"):
            self.assertEqual(check_bench.main(paths), 0)
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "bad.json")
            with open(bad, "w") as fh:
                json.dump({"kind": "net"}, fh)
            with mock.patch("sys.stdout"), mock.patch("sys.stderr"):
                self.assertEqual(check_bench.main(paths + [bad]), 1)


class Mutations(unittest.TestCase):
    """Each carried-over bound fires on a copy of a committed document."""

    def setUp(self):
        self.net = load("BENCH_net.json")
        self.adapt = load("BENCH_adapt.json")

    def open_row(self, doc):
        return next(row for row in doc["scenarios"].values()
                    if row["mode"] == "open")

    def assert_fails(self, doc, pattern):
        with self.assertRaisesRegex(check_bench.BenchError, pattern):
            check_bench.check(doc)

    def test_too_few_connections_per_worker(self):
        doc = copy.deepcopy(self.net)
        row = self.open_row(doc)
        row["clients"] = check_bench.MIN_CONNECTIONS_PER_WORKER * \
            doc["workers"] - 1
        self.assert_fails(doc, "connections <")

    def test_errors(self):
        doc = copy.deepcopy(self.net)
        row = self.open_row(doc)
        row["ok"] -= 1
        row["errors"] += 1
        self.assert_fails(doc, "requests failed")

    def test_p99_over_bound(self):
        doc = copy.deepcopy(self.net)
        lat = self.open_row(doc)["latency_us"]
        lat["p99"] = check_bench.MAX_P99_US + 1
        lat["p999"] = lat["max"] = check_bench.MAX_P99_US + 2
        self.assert_fails(doc, "p99 .* > 5000us")

    def test_percentile_inversion(self):
        doc = copy.deepcopy(self.net)
        lat = next(iter(doc["scenarios"].values()))["latency_us"]
        lat["p50"] = lat["p95"] * 1.01
        self.assert_fails(doc, "p50 .* > p95")

    def test_request_accounting(self):
        doc = copy.deepcopy(self.net)
        next(iter(doc["scenarios"].values()))["requests"] += 1
        self.assert_fails(doc, "!= ok")

    def test_throughput_inconsistent_with_items_per_second(self):
        doc = copy.deepcopy(self.adapt)
        stats = doc["configs"]["static_w1_g1"]["phases"]["sieve_fine"]
        stats["throughput_items_per_s"] *= 1.01
        self.assert_fails(doc, "inconsistent with items/seconds")

    def test_adaptive_recovery_below_floor(self):
        doc = copy.deepcopy(self.adapt)
        configs = doc["configs"]
        best = max(row["phases"]["service_wide"]["throughput_items_per_s"]
                   for name, row in configs.items() if name != "adaptive")
        stats = configs["adaptive"]["phases"]["service_wide"]
        stats["throughput_items_per_s"] = \
            (check_bench.MIN_RECOVERY - 0.01) * best
        stats["items"] = stats["throughput_items_per_s"] * stats["seconds"]
        self.assert_fails(doc, "adaptive worst-phase recovery")

    def test_static_corner_reaching_floor(self):
        doc = copy.deepcopy(self.adapt)
        # A static corner that matches the adaptive run in every phase has
        # a worst-phase recovery >= 0.8 too.
        doc["configs"]["static_w1_g1"]["phases"] = copy.deepcopy(
            doc["configs"]["adaptive"]["phases"])
        self.assert_fails(doc, "static configuration recovers")

    def test_missing_host_block(self):
        for name in ("net", "adapt"):
            doc = copy.deepcopy(getattr(self, name))
            del doc["host"]
            self.assert_fails(doc, "missing 'host' block")

    def test_unknown_kind(self):
        doc = copy.deepcopy(self.net)
        doc["kind"] = "scheduler"
        self.assert_fails(doc, "unknown kind")
        del doc["kind"]
        self.assert_fails(doc, "unknown kind")

    def test_quick_net_is_schema_only(self):
        doc = copy.deepcopy(self.net)
        doc["quick"] = True
        row = self.open_row(doc)
        row["clients"] = 1
        row["ok"] -= 1
        row["errors"] += 1
        row["latency_us"].update(p99=9000.0, p999=9000.0, max=9000.0)
        check_bench.check(doc)
        row["requests"] += 1
        self.assert_fails(doc, "!= ok")


class NetServerCleanup(unittest.TestCase):
    def test_no_child_left_when_port_never_appears(self):
        with tempfile.TemporaryDirectory() as build:
            os.mkdir(os.path.join(build, "examples"))
            stub = os.path.join(build, "examples", "sieve_server")
            with open(stub, "w") as fh:
                fh.write("#!/bin/sh\nexec sleep 60\n")
            os.chmod(stub, stat.S_IRWXU)

            server = run_bench.NetServer(build, 2)
            with mock.patch.object(run_bench, "PORT_DEADLINE_S", 0.3), \
                    mock.patch("sys.stderr"):
                with self.assertRaisesRegex(SystemExit, "did not report"):
                    with server:
                        self.fail("entered without a port")
            self.assertIsNotNone(server.proc.poll())
            with self.assertRaises(ProcessLookupError):
                os.kill(server.proc.pid, 0)


if __name__ == "__main__":
    unittest.main()

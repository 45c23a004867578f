#!/usr/bin/env python3
"""Validate BENCH_net.json (produced by tools/run_bench.py --net).

Structural checks always run: every scenario must carry the full latency
summary with ordered percentiles and a sane request accounting. A full-mode
document (not --quick) must also pass the reactor gate on its open-loop
scenario: at least MIN_CONNECTIONS_PER_WORKER x workers connections, zero
errors, and p99 <= MAX_P99_US under the fixed offered rate.

    tools/check_net_bench.py BENCH_net.json

Exit status: 0 valid (or an explicit loopback-skip marker), 1 invalid.
"""

import argparse
import json
import sys

PERCENTILE_KEYS = ("p50", "p95", "p99", "p999", "max")
REQUIRED_KEYS = ("mode", "clients", "requests", "ok", "errors",
                 "throughput_rps", "latency_us")
# Reactor gate for the open-loop scenario: one event loop must hold 4
# connections per worker with no request lost, at a p99 well inside what a
# worker-bound server shows when those connections starve (seconds).
MIN_CONNECTIONS_PER_WORKER = 4
MAX_P99_US = 5000.0


def fail(message):
    print(f"check_net_bench: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_scenario(name, row):
    for key in REQUIRED_KEYS:
        if key not in row:
            fail(f"scenario {name}: missing key '{key}'")
    lat = row["latency_us"]
    for key in PERCENTILE_KEYS + ("mean",):
        if key not in lat:
            fail(f"scenario {name}: latency_us missing '{key}'")
        if not isinstance(lat[key], (int, float)) or lat[key] < 0:
            fail(f"scenario {name}: latency_us.{key} = {lat[key]!r}")
    for lo, hi in zip(PERCENTILE_KEYS, PERCENTILE_KEYS[1:]):
        # Log-linear buckets quantize, so equality is fine; inversion is not.
        if lat[lo] > lat[hi] * 1.001:
            fail(f"scenario {name}: {lo} ({lat[lo]}) > {hi} ({lat[hi]})")
    if row["requests"] != row["ok"] + row["errors"]:
        fail(f"scenario {name}: requests {row['requests']} != "
             f"ok {row['ok']} + errors {row['errors']}")
    if row["requests"] <= 0:
        fail(f"scenario {name}: no requests recorded")
    if row["ok"] > 0 and row["throughput_rps"] <= 0:
        fail(f"scenario {name}: ok > 0 but throughput_rps <= 0")


def check_reactor_gate(doc, scenarios):
    workers = doc.get("workers")
    if not isinstance(workers, int) or workers <= 0:
        fail(f"full-mode document needs a positive 'workers', got {workers!r}")
    open_rows = {name: row for name, row in scenarios.items()
                 if row["mode"] == "open"}
    if not open_rows:
        fail("full-mode document has no open-loop scenario to gate")
    for name, row in open_rows.items():
        need = MIN_CONNECTIONS_PER_WORKER * workers
        if row["clients"] < need:
            fail(f"scenario {name}: {row['clients']} connections < "
                 f"{MIN_CONNECTIONS_PER_WORKER} x {workers} workers")
        if row["errors"] != 0:
            fail(f"scenario {name}: {row['errors']} of {row['requests']} "
                 f"requests failed")
        p99 = row["latency_us"]["p99"]
        if p99 > MAX_P99_US:
            fail(f"scenario {name}: p99 {p99}us > {MAX_P99_US:.0f}us")
        print(f"check_net_bench: {name} held {row['clients']} connections "
              f"on {workers} workers, {row['ok']}/{row['requests']} ok, "
              f"p99 {p99}us (bound {MAX_P99_US:.0f}us)")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="BENCH_net.json to validate")
    args = parser.parse_args(argv)

    try:
        with open(args.path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.path}: {e}")

    if "skipped" in doc:
        print(f"check_net_bench: skipped ({doc['skipped']})")
        return
    scenarios = doc.get("scenarios")
    if not scenarios:
        fail("no scenarios in document")
    for name, row in scenarios.items():
        check_scenario(name, row)
    if not doc.get("quick", False):
        check_reactor_gate(doc, scenarios)
    print(f"check_net_bench: {args.path} OK ({len(scenarios)} scenarios)")


if __name__ == "__main__":
    main(sys.argv[1:])

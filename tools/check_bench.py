#!/usr/bin/env python3
"""Gate benchmark ledger documents written by tools/run_bench.py.

    tools/check_bench.py BENCH_net.json BENCH_adapt.json

Every document must carry a "host" block (cpus, compiler, build type, git
sha) and a known "kind", which selects the gate:

net    Every scenario carries the full latency summary with ordered
       percentiles and a sane request accounting. A full-mode document
       (not quick) must also pass the reactor gate on its open-loop
       scenario: at least MIN_CONNECTIONS_PER_WORKER x workers
       connections, zero errors, and p99 <= MAX_P99_US under the fixed
       offered rate. A loopback-skip marker passes.
adapt  Every configuration reports every phase with a positive measured
       duration and throughput = items / seconds. The worst-phase
       recovery of a configuration is the lowest ratio, over the phases,
       of its throughput to the best static configuration's. The adaptive
       configuration must recover at least MIN_RECOVERY, and no static
       configuration may; otherwise the workload has a one-size static
       answer and "adaptive keeps up" is vacuous. Quick documents are
       gated too.

Exit status: 0 when every document passes, 1 otherwise, 2 when no file
is named.
"""

import json
import sys

# net: one event loop must hold 4 connections per worker with no request
# lost, at a p99 well inside what a worker-bound server shows when those
# connections starve (seconds).
MIN_CONNECTIONS_PER_WORKER = 4
MAX_P99_US = 5000.0
# adapt: adaptive worst-phase recovery floor, and the ceiling every static
# configuration must stay under.
MIN_RECOVERY = 0.8

# Log-linear latency buckets quantize, so equal percentiles are fine and a
# 0.1 % inversion is rounding; more is a broken summary.
PERCENTILE_SLACK = 1.001
PERCENTILE_KEYS = ("p50", "p95", "p99", "p999", "max")
NET_REQUIRED_KEYS = ("mode", "clients", "requests", "ok", "errors",
                     "throughput_rps", "latency_us")
THROUGHPUT_TOLERANCE = 1e-3
HOST_KEYS = ("cpus", "compiler", "build_type", "git_sha")


class BenchError(Exception):
    pass


def check_host(doc):
    host = doc.get("host")
    if not isinstance(host, dict):
        raise BenchError("missing 'host' block")
    for key in HOST_KEYS:
        if not host.get(key):
            raise BenchError(f"host block lacks '{key}'")
    if not isinstance(host["cpus"], int) or host["cpus"] <= 0:
        raise BenchError(f"host.cpus = {host['cpus']!r}")


# --- net ---------------------------------------------------------------------

def check_scenario(name, row):
    for key in NET_REQUIRED_KEYS:
        if key not in row:
            raise BenchError(f"scenario {name}: missing key '{key}'")
    lat = row["latency_us"]
    for key in PERCENTILE_KEYS + ("mean",):
        if not isinstance(lat.get(key), (int, float)) or lat[key] < 0:
            raise BenchError(
                f"scenario {name}: latency_us.{key} = {lat.get(key)!r}")
    for lo, hi in zip(PERCENTILE_KEYS, PERCENTILE_KEYS[1:]):
        if lat[lo] > lat[hi] * PERCENTILE_SLACK:
            raise BenchError(
                f"scenario {name}: {lo} ({lat[lo]}) > {hi} ({lat[hi]})")
    if row["requests"] != row["ok"] + row["errors"]:
        raise BenchError(f"scenario {name}: requests {row['requests']} != "
                         f"ok {row['ok']} + errors {row['errors']}")
    if row["requests"] <= 0:
        raise BenchError(f"scenario {name}: no requests recorded")
    if row["ok"] > 0 and row["throughput_rps"] <= 0:
        raise BenchError(f"scenario {name}: ok > 0 but throughput_rps <= 0")


def check_net(doc):
    if "skipped" in doc:
        return [f"skipped ({doc['skipped']})"]
    scenarios = doc.get("scenarios")
    if not scenarios:
        raise BenchError("no scenarios in document")
    for name, row in scenarios.items():
        check_scenario(name, row)
    if doc.get("quick", False):
        return [f"{len(scenarios)} quick scenario(s), schema only"]

    workers = doc.get("workers")
    if not isinstance(workers, int) or workers <= 0:
        raise BenchError(
            f"full-mode document needs a positive 'workers', got {workers!r}")
    open_rows = {name: row for name, row in scenarios.items()
                 if row["mode"] == "open"}
    if not open_rows:
        raise BenchError("full-mode document has no open-loop scenario")
    lines = []
    for name, row in open_rows.items():
        if row["clients"] < MIN_CONNECTIONS_PER_WORKER * workers:
            raise BenchError(
                f"scenario {name}: {row['clients']} connections < "
                f"{MIN_CONNECTIONS_PER_WORKER} x {workers} workers")
        if row["errors"] != 0:
            raise BenchError(f"scenario {name}: {row['errors']} of "
                             f"{row['requests']} requests failed")
        p99 = row["latency_us"]["p99"]
        if p99 > MAX_P99_US:
            raise BenchError(
                f"scenario {name}: p99 {p99}us > {MAX_P99_US:.0f}us")
        lines.append(f"{name} held {row['clients']} connections on "
                     f"{workers} workers, {row['ok']}/{row['requests']} ok, "
                     f"p99 {p99}us (bound {MAX_P99_US:.0f}us)")
    return lines


# --- adapt -------------------------------------------------------------------

def check_config(name, row, phases):
    reported = row.get("phases")
    if not isinstance(reported, dict):
        raise BenchError(f"config {name}: missing 'phases'")
    for phase in phases:
        stats = reported.get(phase)
        if not isinstance(stats, dict):
            raise BenchError(f"config {name}: missing phase '{phase}'")
        for key in ("items", "seconds", "throughput_items_per_s"):
            if not isinstance(stats.get(key), (int, float)):
                raise BenchError(f"config {name}/{phase}: bad '{key}' "
                                 f"({stats.get(key)!r})")
        if stats["seconds"] <= 0 or stats["items"] <= 0:
            raise BenchError(f"config {name}/{phase}: empty measurement")
        expected = stats["items"] / stats["seconds"]
        if abs(stats["throughput_items_per_s"] - expected) > \
                expected * THROUGHPUT_TOLERANCE + 1e-9:
            raise BenchError(
                f"config {name}/{phase}: throughput "
                f"{stats['throughput_items_per_s']} inconsistent with "
                f"items/seconds ({expected:.3f})")


def throughput(configs, name, phase):
    return configs[name]["phases"][phase]["throughput_items_per_s"]


def worst_phase_recovery(configs, statics, phases):
    """Best static configuration per phase, and every configuration's
    lowest per-phase throughput ratio against it."""
    best = {phase: max(statics, key=lambda n: throughput(configs, n, phase))
            for phase in phases}
    recovery = {name: min(throughput(configs, name, p) /
                          throughput(configs, best[p], p) for p in phases)
                for name in configs}
    return best, recovery


def check_adapt(doc):
    configs = doc.get("configs")
    if not isinstance(configs, dict) or "adaptive" not in configs:
        raise BenchError("no 'adaptive' configuration")
    statics = sorted(n for n in configs if n != "adaptive")
    if len(statics) < 2:
        raise BenchError(
            f"need at least two static configurations, got {statics}")
    phases = sorted(configs["adaptive"].get("phases") or {})
    if not phases:
        raise BenchError("adaptive configuration reports no phases")
    for name, row in configs.items():
        check_config(name, row, phases)

    best, recovery = worst_phase_recovery(configs, statics, phases)
    lines = []
    for phase in phases:
        top = throughput(configs, best[phase], phase)
        ours = throughput(configs, "adaptive", phase)
        lines.append(f"{phase}: best static {best[phase]} at {top:.0f} "
                     f"items/s, adaptive {ours:.0f} ({ours / top:.3f})")
    lines += [f"{name}: worst-phase recovery {recovery[name]:.3f}"
              for name in sorted(configs)]
    adaptive = recovery["adaptive"]
    best_static = max(recovery[n] for n in statics)
    if adaptive < MIN_RECOVERY:
        raise BenchError(f"adaptive worst-phase recovery {adaptive:.3f} < "
                         f"{MIN_RECOVERY}")
    if best_static >= MIN_RECOVERY:
        raise BenchError(f"a static configuration recovers {best_static:.3f} "
                         f"across all phases; the workload no longer needs "
                         f"adaptation")
    lines.append(f"adaptive {adaptive:.3f} >= {MIN_RECOVERY} > best static "
                 f"{best_static:.3f}")
    return lines


CHECKERS = {"net": check_net, "adapt": check_adapt}


def check(doc):
    """Gate one document; returns summary lines, raises BenchError."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in CHECKERS:
        raise BenchError(f"unknown kind {kind!r}")
    check_host(doc)
    return CHECKERS[kind](doc)


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        try:
            with open(path) as fh:
                lines = check(json.load(fh))
        except (OSError, ValueError, BenchError) as e:
            print(f"check_bench: {path}: FAIL: {e}", file=sys.stderr)
            failed = True
            continue
        for line in lines:
            print(f"check_bench: {path}: {line}")
        print(f"check_bench: {path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Produce one benchmark ledger document: BENCH_net.json or BENCH_adapt.json.

    tools/run_bench.py net   [--quick] [--build build] [--out BENCH_net.json]
    tools/run_bench.py adapt [--quick] [--build build] [--out BENCH_adapt.json]

net drives examples/sieve_server + tools/loadgen through two latency
scenarios against the server's reactor:
  reactor_w8_c8   closed loop, clients == workers: the baseline service
                  latency.
  reactor_w8_c32  open loop, 4x workers connections at a fixed offered
                  rate (coordinated-omission-corrected percentiles).
--quick runs one small closed-loop round instead, for CI.

adapt drives bench/adapt_scaling, the phase-shifting autonomic workload:
the static (workers, grain) corners plus the adaptive configuration over
alternating sieve/service/mandel phases (--quick shrinks the phases).

Every document carries "kind" ("net" or "adapt") and a "host" block (cpus,
compiler, build type, git sha); tools/check_bench.py gates both kinds.
Exit status is nonzero when a binary fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

# Open-loop reactor scenario: W workers, 4x W connections, fixed offered
# rate over a fixed measurement window.
NET_WORKERS = 8
NET_CONNECTIONS = 32
NET_RATE = 3000.0
NET_MEASURE_SECONDS = 4.0
# How long sieve_server may take to write its port file.
PORT_DEADLINE_S = 10.0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("kind", choices=("net", "adapt"),
                        help="which document to produce")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down CI smoke run")
    parser.add_argument("--build", default="build",
                        help="build directory with the binaries")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_<kind>.json)")
    return parser.parse_args(argv)


def command_output(cmd, cwd=None):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True,
                              cwd=cwd).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def host_block(build):
    """cpus, compiler, build type and git sha of the run being recorded."""
    cache = {}
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as fh:
            for line in fh:
                key, sep, value = line.strip().partition("=")
                if sep and not key.startswith(("//", "#")):
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = command_output([compiler, "--version"]) if compiler else ""
    repo = os.path.dirname(os.path.abspath(__file__))
    return {
        "cpus": os.cpu_count(),
        "compiler": version.splitlines()[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_sha": command_output(["git", "describe", "--always", "--dirty"],
                                  cwd=repo),
    }


# --- net: sieve_server + loadgen latency scenarios --------------------------

class LoopbackUnavailable(Exception):
    pass


class NetServer:
    """examples/sieve_server as a context manager: starts the process,
    waits for the port file, SIGTERMs on exit."""

    def __init__(self, build, workers):
        self.binary = os.path.join(build, "examples", "sieve_server")
        self.workers = workers
        self.proc = None
        self.port = None

    def __enter__(self):
        port_file = tempfile.NamedTemporaryFile(
            prefix="apar_port_", delete=False)
        port_file.close()
        os.unlink(port_file.name)
        cmd = [self.binary, "--workers", str(self.workers),
               "--port-file", port_file.name, "--run-seconds", "300"]
        print("+ " + " ".join(cmd), file=sys.stderr)
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        try:
            self.port = self._wait_for_port(port_file.name)
        except BaseException:
            self.__exit__()
            raise
        finally:
            if os.path.exists(port_file.name):
                os.unlink(port_file.name)
        return self

    def _wait_for_port(self, path):
        deadline = time.time() + PORT_DEADLINE_S
        while time.time() < deadline:
            rc = self.proc.poll()
            if rc is not None:
                # rc 2 = loopback unavailable in this sandbox
                raise LoopbackUnavailable() if rc == 2 else SystemExit(
                    f"sieve_server exited early ({rc})")
            if os.path.exists(path):
                with open(path) as fh:
                    text = fh.read().strip()
                if text:
                    return int(text)
            time.sleep(0.05)
        raise SystemExit(
            f"sieve_server did not report a port within {PORT_DEADLINE_S}s")

    def __exit__(self, *exc):
        if self.proc and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return False


def run_loadgen(build, port, label, extra):
    dump = tempfile.NamedTemporaryFile(prefix="apar_lg_", suffix=".json",
                                       delete=False)
    dump.close()
    cmd = [os.path.join(build, "tools", "loadgen"),
           "--port", str(port), "--label", label, "--dump", dump.name] + extra
    print("+ " + " ".join(cmd), file=sys.stderr)
    try:
        proc = subprocess.run(cmd)
        if proc.returncode not in (0, 1):  # 1 = zero successes, a datapoint
            raise SystemExit(f"loadgen failed ({proc.returncode})")
        with open(dump.name) as fh:
            return json.load(fh)
    finally:
        os.unlink(dump.name)


def run_net(build, quick):
    """Return the net document; a skip marker when loopback is missing."""
    scenarios = {}
    try:
        if quick:
            # CI smoke: one small closed-loop round against the reactor,
            # just enough to validate the whole pipeline end to end.
            name = "reactor_w2_c4_quick"
            with NetServer(build, 2) as server:
                scenarios[name] = run_loadgen(
                    build, server.port, name,
                    ["--mode", "closed", "--clients", "4",
                     "--requests", "200", "--warmup", "50"])
        else:
            name = f"reactor_w{NET_WORKERS}_c{NET_WORKERS}"
            with NetServer(build, NET_WORKERS) as server:
                scenarios[name] = run_loadgen(
                    build, server.port, name,
                    ["--mode", "closed", "--clients", str(NET_WORKERS),
                     "--requests", "2000", "--warmup", "200"])
            name = f"reactor_w{NET_WORKERS}_c{NET_CONNECTIONS}"
            with NetServer(build, NET_WORKERS) as server:
                scenarios[name] = run_loadgen(
                    build, server.port, name,
                    ["--mode", "open", "--clients", str(NET_CONNECTIONS),
                     "--rate", str(NET_RATE),
                     "--measure-seconds", str(NET_MEASURE_SECONDS),
                     "--warmup-seconds", "1", "--timeout-ms", "1000"])
    except LoopbackUnavailable:
        print("loopback TCP unavailable; writing a skip marker",
              file=sys.stderr)
        return {"skipped": "loopback TCP unavailable"}

    for name, row in scenarios.items():
        lat = row["latency_us"]
        print(f"  {name}: {row['ok']}/{row['requests']} ok, "
              f"{row['throughput_rps']:.0f} rps, "
              f"p50 {lat['p50']:.0f}us p99 {lat['p99']:.0f}us")
    return {"workers": 2 if quick else NET_WORKERS, "quick": quick,
            "scenarios": scenarios}


# --- adapt: phase-shifting autonomic workload -------------------------------

def run_adapt(build, quick, out):
    cmd = [os.path.join(build, "bench", "adapt_scaling"), "--out", out]
    if quick:
        cmd += ["--phase-seconds", "2", "--reps", "1"]
    print("+ " + " ".join(cmd), file=sys.stderr)
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        raise SystemExit(f"adapt_scaling failed ({proc.returncode})")
    with open(out) as fh:
        return json.load(fh)


def main(argv):
    args = parse_args(argv)
    out = args.out or f"BENCH_{args.kind}.json"
    if args.kind == "net":
        doc = run_net(args.build, args.quick)
    else:
        doc = run_adapt(args.build, args.quick, out)
    with open(out, "w") as fh:
        json.dump({"kind": args.kind, "host": host_block(args.build), **doc},
                  fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1:])

#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_sieve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first run configures and
builds the library, the sieve_server example and the perfbench binary in
.bench_build/perfbench (an optimised RelWithDebInfo build); later runs only
rebuild what changed. The binary's standard output is passed through: its
last line is the JSON result. The exit code is the binary's, so it is 0
only when every timed operation was verified correct.

Arguments other than the four above are passed to the binary unchanged
(the benchmark's own tests use --kill-server-after and
--corrupt-reference).
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to the benchmark in {ROOT}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench", "sieve_server"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; full log in {log_path}", 3)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the sources the benchmark builds, so a result names the
    code it measured even where there is no git metadata."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "tools", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def stop_group(pgid):
    """Stop whatever the binary left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()

    build()
    out_dir = BUILD / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--server-bin", str(BUILD / "apar" / "examples" / "sieve_server"),
           "--out-dir", str(out_dir),
           "--git-sha", git_sha(), "--source-digest", source_digest(), *extra]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"run did not finish within {RUN_TIMEOUT_S} s", 4)
    stop_group(proc.pid)
    sys.exit(code)


if __name__ == "__main__":
    main()

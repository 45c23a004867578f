#!/usr/bin/env python3
"""apar-top: live telemetry viewer for apar TCP nodes.

Polls one or more servers over the frame protocol's kTelemetry op and
renders a refreshing table of server counters and metric series —
counters with per-interval rates, histograms with count/p50/p95/p99/p999
(threadpool.queue_wait shows up here once the server has tracing or
metrics enabled). Stdlib only; speaks the 18-byte frame header directly
so it needs no build artifacts.

  tools/apar_top.py 127.0.0.1:7077 127.0.0.1:7078
  tools/apar_top.py --interval 0.5 --iterations 3 --plain HOST:PORT  # CI

Exit status: 0 if every endpoint answered at least once, 1 otherwise.
"""

import argparse
import json
import socket
import struct
import sys
import time

MAGIC = 0x5041
PROTOCOL_VERSION = 1
OP_TELEMETRY = 8
OP_REPLY_OK = 6
OP_REPLY_ERROR = 7
HEADER = struct.Struct("<HBBBBIQ")  # magic, ver, format, op, flags, len, rid


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        buf += chunk
    return buf


def fetch_telemetry(host, port, timeout, include_trace=False, flush=False):
    """One kTelemetry round trip; returns the parsed JSON document."""
    tflags = (1 if include_trace or flush else 0) | (2 if flush else 0)
    payload = bytes([tflags])
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            HEADER.pack(MAGIC, PROTOCOL_VERSION, 0, OP_TELEMETRY, 0,
                        len(payload), 1) + payload)
        magic, ver, _fmt, op, _flags, plen, _rid = HEADER.unpack(
            recv_exact(sock, HEADER.size))
        if magic != MAGIC or ver != PROTOCOL_VERSION:
            raise ConnectionError("bad reply header")
        body = recv_exact(sock, plen)
        if op == OP_REPLY_ERROR:
            raise ConnectionError("server error: " +
                                  body.decode("utf-8", "replace"))
        if op != OP_REPLY_OK:
            raise ConnectionError("unexpected reply op %d" % op)
        return json.loads(body.decode("utf-8"))


# Mirrors adapt::decision_name (src/adapt/controller.cpp): the
# adapt.last_decision gauge carries the enum value over the wire.
DECISION_NAMES = {
    0: "none", 1: "grow-workers", 2: "shrink-workers", 3: "revert-grow",
    4: "revert-shrink", 5: "grain-coarsen", 6: "grain-refine",
}


def adapt_summary(doc):
    """Distill the adapt.* plane from one telemetry document; None when
    the endpoint runs no AdaptationController."""
    vals = {}
    for m in doc.get("metrics", {}).get("metrics", []):
        name = m.get("name", "")
        if name.startswith("adapt."):
            vals[name] = m.get("value", m.get("count", 0))
    if not vals:
        return None
    return {
        "workers": int(vals.get("adapt.workers", 0)),
        "grain": int(vals.get("adapt.grain", 0)),
        "last_decision": DECISION_NAMES.get(
            int(vals.get("adapt.last_decision", 0)),
            str(vals.get("adapt.last_decision", 0))),
        "ticks": int(vals.get("adapt.ticks", 0)),
        "decisions": int(vals.get("adapt.decisions", 0)),
        "reverts": int(vals.get("adapt.reverts", 0)),
    }


def metric_key(m):
    labels = ",".join("%s=%s" % kv for kv in sorted(m.get("labels",
                                                          {}).items()))
    return m["name"] + ("{%s}" % labels if labels else "")


def fmt(v):
    if isinstance(v, float):
        return "%.1f" % v
    return str(v)


def render(docs, prev, interval):
    """Rows for all endpoints; `prev` holds last-poll values for deltas."""
    lines = []
    for ep, doc in docs.items():
        if doc is None:
            lines.append("%-22s UNREACHABLE" % ep)
            continue
        srv = doc.get("server", {})
        lines.append("%-22s node=%s pid=%s up=%.1fs frames_in=%s "
                     "dispatch_errors=%s" %
                     (ep, doc.get("node", "?"), doc.get("pid", "?"),
                      doc.get("uptime_us", 0) / 1e6, srv.get("frames_in", 0),
                      srv.get("dispatch_errors", 0)))
        adapt = adapt_summary(doc)
        if adapt is not None:
            cur = adapt["decisions"]
            rate = (cur - prev.get((ep, "__adapt_decisions"), cur)) / interval
            prev[(ep, "__adapt_decisions")] = cur
            lines.append("  adaptation: workers=%d grain=%d last=%s "
                         "decisions/s=%.2f reverts=%d ticks=%d" %
                         (adapt["workers"], adapt["grain"],
                          adapt["last_decision"], rate, adapt["reverts"],
                          adapt["ticks"]))
        header = "  %-38s %-10s %12s %10s %10s %10s %10s %10s" % (
            "metric", "type", "value/cnt", "rate/s", "p50", "p95", "p99",
            "p999")
        lines.append(header)
        for m in doc.get("metrics", {}).get("metrics", []):
            key = metric_key(m)
            kind = m.get("type", "?")
            if kind == "histogram":
                cur = m.get("count", 0)
                rate = (cur - prev.get((ep, key), cur)) / interval
                lines.append(
                    "  %-38s %-10s %12s %10.1f %10s %10s %10s %10s" %
                    (key[:38], kind, cur, rate, fmt(m.get("p50", 0)),
                     fmt(m.get("p95", 0)), fmt(m.get("p99", 0)),
                     fmt(m.get("p999", 0))))
            else:
                cur = m.get("value", 0)
                rate = (cur - prev.get((ep, key), cur)) / interval
                lines.append("  %-38s %-10s %12s %10.1f" %
                             (key[:38], kind, fmt(cur), rate))
            prev[(ep, key)] = cur
        lines.append("")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("endpoints", nargs="+", metavar="HOST:PORT")
    ap.add_argument("--interval", type=float, default=1.0)
    ap.add_argument("--iterations", type=int, default=0,
                    help="stop after N polls (0 = until interrupted)")
    ap.add_argument("--timeout", type=float, default=2.0)
    ap.add_argument("--plain", action="store_true",
                    help="append frames instead of redrawing (CI logs)")
    ap.add_argument("--dump", metavar="PATH",
                    help="write the first endpoint's last raw telemetry "
                         "JSON to PATH (for check_obs.py --telemetry)")
    args = ap.parse_args()

    targets = []
    for ep in args.endpoints:
        host, _, port = ep.rpartition(":")
        try:
            targets.append((ep, host or "127.0.0.1", int(port)))
        except ValueError:
            ap.error("bad endpoint %r (want HOST:PORT)" % ep)

    prev = {}
    answered = set()
    last_doc = None
    n = 0
    try:
        while True:
            docs = {}
            for ep, host, port in targets:
                try:
                    docs[ep] = fetch_telemetry(host, port, args.timeout)
                    answered.add(ep)
                except (OSError, ValueError, ConnectionError):
                    docs[ep] = None
            first = docs.get(args.endpoints[0])
            if first is not None:
                last_doc = first
            frame = render(docs, prev, max(args.interval, 1e-6))
            if not args.plain:
                sys.stdout.write("\x1b[2J\x1b[H")
            print("apar-top  poll #%d  %s" %
                  (n + 1, time.strftime("%H:%M:%S")))
            print(frame)
            sys.stdout.flush()
            n += 1
            if args.iterations and n >= args.iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    if args.dump and last_doc is not None:
        adapt = adapt_summary(last_doc)
        if adapt is not None:
            last_doc["adaptation"] = adapt
        with open(args.dump, "w", encoding="utf-8") as f:
            json.dump(last_doc, f)
        print("apar-top: telemetry dumped to %s" % args.dump)
    return 0 if len(answered) == len(targets) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The Atom benchmark: one command per named workload.

    python3 perfbench/run.py --workload microblog_trap --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. It builds perfbench/ (its own CMake project,
compiling ../src) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the atom_perfbench driver, checks every
round's output, and prints each metric with its unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer ledger (half the window dark, half traced, then the probes), and
writes the Chrome trace next to the build. The exit code is nonzero when
any message was not delivered or the build or run failed.

    python3 perfbench/run.py --self-test

runs the helper unit tests and a quick pass of every workload in both
modes, asserting that every metric in BENCHMARK.json is printed with its
unit.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("microblog_trap", "dialing_nizk", "fleet_wan")
# A run must end within 180 s; the driver binary gets all but the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(out, "Makefile")):
            configure += ["-G", "Ninja"]
        jobs = str(os.cpu_count() or 1)
        for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout)
                log("perfbench: build failed: " + " ".join(cmd))
                return None
    binary = os.path.join(out, "atom_perfbench")
    return binary if os.path.exists(binary) else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------ metrics

def counter_sum(snapshot, base, label=None):
    """Sums a registry counter over its label sets (optionally only those
    carrying `label`)."""
    total = 0
    for name, value in snapshot.get("counters", {}).items():
        if name.split("{", 1)[0] != base:
            continue
        if label is not None and label not in name:
            continue
        total += value
    return total


def delta(before, after, base, label=None):
    return (counter_sum(after, base, label)
            - counter_sum(before, base, label))


def hist_mean_delta(before, after, base, label=None):
    """Exact mean of a histogram over the window (sum and count deltas)."""
    def sums(snap):
        s = c = 0
        for name, h in snap.get("histograms", {}).items():
            if name.split("{", 1)[0] == base and (label is None
                                                  or label in name):
                s += h["sum"]
                c += h["count"]
        return s, c
    s0, c0 = sums(before)
    s1, c1 = sums(after)
    return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


def gauge_max(snapshot, base):
    values = [v for name, v in snapshot.get("gauges", {}).items()
              if name.split("{", 1)[0] == base]
    return max(values) if values else 0.0


def end_to_end(raw, notes):
    """End-to-end metrics of the dark window; appends the tail
    percentile it chose to `notes`."""
    dark = raw["dark"]
    rounds = dark["round_latency_s"]
    m = {}
    m["setup_s"] = stats.percentile(raw["setup_s"], 50)
    m["msgs_per_s"] = dark["delivered"] / dark["window_s"]
    m["round_latency_p50_s"] = stats.percentile(rounds, 50)
    value, pct, n, beyond = stats.tail(rounds)
    m["round_latency_tail_s"] = value
    notes.append("round_latency_tail_s is p%.1f of %d rounds (%d beyond)"
                 % (pct, n, beyond))
    m["peak_rss_mb"] = raw["peak_rss_mb"]
    return m


def ingress(dark, notes):
    """Intake rate and admission latency of the dark window. They are in
    the per-layer ledger, not end to end: with two rounds in flight, the
    offset between the rounds drifts within a run, so intake meets a
    different amount of mixing work from one run to the next and these
    move by about a fifth between runs (see README.md)."""
    admits = dark["admit_latency_ms"]
    value, pct, n, beyond = stats.tail(admits)
    notes.append("admit_latency_tail_ms is p%.1f of %d submissions "
                 "(%d beyond)" % (pct, n, beyond))
    return {
        "intake_subs_per_s": dark["accepted"] / dark["intake_s"],
        "admit_latency_p50_ms": stats.percentile(admits, 50),
        "admit_latency_tail_ms": value,
    }


def per_layer(raw, trace_events, totals, notes):
    """Per-layer ledger of the traced window (the ingress metrics come
    from the dark half, like the end-to-end metrics)."""
    dark, traced = raw["dark"], raw["traced"]
    before, after = raw["registry_before"], raw["registry_after"]
    rounds = max(1, traced["rounds"])
    delivered = max(1, traced["delivered"])
    m = ingress(dark, notes)
    m.update(raw["probes"])

    m["core.intake_us_per_sub"] = (traced["intake_s"] * 1e6
                                   / max(1, traced["accepted"]))
    m["core.take_round_ms"] = stats.mean(traced["take_ms"])
    exit_us = sum(e["dur"] for e in trace_events
                  if e.get("cat") == "engine"
                  and e.get("name") in ("exit_sort", "exit_check",
                                        "exit_finalize"))
    m["core.exit_ms"] = exit_us / 1e3 / rounds
    m["core.hop_ms"] = hist_mean_delta(
        before, after, "atom_engine_hop_duration_us") / 1e3
    m["core.pipeline_overlap"] = (sum(traced["round_latency_s"])
                                  / traced["window_s"])
    m["core.rounds_aborted"] = (
        delta(before, after, "atom_engine_rounds_aborted_total")
        + delta(before, after, "atom_driver_rounds_aborted_total"))

    m["util.cpu_busy_frac"] = traced["cpu_s"] / (traced["window_s"]
                                                 * raw["nproc"])
    m["util.pool_wait_us.engine"] = hist_mean_delta(
        before, after, "atom_pool_task_dwell_us", 'class="engine"')
    m["util.pool_wait_us.transport"] = hist_mean_delta(
        before, after, "atom_pool_task_dwell_us", 'class="transport"')
    m["util.pool_queue_peak"] = gauge_max(after,
                                          "atom_pool_queue_depth_peak")

    m["net.driver_submit_ms"] = stats.mean(traced["driver_submit_ms"])
    finalize = [e["dur"] for e in trace_events
                if e.get("cat") == "driver" and e.get("name") == "finalize"]
    m["net.driver_finalize_ms"] = stats.mean(finalize) / 1e3
    m["net.wire_bytes_per_msg"] = delta(
        before, after, "atom_mesh_bytes_sent_total") / delivered
    m["net.frames_per_round"] = delta(
        before, after, "atom_mesh_frames_sent_total") / rounds
    bundles = delta(before, after, "atom_mesh_bundles_sent_total")
    m["net.bundle_fill"] = (delta(before, after,
                                  "atom_mesh_envelopes_bundled_total")
                            / bundles if bundles else 0.0)
    m["net.send_queue_peak_bytes"] = gauge_max(
        after, "atom_mesh_send_queue_depth_peak_bytes")
    m["net.send_queue_drops"] = delta(before, after,
                                      "atom_mesh_send_queue_drops_total")
    m["net.session_connect_ms"] = stats.mean(traced["connect_ms"])
    m["net.submit_verdict_ms"] = stats.mean(traced["verdict_ms"])
    m["net.intake_stream_depth_peak"] = gauge_max(
        after, "atom_intake_stream_depth_peak")
    for status in ("accepted", "rejected", "backpressure"):
        m["net.verdicts." + status] = delta(
            before, after, "atom_gateway_verdicts_total",
            'status="%s"' % status)
    m["net.handshakes_failed"] = delta(before, after,
                                       "atom_gateway_handshakes_total",
                                       'outcome="failed"')

    dark_rate = dark["delivered"] / dark["window_s"]
    traced_rate = traced["delivered"] / traced["window_s"]
    m["obs.trace_overhead_frac"] = 1.0 - traced_rate / dark_rate

    by_name, by_layer = stats.self_times(trace_events)
    m["self.core_ms_per_round"] = by_layer.get("core", 0) / 1e3 / rounds
    m["self.net_ms_per_round"] = by_layer.get("net", 0) / 1e3 / rounds
    m["fail_ratio"] = totals["failed"] / max(1, totals["attempted"])
    return m, by_name


def run_workload(args):
    binary = build()
    if binary is None:
        return 1
    spec = load_spec()
    units = {x["name"]: x["unit"]
             for x in spec["end_to_end"] + spec["per_layer"]}
    out_dir = os.path.dirname(binary)
    raw_path = os.path.join(out_dir, "raw_%s.json" % args.workload)
    trace_path = os.path.join(out_dir, "trace_%s.json" % args.workload)
    for path in (raw_path, trace_path):
        if os.path.exists(path):
            os.remove(path)

    print("# host: nproc %d, cpu %s, seed %d, workload %s, trace %d"
          % (os.cpu_count() or 1, cpu_model(), args.seed, args.workload,
             args.trace), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if not os.path.exists(raw_path):
        log("perfbench: driver exited %d without results" % proc.returncode)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    phases = [raw["warmup"], raw["dark"]] + (
        [raw["traced"]] if args.trace else [])
    totals = {
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "rounds_bad": sum(p["rounds_aborted"] + p["rounds_mismatched"]
                          for p in phases),
    }
    correct = (proc.returncode == 0 and totals["failed"] == 0
               and totals["rounds_bad"] == 0)
    print("# build %s; every round checked: %d attempted, %d not delivered,"
          " %d rounds aborted or mismatched"
          % (raw["build_type"], totals["attempted"], totals["failed"],
             totals["rounds_bad"]))

    notes = []
    if args.trace:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        metrics, by_name = per_layer(raw, events, totals, notes)
        print("# self time by span (traced window and probes):")
        for name, (us, count) in sorted(by_name.items(),
                                        key=lambda kv: -kv[1][0]):
            print("#   %-36s %10.1f ms over %6d spans"
                  % (name, us / 1e3, count))
        print("# chrome trace: %s" % trace_path)
    else:
        metrics = end_to_end(raw, notes)
    for note in notes:
        print("# " + note)
    for name, value in metrics.items():
        print("# %-40s %14.6g %s" % (name, value, units.get(name, "")))

    result = {
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


# ------------------------------------------------------------ self-test

def self_test():
    """Helper unit tests, then a quick pass of every workload in both
    modes checking that every BENCHMARK.json metric appears with its
    unit."""
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        return 1
    spec = load_spec()
    want = {0: {x["name"]: x["unit"] for x in spec["end_to_end"]},
            1: {x["name"]: x["unit"] for x in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", "7", "--seconds", "3",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = result.get("metrics", {})
            missing = [name for name, unit in want[trace].items()
                       if got.get(name, {}).get("unit") != unit]
            ok = (proc.returncode == 0 and result.get("correct")
                  and result.get("failed") == 0 and not missing)
            log("%s %s trace=%d%s" % ("ok  " if ok else "FAIL", workload,
                                      trace,
                                      " missing %s" % missing if missing
                                      else ""))
            if not ok:
                return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    start = time.monotonic()
    rc = run_workload(args)
    log("perfbench: %s finished in %.1f s" % (args.workload,
                                              time.monotonic() - start))
    return rc


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""TaskCheck benchmark: live checking at 1 and 4 workers, and record -> replay.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload live-1w --seed 1 --seconds 20 --trace 0

Builds the driver (perfbench/driver.cpp, with the TaskCheck libraries
compiled from src/) into .bench_build/, runs it, checks every verdict and
count, and prints per-kernel rows, per-trace summaries and a provenance
block as JSON lines. The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
adds the traced legs and reports the per-layer ones. The workloads, metric
definitions, reference counts and the map from the legacy BENCH_*.json
artifacts are described in perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

# Every workload runs the same legs (live none/atomicity/velodrome/record
# per kernel, then runBatch(atomicity) over the trace files written at
# set-up); they differ in worker count, kernel scale and generated fleet.
WORKLOADS = {
    "live-1w": {"workers": 1, "scale": 1.0, "fleet": 0},
    "live-4w": {"workers": 4, "scale": 1.0, "fleet": 0},
    "trace-pipeline": {"workers": 4, "scale": 0.25, "fleet": 96},
}

# Traced layer self-times must add up to the untraced run within this share.
RECONCILE_BOUND = 0.15

# The driver's speed probe (a fixed piece of work that does not touch
# TaskCheck) takes about this long on a 4-vCPU Sapphire Rapids VM. End-to-end
# times are scaled by PROBE_REF_S / (this run's probe time), so that the
# host's drift in speed over minutes cancels; the unscaled values are
# printed in the "unscaled" row.
PROBE_REF_S = 0.015

# One run is split over PARTS driver processes, one after another, each
# with its share of --seconds; their samples are pooled. Part of the host's
# noise stays with a process for its lifetime, so pooling a few processes
# averages it out.
PARTS = 2

# Wall-clock budget for all the driver processes of one run.
DRIVER_TIMEOUT_S = 170

KERNEL_KEYS = ("reads", "writes", "locations")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("error: " + msg)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no TaskCheck sources next to perfbench/ (expected src/)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd), 1)


def source_digest():
    """Content hash of src/ and perfbench/: the checkout is not a git repo."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or None when the checkout is not itself the
    top of a git repository."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse",
                               "--show-toplevel", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def cpu_times():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def median(xs):
    return statistics.median(xs)


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def hist_quantile(pairs, q):
    total = sum(c for _, c in pairs)
    need = q * total
    seen = 0
    for ns, c in sorted(pairs):
        seen += c
        if seen >= need:
            return ns
    return pairs[-1][0] if pairs else 0


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, ok, reason, weight=1):
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def check_kernel_cell(cell, ref, skip, checks):
    """A live kernel run passes when its counts equal the reference. Counts
    named in `skip` depend on the schedule and are not compared."""
    stats = cell["stats"]
    reps = int(cell["reps"])
    name, config = cell["kernel"], cell["config"]
    if config in ("atomicity", "atomicity_traced"):
        ok = cell["consistent"] and stats.get("violations") == ref["violations"]
        ok = ok and all(stats.get(k) == ref[k]
                        for k in KERNEL_KEYS if k not in skip)
    elif config in ("velodrome", "velodrome_traced"):
        # Velodrome's verdict is schedule-bound at 4 workers, so only its
        # access counts are checked.
        ok = all(stats.get(k) == ref[k]
                 for k in ("reads", "writes") if k not in skip)
    else:
        ok = True
    checks.add(ok, "%s/%s counts %s differ from reference %s" % (
        name, config, {k: stats.get(k) for k in ("violations",) + KERNEL_KEYS},
        ref), reps)


def check_trace(row, ref, generated, checks):
    """A trace check passes when its events and verdict are as expected.
    Recordings must give the live verdict, generated traces the verdict
    found at set-up (`generated`: name -> violations)."""
    if row["generated"]:
        expected = generated.get(row["name"])
    else:
        expected = ref[row["name"]]["violations"]
    ok = row.get("ok", True) and row["violations"] == expected
    if "expected_events" in row:
        ok = ok and row["events"] == row["expected_events"]
    if "roundtrip" in row:
        ok = ok and row["roundtrip"]
    checks.add(ok, "trace %s: %d violations, expected %s" % (
        row["name"], row["violations"], expected))


def check_setup(doc, ref, skip, checks):
    """Recordings must decode to the trace that was encoded, and replaying
    one must give the live verdict and the counts of the run it recorded.
    Generated programs must give one violating-location set under every
    linearisation tried."""
    for row in doc["verify"]:
        if row["kind"] == "recording":
            r = ref[row["name"]]
            rep = row["replay"]
            s = skip.get(row["name"], ())
            ok = row["roundtrip"] and rep.get("violations") == r["violations"]
            ok = ok and rep.get("reads") == row["trace_reads"]
            ok = ok and rep.get("writes") == row["trace_writes"]
            ok = ok and all(rep.get(k) == r[k] for k in KERNEL_KEYS
                            if k not in s)
            checks.add(ok, "recording %s: round trip %s, replay %s" % (
                row["name"], row["roundtrip"], rep))
        else:
            ok = row["roundtrip"] and row["schedule_independent"]
            checks.add(ok, "generated %s: round trip %s, schedule "
                       "independent %s" % (row["name"], row["roundtrip"],
                                           row["schedule_independent"]))


def cell_medians(doc, field="rep_s"):
    """(kernel, config) -> median over every repetition in every round
    (field "rep_s"), or over the per-cell means of another field."""
    samples = defaultdict(list)
    for c in doc["cells"]:
        v = c[field]
        samples[(c["kernel"], c["config"])].extend(
            v if isinstance(v, list) else [v])
    return {k: median(v) for k, v in samples.items()}


def first_stats(doc):
    out = {}
    for c in doc["cells"]:
        out.setdefault((c["kernel"], c["config"]), c["stats"])
    return out


def end_to_end(doc, rows):
    med = cell_medians(doc)
    stats = first_stats(doc)
    kernels = sorted({k for k, _ in med})
    base = {k: med[(k, "none")] for k in kernels}
    atom = {k: med[(k, "atomicity")] for k in kernels}
    velo = {k: med[(k, "velodrome")] for k in kernels}
    rec = {k: med[(k, "record")] for k in kernels}
    accesses = {k: stats[(k, "atomicity")]["reads"] +
                stats[(k, "atomicity")]["writes"] for k in kernels}
    for k in kernels:
        rows.append({"row": "kernel", "kernel": k,
                     "base_ms": base[k] * 1e3, "checked_ms": atom[k] * 1e3,
                     "velodrome_ms": velo[k] * 1e3, "record_ms": rec[k] * 1e3,
                     "overhead_x": atom[k] / base[k],
                     "velodrome_overhead_x": velo[k] / base[k],
                     "record_overhead_x": rec[k] / base[k],
                     "accesses": accesses[k],
                     "check_ns_per_access":
                         (atom[k] - base[k]) / accesses[k] * 1e9,
                     "recorded_events": stats[(k, "record")].get("events"),
                     "cache_path_hits":
                         stats[(k, "atomicity")].get("cache_path_hits"),
                     "cache_hits": stats[(k, "atomicity")].get("cache_hits")})

    latencies = []
    batch_events = batch_wall = 0.0
    per_trace = defaultdict(list)
    for b in doc["batches"]:
        batch_events += sum(t["events"] for t in b["traces"])
        batch_wall += b["wall_s"]
        for t in b["traces"]:
            latencies.append(t["wall_ms"])
            per_trace[t["name"]].append(t)
    for name in sorted(per_trace):
        ts = per_trace[name]
        rows.append({"row": "trace", "trace": name,
                     "generated": ts[0]["generated"],
                     "events": ts[0]["events"],
                     "violations": ts[0]["violations"],
                     "wall_ms": median([t["wall_ms"] for t in ts]),
                     "decode_ms": median([t["decode_ms"] for t in ts]),
                     "check_ms": median([t["check_ms"] for t in ts])})

    counts = defaultdict(int)
    for c in doc["cells"]:
        counts[(c["kernel"], c["config"])] += len(c["rep_s"])
    rows.append({"row": "samples", "timing_samples_min": min(counts.values()),
                 "timing_samples_max": max(counts.values()),
                 "batches": len(doc["batches"]),
                 "latency_samples": len(latencies),
                 "probe_samples": len(doc["probe_s"])})

    # Times are scaled by the probe: the run's median probe for the rounds,
    # and for each set-up repetition the probe taken just before it.
    base_s = sum(base.values())
    checked_s = sum(atom.values())
    setup = doc["setup_s"]

    def timed(scale, setup_probe):
        return {
            "setup_s": (median([s * setup_probe(i)
                                for i, s in enumerate(setup)]), "s"),
            "base_s": (base_s * scale, "s"),
            "checked_s": (checked_s * scale, "s"),
            "check_ns_per_access":
                ((checked_s - base_s) * scale /
                 sum(accesses.values()) * 1e9, "ns"),
            "replay_events_per_s":
                (batch_events / batch_wall / scale, "1/s"),
            "trace_latency_ms_p50": (quantile(latencies, 0.5) * scale, "ms"),
            "trace_latency_ms_p90": (quantile(latencies, 0.9) * scale, "ms"),
        }

    setup_probe = doc["setup_probe_s"]
    round_probe = median(doc["probe_s"])
    scale = PROBE_REF_S / round_probe
    unscaled = timed(1.0, lambda i: 1.0)
    rows.append(dict({"row": "unscaled", "probe_s_median": round_probe,
                      "scale": scale},
                     **{name: v for name, (v, _) in unscaled.items()}))

    metrics = timed(scale, lambda i: PROBE_REF_S / setup_probe[i])
    metrics.update({
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB"),
        "overhead_x": (geomean([atom[k] / base[k] for k in kernels]), "x"),
        "velodrome_overhead_x":
            (geomean([velo[k] / base[k] for k in kernels]), "x"),
        "record_overhead_x":
            (geomean([rec[k] / base[k] for k in kernels]), "x"),
    })
    return metrics


def layer_medians(doc, config, clock_ns):
    """kernel -> {class: median corrected self seconds}, plus counts and
    the pooled access-time histogram for the traced cells of one config."""
    per_kernel = defaultdict(lambda: defaultdict(list))
    counts = {}
    hist = defaultdict(int)
    for c in doc["cells"]:
        if c["config"] != config:
            continue
        lay = c["layers"]
        for cls, ns in lay["ns"].items():
            n = lay["count"][cls]
            per_kernel[c["kernel"]][cls].append(
                max(0.0, ns - n * clock_ns) * 1e-9)
        counts.setdefault(c["kernel"], lay["count"])
        for ns, n in lay["access_hist"]:
            hist[ns] += n
    med = {k: {cls: median(v) for cls, v in d.items()}
           for k, d in per_kernel.items()}
    return med, counts, sorted(hist.items())


def per_layer(doc, rows, workers):
    clock_ns = doc["clock_pair_ns"]
    med = cell_medians(doc)
    cpu = cell_medians(doc, "cpu_s")
    stats = first_stats(doc)
    kernels = sorted({k for k, _ in med})
    atom_l, atom_n, atom_h = layer_medians(doc, "atomicity_traced", clock_ns)
    velo_l, velo_n, _ = layer_medians(doc, "velodrome_traced", clock_ns)

    def total(fn):
        return sum(fn(k) for k in kernels)

    def st(k, key, config="atomicity_traced"):
        return stats[(k, config)].get(key, 0)

    accesses = total(lambda k: atom_n[k]["access"])
    struct_events = total(lambda k: atom_n[k]["struct"])
    lock_events = total(lambda k: atom_n[k]["lock"])
    all_events = total(lambda k: sum(atom_n[k].values()))
    dispatch_s = total(lambda k: med[(k, "noop")] - med[(k, "none")])
    layer_s = {cls: total(lambda k, c=cls: atom_l[k][c])
               for cls in ("access", "lock", "struct", "start", "end")}
    nodes = total(lambda k: st(k, "dpst_nodes"))
    queries = total(lambda k: st(k, "lca_queries"))
    tasks = total(lambda k: st(k, "runtime_tasks"))
    steals = total(lambda k: st(k, "runtime_steals"))
    rec_events = total(lambda k: st(k, "events", "record"))
    velo_access_s = total(lambda k: velo_l[k]["access"])
    velo_accesses = total(lambda k: velo_n[k]["access"])
    velo_edges = total(lambda k: st(k, "edges", "velodrome_traced"))

    # Reconciliation, per kernel. One worker: wall time, where the hook
    # dispatch (no-op run) plus the engine's callback self-times must add
    # up to the untraced checked run. More workers: the same sum in CPU
    # seconds, since self-times on parallel workers overlap in wall time.
    basis = "s" if workers == 1 else "cpu_s"
    basis_med = med if workers == 1 else cpu
    est_sum = untraced_sum = traced_sum = 0.0
    outside = 0
    for k in kernels:
        est = basis_med[(k, "noop")] + sum(atom_l[k].values())
        untraced = basis_med[(k, "atomicity")]
        traced = basis_med[(k, "atomicity_traced")]
        est_sum += est
        untraced_sum += untraced
        traced_sum += traced
        gap = est / untraced - 1
        outside += abs(gap) > RECONCILE_BOUND
        rows.append({"row": "reconcile", "kernel": k, "basis": basis,
                     "untraced": untraced, "layers_sum": est,
                     "traced": traced, "gap_frac": gap,
                     "tracing_overhead_frac": traced / untraced - 1,
                     "within_bound": abs(gap) <= RECONCILE_BOUND})
    live_gap = est_sum / untraced_sum - 1

    # Replay side: the serial traced replay split into load, decode, hook
    # dispatch and callback self-times, against the untraced checkTraceFile
    # wall of the same file; scaled to the batch through its utilisation.
    rp = defaultdict(lambda: defaultdict(list))
    enc_s = dec_s = r_events = r_bytes = 0.0
    for r in doc["replays"]:
        for t in r["traces"]:
            lay = t["layers"]
            self_s = sum(max(0.0, ns - lay["count"][c] * clock_ns)
                         for c, ns in lay["ns"].items()) * 1e-9
            d = rp[t["name"]]
            d["est"].append(t["load_s"] + t["decode_s"] + t["dispatch_s"] +
                            t["build_s"] + self_s)
            d["untraced"].append(t["untraced_wall_s"])
            d["traced"].append(t["load_s"] + t["decode_s"] + t["build_s"] +
                               t["traced_check_s"])
            d["encode"].append(t["encode_s"])
            d["decode"].append(t["decode_s"])
            d["events"] = [t["events"]]
            d["bytes"] = [t["bytes"]]
    r_est = sum(median(d["est"]) for d in rp.values())
    r_untraced = sum(median(d["untraced"]) for d in rp.values())
    r_traced = sum(median(d["traced"]) for d in rp.values())
    for d in rp.values():
        enc_s += median(d["encode"])
        dec_s += median(d["decode"])
        r_events += d["events"][0]
        r_bytes += d["bytes"][0]
    replay_gap = r_est / r_untraced - 1

    util, check_rates, vpe = [], [], []
    for b in doc["batches"]:
        ts = b["traces"]
        util.append(sum(t["wall_ms"] for t in ts) * 1e-3 /
                    (workers * b["wall_s"]))
        ev = sum(t["events"] for t in ts)
        check_rates.append(ev / (sum(t["check_ms"] for t in ts) * 1e-3))
        vpe.append(sum(t["violations"] for t in ts) / ev)
    batch_wall = median([b["wall_s"] for b in doc["batches"]])
    batch_est = r_est / (workers * median(util))
    rows.append({"row": "reconcile", "kernel": "(suite, live)",
                 "basis": basis, "untraced": untraced_sum,
                 "layers_sum": est_sum, "traced": traced_sum,
                 "gap_frac": live_gap,
                 "tracing_overhead_frac": traced_sum / untraced_sum - 1,
                 "within_bound": abs(live_gap) <= RECONCILE_BOUND})
    rows.append({"row": "reconcile", "kernel": "(replay, serial)",
                 "basis": "s", "untraced": r_untraced, "layers_sum": r_est,
                 "traced": r_traced, "gap_frac": replay_gap,
                 "tracing_overhead_frac": r_traced / r_untraced - 1,
                 "within_bound": abs(replay_gap) <= RECONCILE_BOUND,
                 "batch_wall_s": batch_wall,
                 "batch_wall_from_layers_s": batch_est})

    pre_skips = total(lambda k: st(k, "pre_seq_skips") +
                      st(k, "pre_site_skips"))
    metrics = {
        "runtime.tasks": (tasks, "count"),
        "runtime.steals": (steals, "count"),
        "runtime.steal_frac": (steals / tasks if tasks else 0.0, "ratio"),
        "instrument.accesses": (accesses, "count"),
        "instrument.sync_events": (struct_events, "count"),
        "instrument.lock_events": (lock_events, "count"),
        "instrument.dispatch_ns_per_event":
            (dispatch_s / all_events * 1e9, "ns"),
        "analysis.gate_skip_frac": (pre_skips / accesses, "ratio"),
        "analysis.classify_s": (layer_s["start"], "s"),
        "checker.access_ns_mean": (layer_s["access"] / accesses * 1e9, "ns"),
        "checker.access_ns_p99":
            (max(0.0, hist_quantile(atom_h, 0.99) - clock_ns), "ns"),
        "checker.access_s": (layer_s["access"], "s"),
        "checker.lock_s": (layer_s["lock"], "s"),
        "checker.end_s": (layer_s["end"], "s"),
        "checker.locations": (total(lambda k: st(k, "locations")), "count"),
        "checker.violations": (total(lambda k: st(k, "violations")), "count"),
        "checker.cache_path_hit_frac":
            (total(lambda k: st(k, "cache_path_hits")) / accesses, "ratio"),
        "checker.cache_verdict_hit_frac":
            (total(lambda k: st(k, "cache_hits")) / accesses, "ratio"),
        "checker.lockset_snapshots":
            (total(lambda k: st(k, "lockset_snapshots")), "count"),
        "velodrome.access_ns_mean":
            (velo_access_s / velo_accesses * 1e9, "ns"),
        "velodrome.edges_per_access": (velo_edges / velo_accesses, "ratio"),
        "dpst.nodes": (nodes, "count"),
        "dpst.struct_s": (layer_s["struct"], "s"),
        "dpst.build_ns_per_node": (layer_s["struct"] / nodes * 1e9, "ns"),
        "dpst.queries": (queries, "count"),
        "dpst.queries_per_access": (queries / accesses, "ratio"),
        "trace.record_ns_per_event":
            (total(lambda k: med[(k, "record")] - med[(k, "none")]) /
             rec_events * 1e9, "ns"),
        "trace.contended_merges":
            (total(lambda k: st(k, "contended_merges", "record")), "count"),
        "trace.encode_events_per_s": (r_events / enc_s, "1/s"),
        "trace.bytes_per_event": (r_bytes / r_events, "B"),
        "trace.decode_events_per_s": (r_events / dec_s, "1/s"),
        "trace.check_events_per_s": (median(check_rates), "1/s"),
        "trace.batch_util": (median(util), "ratio"),
        "trace.violations_per_event": (median(vpe), "ratio"),
        "reconcile.live_gap_frac": (live_gap, "ratio"),
        "reconcile.replay_gap_frac": (replay_gap, "ratio"),
        "reconcile.kernels_outside_bound": (outside, "count"),
        "tracing.live_overhead_frac":
            (traced_sum / untraced_sum - 1, "ratio"),
        "tracing.replay_overhead_frac": (r_traced / r_untraced - 1, "ratio"),
    }
    return metrics, abs(live_gap) <= RECONCILE_BOUND and \
        abs(replay_gap) <= RECONCILE_BOUND


def run_driver(args, wl):
    """Runs the PARTS driver processes one after another and pools their
    samples into one document. Every part writes the same trace files;
    part 0 checks them."""
    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    docs = []
    for part in range(PARTS):
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        cmd = [DRIVER, "--work-dir=" + WORK_DIR, "--seed=%d" % args.seed,
               "--seconds=%g" % (args.seconds / PARTS),
               "--traced=%d" % args.trace, "--workers=%d" % wl["workers"],
               "--scale=%g" % wl["scale"], "--fleet=%d" % wl["fleet"],
               "--part=%d" % part]
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("driver did not finish in %d s" % DRIVER_TIMEOUT_S, 1)
        finally:
            shutil.rmtree(WORK_DIR, ignore_errors=True)
        if proc.returncode != 0:
            fail("driver part %d exited with %d" % (part, proc.returncode), 1)
        docs.append(json.loads(proc.stdout))

    doc = dict(docs[0])
    for key in ("setup_s", "setup_probe_s", "probe_s", "verify", "cells",
                "batches", "replays"):
        doc[key] = [x for d in docs for x in d[key]]
    doc["rounds"] = sum(d["rounds"] for d in docs)
    doc["measure_s"] = sum(d["measure_s"] for d in docs)
    doc["peak_rss_kb"] = max(d["peak_rss_kb"] for d in docs)
    doc["clock_pair_ns"] = median([d["clock_pair_ns"] for d in docs])
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    wl = WORKLOADS[args.workload]

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    scale_key = "%g" % wl["scale"]
    if scale_key not in reference["kernels"]:
        fail("no reference counts for scale %s" % scale_key)
    ref = reference["kernels"][scale_key]
    skip = reference["schedule_dependent"] if wl["workers"] > 1 else {}

    build()

    load_before = os.getloadavg()
    cpu_before = cpu_times()
    doc = run_driver(args, wl)
    load_after = os.getloadavg()
    cpu_after = cpu_times()
    steal = None
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        steal = (cpu_after[0] - cpu_before[0]) / (cpu_after[1] - cpu_before[1])

    checks = Checks()
    check_setup(doc, ref, skip, checks)
    for c in doc["cells"]:
        check_kernel_cell(c, ref[c["kernel"]], skip.get(c["kernel"], ()),
                          checks)
    generated = {row["name"]: row["violations"] for row in doc["verify"]
                 if row["kind"] == "generated"}
    for b in doc["batches"]:
        for t in b["traces"]:
            check_trace(t, ref, generated, checks)
    for r in doc["replays"]:
        for t in r["traces"]:
            check_trace(t, ref, generated, checks)

    rows = []
    if args.trace:
        metrics, reconciled = per_layer(doc, rows, wl["workers"])
    else:
        metrics = end_to_end(doc, rows)
        reconciled = True

    nproc = os.cpu_count() or 1
    provenance = {
        "row": "provenance", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "workers": wl["workers"], "scale": wl["scale"], "fleet": wl["fleet"],
        "parts": PARTS, "rounds": doc["rounds"],
        "measure_s": doc["measure_s"],
        "nproc": nproc, "compiler": "gcc " + doc["compiler"],
        "cxx_flags": doc["cxx_flags"], "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "loadavg_before": load_before[0], "loadavg_after": load_after[0],
        "loaded": max(load_before[0], load_after[0]) > nproc,
        "cpu_steal_frac": steal,
        "clock_pair_ns": doc["clock_pair_ns"],
        "reconcile_bound": RECONCILE_BOUND,
        "setup_s_samples": doc["setup_s"],
        "failures": checks.reasons,
    }
    if provenance["loaded"]:
        log("warning: load average above %d cores during the run" % nproc)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    print(json.dumps(provenance, sort_keys=True))
    for reason in checks.reasons:
        log("check failed: " + reason)
    if not reconciled:
        log("check failed: traced layer times do not reconcile within %g"
            % RECONCILE_BOUND)

    result = {
        "correct": checks.failed == 0 and reconciled,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

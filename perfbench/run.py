#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload bulk_san|kv_rpc|fleet_chaos \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the simulator from source (a
Release build of perfbench/CMakeLists.txt in .bench_build/), runs the
workload in its own process through perfbench_driver, checks the outputs
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from an extra traced and audited run and allocation counts
under tools/count_allocs). See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# Fixed input sizes: `size` is GiB for bulk_san, GiB per pair and chaos
# plan for fleet_chaos and ops per pair for kv_rpc. `alloc` holds the two
# sizes of the allocation-count delta; `workers` is the shard worker count
# the driver uses.
WORKLOADS = {
    "bulk_san": {"size": 4, "alloc": (1, 3), "workers": 1},
    "kv_rpc": {"size": 10000, "alloc": (2000, 6000), "workers": 4},
    "fleet_chaos": {"size": 4, "alloc": (1, 3), "workers": 2},
}
PAIRS = 4  # kv_rpc and fleet_chaos

# Host times are reported in reference-host seconds: raw seconds scaled by
# REFERENCE_CALIB_S over the time of the driver's reference kernel
# (calibrate.cpp) around the same repeat. REFERENCE_CALIB_S is about the
# kernel's median time on the 4-vCPU host the bounds were set on, so the
# numbers read as that host's seconds while host-speed drift cancels out.
REFERENCE_CALIB_S = 0.0125

# Modeled outputs that must be identical in every repeat of a run.
MODELED = ("digest", "goodput_gbps", "fe_cpu_pct", "kv_mops",
           "kv_get_p99_us", "kv_put_p99_us", "events", "windows",
           "cross_posts")
# The subset the traced run must reproduce: the tracer's utilization
# sampler adds events and can end the modeled clock a tick later, and the
# fleet digest gains the hash of the trace.
TRACED_SAME = ("goodput_gbps", "kv_mops", "kv_get_p99_us", "kv_put_p99_us")

STATS_LAYERS = ("sim", "rdma", "iscsi", "iser", "rftp", "blk", "app", "fault")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# Every process after the build must end by then (set in main); a run that
# hangs is killed and fails instead of outliving its time slot.
DEADLINE = float("inf")


def one_cpu():
    """The CPU timed processes are pinned to: the last one allowed."""
    return {max(os.sched_getaffinity(0))}


def run_checked(cmd, env=None, cpus=None, may_fail=False):
    """Runs `cmd` to completion, on `cpus` if given, and returns its stdout.
    A nonzero exit ends the benchmark, or with `may_fail` returns None."""
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, env=env, cwd=ROOT, preexec_fn=pin,
                           timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(map(str, cmd))} timed out")
        sys.exit(1)
    if p.returncode != 0:
        log(p.stderr)
        log(f"perfbench: {' '.join(map(str, cmd))} exited {p.returncode}")
        if not may_fail:
            sys.exit(1)
        return None
    return p.stdout


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(env)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the Release driver, CLI and interposer."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: the simulator sources (CMakeLists.txt, src/) are "
            "missing; run from the root of a full checkout")
        sys.exit(2)
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        p = subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                            str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if p.returncode != 0:
            sys.exit(1)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    p = subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                        "perfbench_driver", "e2e_transfer_sim",
                        "count_allocs"], stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0:
        sys.exit(1)
    return {"driver": bdir / "perfbench_driver",
            "cli": bdir / "e2e" / "tools" / "e2e_transfer_sim",
            "allocs": bdir / "e2e" / "tools" / "libcount_allocs.so"}


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    h = hashlib.sha256()
    for sub in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = ROOT / sub
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def driver(bins, workload, seed, mode, size, seconds=0.0, env=None,
           pinned=True):
    """Runs perfbench_driver; `pinned` runs it on one CPU (see README)."""
    cmd = [str(bins["driver"]), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--size", str(size)]
    if seconds:
        cmd += ["--seconds", f"{seconds:g}"]
    if mode == "traced":
        cmd += ["--out", str(OUT)]
    tag = mode if pinned else mode + "-parallel"
    out = run_checked(cmd, env=env, cpus=one_cpu() if pinned else None)
    if mode != "once":  # keep every repeat for inspection
        (OUT / f"driver-{workload}-{tag}.json").write_text(out)
    return json.loads(out)


FLEET_PLANS = 8  # chaos plans per fleet_chaos repeat, as in the driver


def fleet_fault_seeds(seed):
    """Fault seeds of one fleet_chaos repeat; 0 would turn chaos off."""
    return [(seed * FLEET_PLANS + k + 1) % (1 << 64) or 1
            for k in range(FLEET_PLANS)]


def cli_args(workload, seed, size, shards):
    """CLI flags for the same inputs as the driver's workload; for
    fleet_chaos `seed` is one plan's fault seed."""
    if workload == "bulk_san":
        return ["e2e", "--gib", str(size), "--numa", "1", "--block", "4m",
                "--credits", "16", "--files", "1", "--checkpoint", "1"]
    if workload == "kv_rpc":
        return ["kv", "--pairs", str(PAIRS), "--shards", str(shards),
                "--ops", str(size), "--value-size", "64", "--keys", "16384",
                "--kv-shards", "2", "--depth", "8", "--get-mode", "rpc",
                "--zipf", "0.99", "--put-frac", "0.1", "--remote-every", "16",
                "--seed", str(seed)]
    return ["fleet", "--pairs", str(PAIRS), "--shards", str(shards), "--gib",
            str(size), "--block", "4m", "--credits", "16", "--streams", "3",
            "--checkpoint", "1", "--fault-seed", str(seed)]


class Checker:
    """Counts attempted and failed operations; a mismatch is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        if not ok:
            self.failed += 1
            log(f"perfbench: check failed: {what}")

    def traced(self, t, ref):
        self.attempted += t["ops"]
        self.failed += t["failed_ops"]
        self.check(t["complete"] and t["integrity_ok"], "traced run flags")
        self.check(t["audit_violations"] == 0,
                   f"traced run: {t['audit_violations']} audit violations")
        digest = "\n".join(line.split(" trace_fnv=")[0]
                           for line in t["digest"].split("\n"))
        self.check(digest == ref["digest"], "traced run digest")
        for k in TRACED_SAME:
            self.check(t[k] == ref[k], f"traced run: {k}")

    def repeats(self, reps, ref):
        for i, r in enumerate(reps):
            self.attempted += r["ops"]
            self.failed += r["failed_ops"]
            self.check(r["complete"] and r["integrity_ok"] and r["audit_ok"],
                       f"repeat {i}: complete/integrity/audit flags")
            self.check(r["threads_before"] == 1,
                       f"repeat {i}: {r['threads_before']} threads alive "
                       "before it started")
            for k in MODELED:
                self.check(r[k] == ref[k], f"repeat {i}: {k} {r[k]!r} != "
                           f"{ref[k]!r}")

    def cli(self, bins, workload, seed, size, ref):
        """The CLI with the same flags must print the same modeled result
        as the driver; for kv and fleet, so must the CLI at one shard. Each
        fleet_chaos chaos plan is checked at one shard, the first also with
        the same flags."""
        if workload == "fleet_chaos":
            cases = list(zip(fleet_fault_seeds(seed),
                             ref["digest"].split("\n")))
        else:
            cases = [(seed, ref["digest"])]
        runs = [(WORKLOADS[workload]["workers"], cases[0])]
        if workload != "bulk_san":
            runs += [(1, case) for case in cases]
        for shards, (cli_seed, digest) in runs:
            out = run_checked([str(bins["cli"])] +
                              cli_args(workload, cli_seed, size, shards),
                              cpus=one_cpu(), may_fail=True)
            self.check(out is not None, "CLI exit status")
            out = out or ""
            if workload == "bulk_san":
                self.attempted += 1
                want = f"e2e (numa-tuned): {ref['goodput_gbps']:.1f} Gbps"
                self.check(want in out, f"CLI e2e line, want '{want}'")
                continue
            self.attempted += PAIRS * size if workload == "kv_rpc" else PAIRS
            lines = [ln[len("digest: "):] for ln in out.splitlines()
                     if ln.startswith("digest: ")]
            self.check(lines == [digest],
                       f"CLI digest at --shards {shards}, seed {cli_seed}")


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def normalized(r, key):
    """Host time `key` of repeat `r` in reference-host seconds."""
    return r[key] * REFERENCE_CALIB_S / r["calib_s"]


def host_median(reps, key):
    return statistics.median(normalized(r, key) for r in reps)


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- per-layer metrics from the traced run ---------------------------------

class StatsDump:
    """Counters, gauges and histograms of a stats dump, merged over every
    entity (and every shard of a cluster dump) by layer and name."""

    def __init__(self, paths):
        shards = []
        for path in paths:
            doc = json.loads(path.read_text())
            shards += doc["shards"] if "shards" in doc else [doc]
        self.counters, self.gauge_max, self.buckets = {}, {}, {}
        self.hmin, self.hmax = {}, {}
        for sh in shards:
            for c in sh["counters"]:
                key = (c["layer"], c["name"])
                self.counters[key] = self.counters.get(key, 0) + c["value"]
            for g in sh["gauges"]:
                key = (g["layer"], g["name"])
                self.gauge_max[key] = max(self.gauge_max.get(key, 0), g["max"])
            for h in sh["histograms"]:
                if h["count"] == 0:
                    continue
                key = (h["layer"], h["name"])
                b = self.buckets.setdefault(key, {})
                for lo, hi, n in h["buckets"]:
                    b[(lo, hi)] = b.get((lo, hi), 0) + n
                self.hmin[key] = min(self.hmin.get(key, h["min"]), h["min"])
                self.hmax[key] = max(self.hmax.get(key, h["max"]), h["max"])

    def counter(self, layer, name):
        return self.counters.get((layer, name), 0)

    def quantile(self, layer, name, q):
        """stats::Histogram::value_at_quantile over the merged buckets."""
        key = (layer, name)
        b = self.buckets.get(key)
        if not b:
            return 0
        count = sum(b.values())
        rank = min(max(int(count * q + 0.5), 1), count)
        cum = 0
        for (lo, hi), n in sorted(b.items()):
            cum += n
            if cum >= rank:
                return min(max(hi - 1, self.hmin[key]), self.hmax[key])
        return self.hmax[key]


def trace_spans(paths):
    """Spans per layer in Chrome traces: complete and async-begin events."""
    counts = dict.fromkeys(STATS_LAYERS, 0)
    for path in paths:
        text = path.read_text()
        if not text.strip():
            continue
        for ev in json.loads(text)["traceEvents"]:
            if ev.get("ph") in ("X", "b") and ev.get("cat") in counts:
                counts[ev["cat"]] += 1
    return counts


def allocs_per_unit(bins, workload, seed):
    """Steady-state allocations per unit: the two-size delta of
    tools/check_allocs.sh, under the count_allocs interposer."""
    small, large = WORKLOADS[workload]["alloc"]
    counts = []
    for size in (small, large):
        out_file = OUT / f"allocs-{workload}-{size}.txt"
        env = dict(os.environ, LD_PRELOAD=str(bins["allocs"]),
                   COUNT_ALLOCS_OUT=str(out_file))
        driver(bins, workload, seed, "once", size, env=env)
        counts.append(int(out_file.read_text().split()[0]))
    # Units: GiB moved for the transfers, thousands of ops for kv.
    scale = {"bulk_san": 1, "fleet_chaos": PAIRS * FLEET_PLANS,
             "kv_rpc": PAIRS / 1000}
    return (counts[1] - counts[0]) / ((large - small) * scale[workload])


def per_layer(bins, workload, seed, d, par):
    """Per-layer metrics. Modeled counts come from the first untraced repeat
    (the traced run's sampler adds events); stats histograms, trace spans
    and the tracing overhead from the traced, audited run; the Cluster's
    parallel figures from the unpinned repeats `par` (None for bulk_san)."""
    reps, t = d["repeats"], d["traced"]
    ref = reps[0]
    wall = host_median(reps, "wall_s")
    workers = d["shards"]
    st = StatsDump(sorted(OUT.glob(f"stats-{workload}-*.json")))
    spans = trace_spans(sorted(OUT.glob(f"trace-{workload}-*.json")))
    extra = ref["extra"]
    res = extra.get("res", {})
    cluster = par is not None
    if cluster:
        par_wall = host_median(par, "wall_s")
        par_cpu = host_median(par, "cpu_s")
    posted = st.counter("rftp", "blocks_posted") + \
        st.counter("rftp", "retransmissions")
    m = {
        "sim.events": metric(ref["events"], "count"),
        "sim.events_per_s": metric(ref["events"] / wall, "1/s"),
        "sim.modeled_s": metric(ref["modeled_s"], "sim_s"),
        "cluster.windows": metric(ref["windows"], "count"),
        "cluster.events_per_window": metric(
            ref["events"] / ref["windows"] if ref["windows"] else 0, "count"),
        "cluster.cross_posts": metric(ref["cross_posts"], "count"),
        "cluster.run_s": metric(par_wall if cluster else 0.0, "s"),
        "cluster.cpu_per_wall": metric(
            par_cpu / (par_wall * workers) if cluster else 0.0, "ratio"),
        "cluster.speedup": metric(wall / par_wall if cluster else 0.0,
                                  "ratio"),
        "setup.testbed_s": metric(host_median(reps, "testbed_s"), "s"),
        "setup.san_start_s": metric(host_median(reps, "san_start_s"), "s"),
        "setup.session_s": metric(host_median(reps, "session_s"), "s"),
        "setup.establish_s": metric(
            host_median(reps, "setup_s") if cluster else 0.0, "s"),
        "res.binding_util": metric(res.get("binding_util", 0.0), "ratio"),
    }
    for fam in ("mem", "qpi", "pcie", "link", "core"):
        m[f"res.{fam}_util_max"] = metric(res.get(f"{fam}_util_max", 0.0),
                                          "ratio")
    m["fe_cpu_pct"] = metric(ref["fe_cpu_pct"], "%")
    m["kv_mops"] = metric(ref["kv_mops"], "Mops/s")
    m["kv_get_p99_us"] = metric(ref["kv_get_p99_us"], "sim_us")
    m["kv_put_p99_us"] = metric(ref["kv_put_p99_us"], "sim_us")
    for h in ("fill_ns", "credit_wait_ns", "drain_ns"):
        for q, tag in ((0.5, "p50"), (0.99, "p99")):
            m[f"rftp.{h}.{tag}"] = metric(st.quantile("rftp", h, q), "sim_ns")
    for c in ("retransmissions", "failovers", "grant_retransmissions"):
        m[f"rftp.{c}"] = metric(st.counter("rftp", c), "count")
    m["rftp.useful_block_ratio"] = metric(
        st.counter("rftp", "blocks_delivered") / posted if posted else 0.0,
        "ratio")
    for q, tag in ((0.5, "p50"), (0.99, "p99")):
        m[f"iscsi.cmd_ns.{tag}"] = metric(st.quantile("iscsi", "cmd_ns", q),
                                          "sim_ns")
    m["iscsi.command_retries"] = metric(
        st.counter("iscsi", "command_retries"), "count")
    for q, tag in ((0.5, "p50"), (0.99, "p99")):
        m[f"iser.data_op_ns.{tag}"] = metric(
            st.quantile("iser", "data_op_ns", q), "sim_ns")
    m["rdma.wr_posted"] = metric(st.counter("rdma", "wr_posted"), "count")
    m["rdma.wr_ns.p99"] = metric(st.quantile("rdma", "wr_ns", 0.99), "sim_ns")
    m["rdma.sq_depth_max"] = metric(st.gauge_max.get(("rdma", "sq_depth"), 0),
                                    "count")
    m["rdma.wire_failures"] = metric(st.counter("rdma", "wire_failures"),
                                     "count")
    ratio = (lambda a, b: extra[a] / extra[b] if extra.get(b) else 0.0)
    m["rpc.wrs_per_doorbell"] = metric(ratio("doorbell_wrs", "doorbells"),
                                       "ratio")
    m["rpc.cqes_per_poll"] = metric(ratio("poll_cqes", "poll_batches"),
                                    "ratio")
    m["rpc.retries"] = metric(extra.get("rpc_retries", 0), "count")
    m["rpc.stale_responses"] = metric(extra.get("stale_responses", 0),
                                      "count")
    m["kv.remote_ops"] = metric(extra.get("remote_ops", 0), "count")
    m["kv.failed_ops"] = metric(extra.get("failed_ops", 0), "count")
    m["mem.allocs_per_unit"] = metric(allocs_per_unit(bins, workload, seed),
                                      "count")
    m["host.calib_s"] = metric(median(reps, "calib_s"), "s")
    m["host.raw_wall_s"] = metric(median(reps, "wall_s"), "s")
    m["trace.overhead_s"] = metric(normalized(t, "wall_s") - wall, "s")
    for layer in STATS_LAYERS:
        m[f"trace.spans.{layer}"] = metric(spans[layer], "count")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bins = build()
    global DEADLINE
    DEADLINE = time.monotonic() + 170
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[a.workload]
    chk = Checker()

    mode = "traced" if a.trace else "timed"
    for kind in ("stats", "trace"):
        for old in OUT.glob(f"{kind}-{a.workload}-*.json"):
            old.unlink()  # dumps of an earlier run
    d = driver(bins, a.workload, a.seed, mode, w["size"], a.seconds)
    reps = d["repeats"]
    ref = reps[0]
    chk.repeats(reps, ref)
    chk.cli(bins, a.workload, a.seed, w["size"], ref)

    if a.trace:
        chk.traced(d["traced"], ref)
        par = None
        if a.workload != "bulk_san":
            par = driver(bins, a.workload, a.seed, "timed", w["size"],
                         a.seconds / 3, pinned=False)["repeats"]
            chk.repeats(par, ref)
        metrics = per_layer(bins, a.workload, a.seed, d, par)
    else:
        once = driver(bins, a.workload, a.seed, "once", w["size"])
        chk.repeats(once["repeats"], ref)
        metrics = {
            "wall_s": metric(host_median(reps, "wall_s"), "s"),
            "cpu_s": metric(host_median(reps, "cpu_s"), "s"),
            "setup_s": metric(host_median(reps, "setup_s"), "s"),
            "peak_rss_mib": metric(once["peak_rss_mib"], "MiB"),
            "goodput_gbps": metric(ref["goodput_gbps"], "Gbps"),
        }

    context = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "size": w["size"], "workers": d["shards"], "repeats": len(reps),
        "cores": os.cpu_count(), "build_type": d["build_type"],
        "compiler": d["compiler"], "commit": source_id(),
        "raw_wall_s": median(reps, "wall_s"),
        "calib_s": median(reps, "calib_s"),
    }
    if a.workload == "fleet_chaos":
        context["fault_seeds"] = fleet_fault_seeds(a.seed)
    if ref["binding"]:
        context["res.binding"] = ref["binding"]
    result = {"correct": chk.failed == 0, "attempted": chk.attempted,
              "failed": chk.failed, "metrics": metrics}
    (OUT / f"result-{a.workload}-trace{a.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n")
    print("context: " + json.dumps(context))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

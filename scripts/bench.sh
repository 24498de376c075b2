#!/usr/bin/env bash
# Runs the criterion FPRAS benches and appends a machine-readable snapshot to
# BENCH_fpras.json, so every PR leaves a perf-trajectory data point.
#
# Usage: scripts/bench.sh [extra criterion filter args]
#
# The snapshot records every fpras/* benchmark (mean/median ns), E3's hot
# path on the fixed trajectory instance (workloads::speedup_instance —
# contains-101 at n=24, k=64; see DESIGN.md §4) among them, plus the E21/E22
# kernel speedups.

set -euo pipefail
cd "$(dirname "$0")/.."

# Absolute path: the bench binary's CWD is the bench package dir, not the
# workspace root.
export LSC_CRITERION_DIR="${LSC_CRITERION_DIR:-$(pwd)/target/lsc-criterion}"
rm -rf "$LSC_CRITERION_DIR"

cargo bench -p lsc-bench --bench fpras -- "$@"

python3 - <<'PY'
import json, os, subprocess, time

out_dir = os.environ["LSC_CRITERION_DIR"]
results = []
for root, _, files in os.walk(out_dir):
    for f in sorted(files):
        if f.endswith(".json"):
            with open(os.path.join(root, f)) as fh:
                results.append(json.load(fh))
results.sort(key=lambda r: (r["group"], r["id"]))

def mean_of(group, ident):
    for r in results:
        if r["group"] == group and r["id"] == ident:
            return r["mean_ns"]
    return None

def ratio(group, slow, fast):
    a, b = mean_of(group, slow), mean_of(group, fast)
    return round(a / b, 2) if a and b else None

# E21/E22 kernel headlines: the packed union kernel vs the scalar walk it
# replaced (and the seed's quadratic scan), and the limb-batched completion
# DP vs the per-edge-allocation baseline at the multi-limb width.
union_kernel_speedup = ratio("fpras/e21-union-kernel", "scalar-walk", "packed")
union_kernel_speedup_vs_quadratic = ratio("fpras/e21-union-kernel", "quadratic", "packed")
completion_dp_speedup = ratio("fpras/e22-completion-dp", "per-edge-alloc/120", "limb-batched/120")

rev = "unknown"
try:
    rev = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
except Exception:
    pass

snapshot = {
    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "git_rev": rev,
    "instance": "contains-101@24 (k=64, FprasParams::quick)",
    "union_kernel_speedup_vs_walk": union_kernel_speedup,
    "union_kernel_speedup_vs_quadratic": union_kernel_speedup_vs_quadratic,
    "completion_dp_speedup": completion_dp_speedup,
    "benchmarks": results,
}

path = "BENCH_fpras.json"
history = []
if os.path.exists(path):
    with open(path) as fh:
        history = json.load(fh)
history.append(snapshot)
with open(path, "w") as fh:
    json.dump(history, fh, indent=1)
    fh.write("\n")

print(f"\nBENCH_fpras.json: appended snapshot #{len(history)}"
      f" (union kernel vs walk: {union_kernel_speedup}x;"
      f" completion DP: {completion_dp_speedup}x)")
PY

# --- Engine warm-vs-cold trajectory -----------------------------------------
# Runs the prepared-instance engine benches and appends a snapshot to
# BENCH_engine.json: the repeated-query speedup of the warm engine path over
# cold per-call MemNfa, on both the UFA exact route and the FPRAS route
# (8 queries per iteration; see crates/bench/benches/engine.rs).

export LSC_CRITERION_DIR="${LSC_CRITERION_ENGINE_DIR:-$(pwd)/target/lsc-criterion-engine}"
rm -rf "$LSC_CRITERION_DIR"

cargo bench -p lsc-bench --bench engine -- "$@"

python3 - <<'PY'
import json, os, subprocess, time

out_dir = os.environ["LSC_CRITERION_DIR"]
results = []
for root, _, files in os.walk(out_dir):
    for f in sorted(files):
        if f.endswith(".json"):
            with open(os.path.join(root, f)) as fh:
                results.append(json.load(fh))
results.sort(key=lambda r: (r["group"], r["id"]))

def mean_of(group, ident):
    for r in results:
        if r["group"] == group and r["id"] == ident:
            return r["mean_ns"]
    return None

def speedup(group):
    cold = mean_of(group, "cold-memnfa")
    warm = mean_of(group, "warm-engine")
    return round(cold / warm, 2) if cold and warm else None

def ratio(group, slow, fast):
    a, b = mean_of(group, slow), mean_of(group, fast)
    return round(a / b, 2) if a and b else None

snapshot = {
    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "git_rev": subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    ).stdout.strip() or "unknown",
    "workload": ("8 repeated queries per iteration; blowup(10)@40 exact, "
                 "contains-101@20 fpras; shard scaling: 8 threads x 4000 warm "
                 "resolutions over 16 instances, 1 vs 8 shards"),
    "cpus": os.cpu_count(),
    "warm_vs_cold_exact_speedup": speedup("engine/e14-warm-vs-cold-exact"),
    "warm_vs_cold_fpras_speedup": speedup("engine/e14-warm-vs-cold-fpras"),
    "shard_resolution_speedup": ratio(
        "engine/e19-shard-scaling", "shards/1", "shards/8"
    ),
    "benchmarks": results,
}

path = "BENCH_engine.json"
history = []
if os.path.exists(path):
    with open(path) as fh:
        history = json.load(fh)
history.append(snapshot)
with open(path, "w") as fh:
    json.dump(history, fh, indent=1)
    fh.write("\n")

print(f"\nBENCH_engine.json: appended snapshot #{len(history)}"
      f" (warm vs cold: exact {snapshot['warm_vs_cold_exact_speedup']}x,"
      f" fpras {snapshot['warm_vs_cold_fpras_speedup']}x;"
      f" shard resolution {snapshot['shard_resolution_speedup']}x)")
PY

# --- Cursor trajectory --------------------------------------------------------
# Runs the streaming-cursor benches and appends a snapshot to
# BENCH_cursor.json: first-witness latency vs full materialization (the
# delay-preservation headline) and per-page throughput warm vs cold
# (see crates/bench/benches/cursor.rs).

export LSC_CRITERION_DIR="${LSC_CRITERION_CURSOR_DIR:-$(pwd)/target/lsc-criterion-cursor}"
rm -rf "$LSC_CRITERION_DIR"

cargo bench -p lsc-bench --bench cursor -- "$@"

python3 - <<'PY'
import json, os, subprocess, time

out_dir = os.environ["LSC_CRITERION_DIR"]
results = []
for root, _, files in os.walk(out_dir):
    for f in sorted(files):
        if f.endswith(".json"):
            with open(os.path.join(root, f)) as fh:
                results.append(json.load(fh))
results.sort(key=lambda r: (r["group"], r["id"]))

def mean_of(group, ident):
    for r in results:
        if r["group"] == group and r["id"] == ident:
            return r["mean_ns"]
    return None

def ratio(group, slow, fast):
    a, b = mean_of(group, slow), mean_of(group, fast)
    return round(a / b, 2) if a and b else None

snapshot = {
    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "git_rev": subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    ).stdout.strip() or "unknown",
    "workload": "contains-101@18 first-witness vs full; blowup(10)@40 page=256 warm vs cold",
    "first_witness_ns": mean_of("cursor/e15-first-witness", "first-witness-cold"),
    "full_materialization_ns": mean_of("cursor/e15-first-witness", "full-materialization"),
    "first_witness_vs_full_speedup": ratio(
        "cursor/e15-first-witness", "full-materialization", "first-witness-cold"
    ),
    "warm_vs_cold_page_speedup": ratio(
        "cursor/e15-page-throughput", "cold-page", "warm-resume"
    ),
    "benchmarks": results,
}

path = "BENCH_cursor.json"
history = []
if os.path.exists(path):
    with open(path) as fh:
        history = json.load(fh)
history.append(snapshot)
with open(path, "w") as fh:
    json.dump(history, fh, indent=1)
    fh.write("\n")

print(f"\nBENCH_cursor.json: appended snapshot #{len(history)}"
      f" (first witness vs full: {snapshot['first_witness_vs_full_speedup']}x,"
      f" warm vs cold page: {snapshot['warm_vs_cold_page_speedup']}x)")
PY

# --- Serving-layer trajectory -------------------------------------------------
# Runs the `nfa_tool serve` benches and appends a snapshot to
# BENCH_serve.json: per-request wire latency on a warm session, multi-client
# throughput, and the snapshot-store warm-restart headline — server start to
# first answer, full recompile vs snapshot load (see
# crates/bench/benches/serve.rs).

export LSC_CRITERION_DIR="${LSC_CRITERION_SERVE_DIR:-$(pwd)/target/lsc-criterion-serve}"
rm -rf "$LSC_CRITERION_DIR"

cargo bench -p lsc-bench --bench serve -- "$@"

python3 - <<'PY'
import json, os, subprocess, time

out_dir = os.environ["LSC_CRITERION_DIR"]
results = []
for root, _, files in os.walk(out_dir):
    for f in sorted(files):
        if f.endswith(".json"):
            with open(os.path.join(root, f)) as fh:
                results.append(json.load(fh))
results.sort(key=lambda r: (r["group"], r["id"]))

def mean_of(group, ident):
    for r in results:
        if r["group"] == group and r["id"] == ident:
            return r["mean_ns"]
    return None

def ratio(group, slow, fast):
    a, b = mean_of(group, slow), mean_of(group, fast)
    return round(a / b, 2) if a and b else None

count_ns = mean_of("serve/e18-request-latency", "count-warm")
snapshot = {
    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "git_rev": subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    ).stdout.strip() or "unknown",
    "workload": ("blowup(10)@40 warm count/page over TCP; 4-motif@120 "
                 "warm-restart (classification + det-count persisted); "
                 "shard scaling: 8 TCP clients x 8 warm counts over 8 "
                 "distinct instances, 1 vs 8 shards, 8 workers; "
                 "shard speedups tie on single-core hosts by design"),
    "cpus": os.cpu_count(),
    "request_latency_count_ns": count_ns,
    "requests_per_sec_1_client": (
        round(8 / (mean_of("serve/e18-throughput", "clients/1") / 1e9), 1)
        if mean_of("serve/e18-throughput", "clients/1") else None
    ),
    "requests_per_sec_4_clients": (
        round(32 / (mean_of("serve/e18-throughput", "clients/4") / 1e9), 1)
        if mean_of("serve/e18-throughput", "clients/4") else None
    ),
    "warm_restart_speedup": ratio(
        "serve/e17-warm-restart", "cold-start-first-query", "warm-restart-first-query"
    ),
    # E23: cold-restart first approximate count (full sketch rebuild) vs a
    # warm restart off a v2 snapshot that carries the persisted sketch.
    "sketch_persistence_speedup": ratio(
        "serve/e23-sketch-persistence", "cold-start-first-count", "warm-restart-first-count"
    ),
    "shard_scaling_speedup": ratio(
        "serve/e19-shard-scaling", "shards/1", "shards/8"
    ),
    # 72 requests per iteration: each of the 8 clients opens a fresh
    # connection, sends 1 prepare + 8 counts — so this figure includes
    # connection-setup cost.
    "requests_per_sec_8_clients_1_shard": (
        round(72 / (mean_of("serve/e19-shard-scaling", "shards/1") / 1e9), 1)
        if mean_of("serve/e19-shard-scaling", "shards/1") else None
    ),
    "requests_per_sec_8_clients_8_shards": (
        round(72 / (mean_of("serve/e19-shard-scaling", "shards/8") / 1e9), 1)
        if mean_of("serve/e19-shard-scaling", "shards/8") else None
    ),
    # E20: warm count RTT with 512 mostly-idle standing connections, per
    # transport. The ratio is event-loop over threaded (1.0 = parity;
    # the acceptance bound is <= 1.25). Absent on hosts without epoll.
    "scaling_rtt_threaded_ns": mean_of(
        "serve/e20-connection-scaling", "threaded/idle512"
    ),
    "scaling_rtt_event_loop_ns": mean_of(
        "serve/e20-connection-scaling", "event-loop/idle512"
    ),
    "scaling_event_loop_vs_threaded": ratio(
        "serve/e20-connection-scaling", "event-loop/idle512", "threaded/idle512"
    ),
    # E24: the cluster front-end. Warm count RTT direct vs via the
    # router (the toll of one routing hop), and the failover-resume
    # headline: the kill-resume cycle minus the fault-free cycle is what
    # losing the home backend costs a live cursor (death detection +
    # ring shrink + re-prepare on the survivor + token resume). The
    # count-warm ids measure an 8-RPC batch per iteration (noise
    # amortization); divide by 8 for the per-RTT figure.
    "route_rtt_direct_ns": (mean_of(
        "serve/e24-route-overhead", "count-warm/direct"
    ) or 0) / 8 or None,
    "route_rtt_via_router_ns": (mean_of(
        "serve/e24-route-overhead", "count-warm/via-router"
    ) or 0) / 8 or None,
    "route_overhead_ratio": ratio(
        "serve/e24-route-overhead", "count-warm/via-router", "count-warm/direct"
    ),
    "failover_resume_ms": (
        round((mean_of("serve/e24-route-overhead", "failover/kill-resume-cycle")
               - mean_of("serve/e24-route-overhead", "failover/fault-free-cycle")) / 1e6, 2)
        if mean_of("serve/e24-route-overhead", "failover/kill-resume-cycle")
        and mean_of("serve/e24-route-overhead", "failover/fault-free-cycle") else None
    ),
    "benchmarks": results,
}

path = "BENCH_serve.json"
history = []
if os.path.exists(path):
    with open(path) as fh:
        history = json.load(fh)
history.append(snapshot)
with open(path, "w") as fh:
    json.dump(history, fh, indent=1)
    fh.write("\n")

print(f"\nBENCH_serve.json: appended snapshot #{len(history)}"
      f" (warm restart: {snapshot['warm_restart_speedup']}x,"
      f" sketch persistence: {snapshot['sketch_persistence_speedup']}x,"
      f" warm count rtt: {snapshot['request_latency_count_ns']} ns,"
      f" shard scaling 8 clients: {snapshot['shard_scaling_speedup']}x,"
      f" 512-idle-conn rtt event-loop/threaded: {snapshot['scaling_event_loop_vs_threaded']}x,"
      f" route hop: {snapshot['route_overhead_ratio']}x,"
      f" failover resume: {snapshot['failover_resume_ms']} ms)")
PY

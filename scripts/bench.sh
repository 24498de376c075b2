#!/usr/bin/env bash
# Runs the criterion benches and appends one machine-readable snapshot per
# bench to its trajectory file (BENCH_fpras.json, BENCH_engine.json,
# BENCH_cursor.json, BENCH_serve.json), so every PR can leave a data point.
#
# Usage: scripts/bench.sh [extra criterion filter args]
#
# A snapshot records every benchmark of its bench (mean/median ns), the git
# rev, and the section's derived headline keys, listed in `record` calls
# below. The regression gate is scripts/bench_check.sh, which compares the
# parent and the change on one host and never reads these files.

set -euo pipefail
cd "$(dirname "$0")/.."

# Absolute path: the bench binary's CWD is the bench package dir, not the
# workspace root.
OUT="$(pwd)/target/lsc-criterion"
rm -rf "$OUT"
for bench in fpras engine cursor serve; do
  LSC_CRITERION_DIR="$OUT/$bench" cargo bench -p lsc-bench --bench "$bench" -- "$@"
done

OUT="$OUT" python3 - <<'PY'
import json, os, subprocess, time

REV = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
).stdout.strip() or "unknown"


class Results:
    """One bench's criterion output, looked up by (group, id)."""

    def __init__(self, bench):
        self.rows = []
        for root, _, files in os.walk(os.path.join(os.environ["OUT"], bench)):
            for f in files:
                with open(os.path.join(root, f)) as fh:
                    self.rows.append(json.load(fh))
        self.rows.sort(key=lambda r: (r["group"], r["id"]))
        self.means = {(r["group"], r["id"]): r["mean_ns"] for r in self.rows}

    def mean(self, group, ident):
        return self.means.get((group, ident))

    def ratio(self, group, slow, fast):
        a, b = self.mean(group, slow), self.mean(group, fast)
        return round(a / b, 2) if a and b else None

    def per_sec(self, group, ident, requests):
        """Requests per second when one iteration of `ident` sends `requests`."""
        ns = self.mean(group, ident)
        return round(requests / (ns / 1e9), 1) if ns else None


def record(bench, derive):
    """Appends a snapshot of `bench` to BENCH_<bench>.json; `derive` maps
    the bench's Results to the section's own keys."""
    results = Results(bench)
    keys = derive(results)
    path = f"BENCH_{bench}.json"
    history = []
    if os.path.exists(path):
        with open(path) as fh:
            history = json.load(fh)
    history.append({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": REV,
        **keys,
        "benchmarks": results.rows,
    })
    with open(path, "w") as fh:
        json.dump(history, fh, indent=1)
        fh.write("\n")
    headline = ", ".join(f"{k} {v}" for k, v in keys.items() if not isinstance(v, str))
    print(f"\n{path}: appended snapshot #{len(history)} ({headline})")


# E3's hot path on the fixed trajectory instance (workloads::speedup_instance;
# see DESIGN.md §4), and the E21/E22 kernel headlines: the packed union
# kernel vs the scalar walk it replaced (and the seed's quadratic scan), and
# the limb-batched completion DP vs the per-edge-allocation baseline at the
# multi-limb width.
record("fpras", lambda r: {
    "instance": "contains-101@24 (k=64, FprasParams::quick)",
    "union_kernel_speedup_vs_walk": r.ratio("fpras/e21-union-kernel", "scalar-walk", "packed"),
    "union_kernel_speedup_vs_quadratic": r.ratio("fpras/e21-union-kernel", "quadratic", "packed"),
    "completion_dp_speedup": r.ratio(
        "fpras/e22-completion-dp", "per-edge-alloc/120", "limb-batched/120"),
})

# The repeated-query speedup of the warm engine path over cold per-call
# MemNfa, on the UFA exact route and the FPRAS route (8 queries per
# iteration; see crates/bench/benches/engine.rs).
record("engine", lambda r: {
    "workload": ("8 repeated queries per iteration; blowup(10)@40 exact, "
                 "contains-101@20 fpras; shard scaling: 8 threads x 4000 warm "
                 "resolutions over 16 instances, 1 vs 8 shards"),
    "cpus": os.cpu_count(),
    "warm_vs_cold_exact_speedup": r.ratio(
        "engine/e14-warm-vs-cold-exact", "cold-memnfa", "warm-engine"),
    "warm_vs_cold_fpras_speedup": r.ratio(
        "engine/e14-warm-vs-cold-fpras", "cold-memnfa", "warm-engine"),
    "shard_resolution_speedup": r.ratio("engine/e19-shard-scaling", "shards/1", "shards/8"),
})

# First-witness latency vs full materialization (the delay-preservation
# headline) and per-page throughput warm vs cold (see
# crates/bench/benches/cursor.rs).
record("cursor", lambda r: {
    "workload": "contains-101@18 first-witness vs full; blowup(10)@40 page=256 warm vs cold",
    "first_witness_ns": r.mean("cursor/e15-first-witness", "first-witness-cold"),
    "full_materialization_ns": r.mean("cursor/e15-first-witness", "full-materialization"),
    "first_witness_vs_full_speedup": r.ratio(
        "cursor/e15-first-witness", "full-materialization", "first-witness-cold"),
    "warm_vs_cold_page_speedup": r.ratio(
        "cursor/e15-page-throughput", "cold-page", "warm-resume"),
})


def serve(r):
    """Multi-client throughput, the warm-restart headlines, shard scaling,
    the idle-herd RTT and the failover cycle (see
    crates/bench/benches/serve.rs). Single-connection latency and the
    router hop are perfbench's `warm-wire` and `routed-wire`."""
    e24 = "serve/e24-route-overhead"
    kill, clean = r.mean(e24, "failover/kill-resume-cycle"), r.mean(e24, "failover/fault-free-cycle")
    return {
        "workload": ("blowup(10)@40 warm counts over TCP; 4-motif@120 "
                     "warm-restart (classification + det-count persisted); "
                     "shard scaling: 8 TCP clients x 8 warm counts over 8 "
                     "distinct instances, 1 vs 8 shards, 8 workers; "
                     "shard speedups tie on single-core hosts by design"),
        "cpus": os.cpu_count(),
        "requests_per_sec_1_client": r.per_sec("serve/e18-throughput", "clients/1", 8),
        "requests_per_sec_4_clients": r.per_sec("serve/e18-throughput", "clients/4", 32),
        "warm_restart_speedup": r.ratio(
            "serve/e17-warm-restart", "cold-start-first-query", "warm-restart-first-query"),
        # E23: cold-restart first approximate count (full sketch rebuild) vs
        # a warm restart off a v2 snapshot that carries the persisted sketch.
        "sketch_persistence_speedup": r.ratio(
            "serve/e23-sketch-persistence", "cold-start-first-count", "warm-restart-first-count"),
        "shard_scaling_speedup": r.ratio("serve/e19-shard-scaling", "shards/1", "shards/8"),
        # 72 requests per iteration: each of the 8 clients opens a fresh
        # connection, sends 1 prepare + 8 counts — so this figure includes
        # connection-setup cost.
        "requests_per_sec_8_clients_1_shard": r.per_sec("serve/e19-shard-scaling", "shards/1", 72),
        "requests_per_sec_8_clients_8_shards": r.per_sec("serve/e19-shard-scaling", "shards/8", 72),
        # E20: warm count RTT with 512 mostly-idle standing connections, per
        # transport. The ratio is event-loop over threaded (1.0 = parity;
        # the acceptance bound is <= 1.25). Absent on hosts without epoll.
        "scaling_rtt_threaded_ns": r.mean("serve/e20-connection-scaling", "threaded/idle512"),
        "scaling_rtt_event_loop_ns": r.mean("serve/e20-connection-scaling", "event-loop/idle512"),
        "scaling_event_loop_vs_threaded": r.ratio(
            "serve/e20-connection-scaling", "event-loop/idle512", "threaded/idle512"),
        # E24: the kill-resume cycle minus the fault-free cycle is what
        # losing the home backend costs a live cursor (death detection +
        # ring shrink + re-prepare on the survivor + token resume).
        "failover_resume_ms": round((kill - clean) / 1e6, 2) if kill and clean else None,
    }


record("serve", serve)
PY

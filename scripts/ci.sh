#!/usr/bin/env bash
# Tier-1 verification plus the rot-prone extras: lints, formatting, and the
# rustdoc gate must be clean, the quickstart + serve_client examples must
# run, and the engine + cursor + serve benches must at least execute (smoke
# invocations with a tiny sample budget — trajectory numbers come from
# scripts/bench.sh), and the perfbench harness must pass its own tests and
# short checked runs of the warm, bulk and routed workloads.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== shard stress: 2 threads (smoke) =="
LSC_STRESS_OPS=64 LSC_STRESS_THREADS=2 \
cargo test -q --release -p lsc-core --test shard_stress

echo "== shard stress: 8 threads (smoke) =="
LSC_STRESS_OPS=64 LSC_STRESS_THREADS=8 \
cargo test -q --release -p lsc-core --test shard_stress

echo "== chaos smoke: 2 seeds, kill + warm-restart mid-run, both transports =="
LSC_CHAOS_OPS=16 LSC_CHAOS_CLIENTS=3 LSC_CHAOS_SEEDS=0xC0FFEE,0xBADC0DE \
cargo test -q --release -p lsc-core --test chaos

echo "== router chaos smoke: kill + join on a 3-backend ring =="
LSC_ROUTER_CHAOS_OPS=12 LSC_ROUTER_CHAOS_CLIENTS=3 \
cargo test -q --release -p lsc-core --test router_chaos

echo "== stdio smoke: nfa_tool serve --stdio =="
# Sessions number from s1 per server; count-exact of "ends in 11" at
# length 6 is 16.
STDIO_OUT="$(printf '%s\n' \
  '{"op":"prepare","regex":"(0|1)*11","length":6}' \
  '{"op":"count_exact","session":"s1"}' \
  '{"op":"bye"}' | ./target/release/nfa_tool serve --stdio true)"
echo "$STDIO_OUT" | grep -q '"count":"16"'
echo "stdio smoke: ok"

echo "== CLI golden: nfa_tool batch =="
# Every line but the final `# cache:` summary, whose byte figure moves
# with table layout and whose shard count follows the host's cores.
diff <(grep -v '^# cache:' tests/golden/nfa_tool_batch.out) \
  <(./target/release/nfa_tool batch --file tests/golden/nfa_tool_batch.queries \
      --page-size 4 | grep -v '^# cache:')
echo "CLI golden: ok"

echo "== router e2e smoke: nfa_tool route over two nfa_tool serve nodes =="
ROUTE_DIR="$(mktemp -d)"
trap 'rm -rf "$ROUTE_DIR"' EXIT
mkdir -p "$ROUTE_DIR/snap1" "$ROUTE_DIR/snap2"
./target/release/nfa_tool serve --port 17611 --snapshot-dir "$ROUTE_DIR/snap1" &
B1=$!
./target/release/nfa_tool serve --port 17612 --snapshot-dir "$ROUTE_DIR/snap2" &
B2=$!
sleep 1
./target/release/nfa_tool route --listen 127.0.0.1:17610 \
  --backends 127.0.0.1:17611,127.0.0.1:17612 \
  --snapshot-dirs "$ROUTE_DIR/snap1,$ROUTE_DIR/snap2" &
ROUTE=$!
sleep 1
# The reconnecting client speaks to the router exactly as it would to a
# single node: count-exact of "ends in 11" at length 6 is 16.
QUERY_OUT="$(./target/release/nfa_tool query --addr 127.0.0.1:17610 \
  --regex '(0|1)*11' --length 6 --op count-exact)"
test "$QUERY_OUT" = "16"
# Raw wire pass: prepare, then count-exact on the returned front session.
exec 9<>/dev/tcp/127.0.0.1/17610
printf '{"op":"prepare","regex":"(0|1)*11","length":6}\n' >&9
IFS= read -r PREP <&9
echo "$PREP" | grep -q '"ok":true'
SESSION="$(printf '%s' "$PREP" | grep -o '"session":"[^"]*"' | cut -d'"' -f4)"
# Front sessions are connection-scoped: a second connection naming the
# first one's session is refused.
exec 8<>/dev/tcp/127.0.0.1/17610
printf '{"op":"count_exact","session":"%s"}\n{"op":"bye"}\n' "$SESSION" >&8
IFS= read -r FOREIGN <&8
exec 8<&-
echo "$FOREIGN" | grep -q '"unknown-session"'
printf '{"op":"count_exact","session":"%s"}\n{"op":"bye"}\n' "$SESSION" >&9
IFS= read -r COUNT <&9
exec 9<&-
echo "$COUNT" | grep -q '"count":"16"'
# Snapshot shipping: the prepare's artifact must exist in both stores
# (home and replica).
test -n "$(ls "$ROUTE_DIR/snap1")" && test -n "$(ls "$ROUTE_DIR/snap2")"
kill "$ROUTE" "$B1" "$B2" 2>/dev/null || true
wait "$ROUTE" "$B1" "$B2" 2>/dev/null || true
rm -rf "$ROUTE_DIR"
trap - EXIT
echo "router e2e smoke: ok"

echo "== transport conformance: threaded vs event loop, 512-conn scaling smoke =="
LSC_SCALE_CONNS=512 \
cargo test -q --release -p lsc-core --test transport_conformance

echo "== crash safety: every-byte crash points + corruption matrix =="
cargo test -q --release -p lsc-core --test crash_safety

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: lsc-analyze (workspace invariants) =="
scripts/analyze.sh

echo "== docs: rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== example: quickstart =="
cargo run --release --example quickstart

echo "== example: serve_client (wire protocol end to end) =="
cargo run --release --example serve_client

echo "== bench smoke: engine warm-vs-cold =="
LSC_CRITERION_SAMPLES=2 \
LSC_CRITERION_DIR="$(pwd)/target/lsc-criterion-ci" \
cargo bench -p lsc-bench --bench engine -- e14-warm-vs-cold-exact

echo "== bench smoke: cursor first-witness =="
LSC_CRITERION_SAMPLES=2 \
LSC_CRITERION_DIR="$(pwd)/target/lsc-criterion-ci-cursor" \
cargo bench -p lsc-bench --bench cursor -- e15-first-witness

echo "== bench smoke: serve warm-restart =="
LSC_CRITERION_SAMPLES=2 \
LSC_CRITERION_DIR="$(pwd)/target/lsc-criterion-ci-serve" \
cargo bench -p lsc-bench --bench serve -- e17-warm-restart

echo "== perfbench: harness tests =="
cargo test --release --manifest-path perfbench/Cargo.toml

# Each run checks every reply against a fresh reference engine, draw streams
# included; a wrong answer exits non-zero.
echo "== perfbench: 2 s checked warm-wire smoke =="
python3 perfbench/run.py --workload warm-wire --seed 1 --seconds 2 --trace 0

echo "== perfbench: 2 s checked bulk-stream smoke =="
python3 perfbench/run.py --workload bulk-stream --seed 1 --seconds 2 --trace 0

echo "== perfbench: 2 s checked routed-wire smoke =="
python3 perfbench/run.py --workload routed-wire --seed 1 --seconds 2 --trace 0

echo "== bench gate: E20-E23 kernel + transport regression check =="
scripts/bench_check.sh

echo "== ci.sh: all green =="

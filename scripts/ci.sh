#!/usr/bin/env bash
# Full local CI gate: build, tests, rustdoc (warnings denied), clippy
# (warnings denied), and a trace smoke test. Run before every push;
# scripts/run_all.sh assumes this is green. All steps are offline
# (vendored path dependencies).
#
# Gates target the pipa packages, not the vendored shims: the vendored
# crates keep upstream names, so their own test harnesses (e.g. serde's
# derive-macro self-tests) assume the real crates-io source layout and
# do not compile standalone. The workspace's default-members are exactly
# these packages, so plain `cargo test` covers them.
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=(-p pipa -p pipa-obs -p pipa-sim -p pipa-workload -p pipa-nn -p pipa-cost -p pipa-ia -p pipa-qgen -p pipa-core -p pipa-serve -p pipa-bench)

echo "== cargo build --release =="
cargo build --release "${PKGS[@]}"

echo "== cargo test -q =="
cargo test -q

echo "== cost-backend boundary lint =="
# Advisors and the attack pipeline must route every cost through the
# object-safe CostBackend seam, never the simulator's Database methods.
# The trait's method names are deliberately distinct from Database's, so
# a direct call is grep-visible.
if grep -rnE 'estimated_(query|workload)_cost|scalar_(query|workload)_cost|what_if_(batch|delta)|whatif_eval_|actual_(query|workload)_cost' \
        crates/ia/src crates/core/src crates/serve/src; then
    echo "boundary lint: direct Database cost calls found above (use the CostBackend seam)" >&2
    exit 1
fi

echo "== target-registry coverage lint =="
# Every built-in kind id registered in crates/ia/src/registry.rs must be
# exercised by the every-kind construction test fixture in the same
# file: adding a builtin("<id>", ...) without extending EXERCISED_KINDS
# fails here instead of silently shipping an untested target.
REGISTRY=crates/ia/src/registry.rs
BUILTIN_IDS=$(grep -A1 -E 'builtin\($' "$REGISTRY" | grep -oE '"[a-z0-9_-]+"' | tr -d '"')
FIXTURE_LINE=$(grep 'EXERCISED_KINDS' "$REGISTRY" | grep '&\[')
[ -n "$BUILTIN_IDS" ] || { echo "registry lint: no builtin(...) registrations found" >&2; exit 1; }
for id in $BUILTIN_IDS; do
    if ! echo "$FIXTURE_LINE" | grep -q "\"$id\""; then
        echo "registry lint: builtin \"$id\" missing from EXERCISED_KINDS in $REGISTRY" >&2
        exit 1
    fi
done

echo "== target-registry acceptance suite =="
# A toy advisor registered from an integration test must run the full
# stress pipeline and serve a fleet tenant with zero edits to core/
# serve/bench match sites (the open-seam guarantee).
cargo test -q -p pipa --test target_registry

echo "== cost-backend differential suite =="
# Bit-equality of every cost answered through the CostBackend trait
# against the direct Database paths, plus record/replay tape equality
# across --jobs 1 and --jobs N.
cargo test -q -p pipa --test cost_backend_differential

echo "== replay smoke test =="
# Record a stress-test grid, then re-run it from the tape alone: the
# replayed outcomes must be bit-identical (the differential suite pins
# this; re-run the replay tests by name so CI output names a failure).
cargo test -q -p pipa --test cost_backend_differential replay

echo "== what-if differential suite =="
# Bit-equality of the benefit matrix / delta / batch paths against the
# scalar full recompute (also part of the test gate above; re-run
# explicitly so a failure is named in CI output).
cargo test -q -p pipa --test whatif_differential

echo "== NN kernel differential suite =="
# Bit-equality (f32::to_bits) of the blocked / blocked+parallel matmul
# kernels against the naive reference loops, plus train-step parameter
# equality across kernel modes and tape reuse.
cargo test -q -p pipa --test nn_kernel_differential

echo "== streaming arms-race suites =="
# The stream ↔ static differential (a no-drift, end-only stream is
# bit-identical to the static pipeline) and the defense property suite
# (canary never deploys beyond tolerance, rollback reinstates the exact
# pre-update configuration, provenance passes clean workloads
# bit-unchanged). Both run in the test gate above; re-run by name so a
# failure is named in CI output.
cargo test -q -p pipa --test stream_differential
cargo test -q -p pipa --test defense_properties

echo "== scale property suite =="
# Skewed-traffic hardening: ANY benefit-matrix byte budget (incl. 0 and
# one cell) is f64-bit-identical to unbounded, per query and through an
# incremental session; traffic pools/samples are pure in their seed, and
# window sampling is byte-identical across --jobs.
cargo test -q -p pipa --test scale_properties

echo "== results artifact schema =="
cargo test -q -p pipa --test results_schema

echo "== NN bench smoke =="
# Tiny-dimension pass through the nn bench harness (asserts the decode
# session's bitwise equality against the per-token path on the way);
# smoke mode skips the committed artifact.
NN_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench nn >/dev/null

echo "== serve bench smoke =="
# Tiny replay fleet through the serve bench harness: records tapes, runs
# the worker grid, and asserts the fleet report is bit-identical across
# worker counts; smoke mode skips the committed artifact.
SERVE_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench serve >/dev/null

echo "== stream bench smoke =="
# Tiny arms-race grid through the stream bench harness: runs the
# attacker × defense × cadence sweep and asserts the grid serializes
# bit-identically across --jobs; smoke mode skips the committed artifact.
STREAM_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench stream >/dev/null

echo "== targets bench smoke =="
# Shrunk pass over the registry-opened target classes (in-context
# advisor, learned-index backend) vs. the DQN baseline: stress grid,
# stream legs, and the worker-count determinism cross-checks; smoke mode
# skips the committed artifact.
TARGETS_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench targets >/dev/null

echo "== what-if bench smoke =="
# Tiny-dimension pass through the whatif bench harness, including the
# join-mix grid endpoints; smoke mode skips the committed artifact.
WHATIF_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench whatif >/dev/null

echo "== scale bench smoke =="
# Shrunk Zipf/diurnal stream through the scale bench harness: asserts
# the byte-budgeted matrix's bit-identity against the unbounded replay
# (budget below the stream's working set), the config-sweep budget, the
# tape round trip + size guard, and the hot>=cold economics ordering;
# smoke mode skips the committed artifact.
SCALE_BENCH_SMOKE=1 cargo bench -q -p pipa-bench --bench scale >/dev/null

echo "== artifact reproduction =="
# Two committed figure artifacts are regenerated from scratch and must
# match results/ byte for byte: fig8 (default arguments) runs its cells
# through StressTest::attack, and the defense ablation (--runs 4) runs
# every arm through StressTest::defense. A drift here means a static
# cell changed behaviour.
REPRO_DIR="$(mktemp -d)"
cargo run --release -q -p pipa-bench --bin fig8_local_optimum -- \
    --out "$REPRO_DIR" >/dev/null 2>&1
cmp "$REPRO_DIR/fig8_local_optimum.json" results/fig8_local_optimum.json
cargo run --release -q -p pipa-bench --bin ablation_defense -- \
    --runs 4 --out "$REPRO_DIR" >/dev/null 2>&1
cmp "$REPRO_DIR/ablation_defense.json" results/ablation_defense.json
rm -rf "$REPRO_DIR"

echo "== doc-link lint =="
# Prose docs must not reference cost entry points that no longer exist:
# the PR-5/PR-6 unification removed the matrix_* pair (dispatch is
# internal to estimated_*) and JoinCoupled no longer covers plain joins;
# the per-(query, config) what-if cost cache and its enable/capacity
# knobs are gone (the benefit matrix is the only what-if memo layer);
# the CostEngine facade became three free functions in pipa-cost, and
# the hand-written canary pipeline became StressTest::defense.
if grep -rnE 'matrix_query_cost|matrix_workload_cost|CostCache|set_whatif_cache_(enabled|capacity)|stress_with_canary|CostEngine' \
        README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md; then
    echo "doc-link lint: stale cost entry-point references found above" >&2
    exit 1
fi

echo "== cargo doc (RUSTDOCFLAGS=-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${PKGS[@]}"

echo "== cargo clippy (-D warnings) =="
cargo clippy --all-targets -q "${PKGS[@]}" -- -D warnings

echo "== trace smoke test =="
# One tiny traced experiment, then validate that every emitted line is a
# JSON object carrying the contract keys (event, cell_seed, phase).
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
cargo run --release -q -p pipa-bench --bin fig1_motivation -- \
    --test --runs 1 --jobs 2 \
    --trace "$TRACE_DIR/trace.jsonl" --metrics-out "$TRACE_DIR/metrics.jsonl" \
    --out "$TRACE_DIR" >/dev/null
cargo run --release -q -p pipa-bench --bin trace_lint -- \
    "$TRACE_DIR/trace.jsonl" "$TRACE_DIR/metrics.jsonl"

echo "CI green."

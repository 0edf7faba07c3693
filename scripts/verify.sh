#!/usr/bin/env bash
# Tier-1 verification: the workspace must build in release mode and pass the
# full test suite offline (no network, no external crates). Extra release-
# mode gates (optimized codegen has caught UB-adjacent bugs debug builds
# miss):
#
#   * the engine/thread equivalence suite,
#   * the prefix-group counting sweep (grouped kernels bit-identical to the
#     naive per-candidate reference, counts and stats, at every thread
#     count),
#   * the fused-support ground truth (supports tallied by vertical
#     generation equal the naive reference for every variant × engine ×
#     threads, seeded or not, and counted + fused + seeded = generated),
#   * the FBIN storage suite (text↔fbin round-trip idempotence, streamed-
#     vs-loaded mining equivalence, truncation/corruption behavior),
#   * the façade acceptance suite (Session/Sweep bit-identical to the
#     single-shot paths, flipper-results/v1 golden bytes, repeated-run
#     byte identity),
#   * flipper-lint (crates/lint): project-specific static analysis — the
#     ratchet against LINT_BASELINE.json must hold (no rule above its
#     committed count; see README "Static analysis"),
#   * the quickstart example (the library-API walkthrough must run green),
#   * the observability suite plus a traced smoke mine: `flipper mine
#     --trace` on a planted dataset must emit a `flipper-trace/v1` document
#     that parses, nests per lane and covers the pipeline's span names
#     (checked by the flipper-obs `validate_trace` example),
#   * an ingest-path gate: a MEDLINE surrogate (scale 0.05) mined from its
#     FBIN file and from its text conversion with the Table-4 thresholds
#     must give equivalent flipper-results/v1 reports,
#   * a default-engine byte-identity gate: a fixed-seed quest dataset
#     mined under `full` and `basic` with the default engine and with
#     `--engine tidset --threads 2` must give equivalent flipper-results/v1
#     reports (`flipper results-diff` exits 0),
#   * the fault-injection suite (crates/integration/tests/fault_injection.rs):
#     seeded flipper-guard faults at every instrumented site across engines
#     × threads must surface as typed errors or quarantine-flagged degraded
#     results — never a panic, never silent corruption — and the inert
#     guard must be byte-invisible in flipper-results/v1,
#   * a cancelled-sweep-then-resume smoke: a checkpointed `flipper sweep`
#     killed by a tiny `--timeout` must exit 3 (cancelled/timeout), leave a
#     readable flipper-sweep-ckpt/v1 journal, and complete under `--resume`,
#   * a few-second `quickbench --smoke` running the engine × threads grid,
#     the counting-kernel rows, the observability-overhead rows, the
#     guard-overhead rows, the support-cache probe rows and the storage IO
#     rows, so a mis-wired engine, a perf cliff or a broken format fails
#     loudly; `--json` writes the machine-readable BENCH_smoke.json
#     baseline.
#
# Documentation is a gate too: `cargo doc --no-deps` must build with
# RUSTDOCFLAGS="-D warnings" — a public API change that breaks its own
# docs fails verification.
#
#   ./scripts/verify.sh
#
# Three advisory, non-blocking steps ride along: scripts/bench_check.sh
# compares a fresh smoke run against the *committed* BENCH_smoke.json
# medians (±30%) before the baseline is re-blessed, and clippy/rustfmt run
# at the end. Their findings are printed but never fail verification.
set -uo pipefail

cd "$(dirname "$0")/.."

set -e
echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== execution layer: equivalence suite under --release"
cargo test --release -q -p flipper-integration --test equivalence

echo "== counting kernels: prefix-group equivalence sweep under --release"
cargo test --release -q -p flipper-integration --test prefix_groups

echo "== fused supports: generator-tallied supports vs naive counts under --release"
cargo test --release -q -p flipper-integration --test fused_supports

echo "== storage: fbin round-trip + streamed-vs-loaded equivalence under --release"
cargo test --release -q -p flipper-integration --test store_roundtrip

echo "== api façade: session/sweep equivalence + results/v1 golden under --release"
cargo test --release -q -p flipper-integration --test facade

echo "== static analysis: flipper-lint against LINT_BASELINE.json"
cargo run --release -q -p flipper-lint -- --json

echo "== static analysis: crate dependency graph is acyclic (--graph dot)"
DOT_OUT="$(cargo run --release -q -p flipper-lint -- --graph dot)"
echo "$DOT_OUT" | grep -q '^digraph flipper {' || {
    echo "flipper-lint --graph dot did not emit a DOT document" >&2
    exit 1
}
if command -v tsort >/dev/null 2>&1; then
    # Each DOT edge `"to" -> "from";` becomes a `to from` pair; tsort fails
    # loudly on any cycle. The layering rule already forbids back-edges, so
    # this is a belt-and-braces check on the observed graph itself.
    echo "$DOT_OUT" | sed -n 's/^  "\([a-z]*\)" -> "\([a-z]*\)";$/\1 \2/p' \
        | tsort >/dev/null || {
        echo "crate dependency graph has a cycle" >&2
        exit 1
    }
else
    echo "tsort unavailable; acyclicity still enforced by the layering rule"
fi

echo "== docs: cargo doc --no-deps with -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== examples: quickstart (release)"
cargo run --release -q -p flipper-integration --example quickstart >/dev/null

echo "== observability: obs suite + traced smoke mine under --release"
cargo test --release -q -p flipper-integration --test obs_trace
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
cargo run --release -q -p flipper-cli -- generate --kind planted \
    --out "$OBS_TMP/planted.fbin" >/dev/null
cargo run --release -q -p flipper-cli -- mine --input "$OBS_TMP/planted.fbin" \
    --threads 2 --trace "$OBS_TMP/trace.json" --timings >/dev/null
cargo run --release -q -p flipper-obs --example validate_trace -- \
    "$OBS_TMP/trace.json" \
    --expect session.ingest,view.build,store.chunk,mine.run,mine.cell,mine.count,cache.cell

echo "== default engine: byte identity against the tid-list oracle (CLI)"
# One quest dataset (fixed seed, N=20 000), mined under `full` and `basic`
# with the default (hybrid bitset) engine at 1 thread and with `tidset` at
# 2 threads; each pair of flipper-results/v1 reports must be equivalent.
cargo run --release -q -p flipper-cli -- generate --kind quest --seed 11 \
    --transactions 20000 --out "$OBS_TMP/quest.fbin" >/dev/null
for variant in full basic; do
    cargo run --release -q -p flipper-cli -- mine --input "$OBS_TMP/quest.fbin" \
        --variant "$variant" --top 0 \
        --output-json "$OBS_TMP/default-$variant.json" >/dev/null 2>&1
    cargo run --release -q -p flipper-cli -- mine --input "$OBS_TMP/quest.fbin" \
        --variant "$variant" --top 0 --engine tidset --threads 2 \
        --output-json "$OBS_TMP/tidset-$variant.json" >/dev/null 2>&1
    cargo run --release -q -p flipper-cli -- results-diff \
        "$OBS_TMP/default-$variant.json" "$OBS_TMP/tidset-$variant.json"
done

echo "== ingest paths: streamed FBIN vs parsed text on a MEDLINE surrogate (CLI)"
# The MEDLINE surrogate at scale 0.05 (32 000 citations), generated as FBIN
# and converted to text, mined with the Table-4 thresholds. The FBIN file
# decodes flat chunks straight into the view builder; the text file goes
# through a TransactionDb. Both flipper-results/v1 reports must be equivalent.
cargo run --release -q -p flipper-cli -- generate --kind medline --scale 0.05 \
    --format fbin --out "$OBS_TMP/medline.fbin" >/dev/null
cargo run --release -q -p flipper-cli -- convert --input "$OBS_TMP/medline.fbin" \
    --out "$OBS_TMP/medline.txt" --to text >/dev/null
for format in fbin txt; do
    cargo run --release -q -p flipper-cli -- mine --input "$OBS_TMP/medline.$format" \
        --gamma 0.40 --epsilon 0.10 --minsup 0.001,0.0005,0.0001 --top 0 \
        --output-json "$OBS_TMP/medline-$format.json" >/dev/null 2>&1
done
cargo run --release -q -p flipper-cli -- results-diff \
    "$OBS_TMP/medline-fbin.json" "$OBS_TMP/medline-txt.json"

echo "== robustness: fault-injection suite under --release"
cargo test --release -q -p flipper-integration --test fault_injection

echo "== robustness: cancelled-sweep-then-resume smoke (checkpoint journal)"
set +e
cargo run --release -q -p flipper-cli -- sweep --input "$OBS_TMP/planted.fbin" \
    --gammas 0.6,0.5,0.4 --epsilons 0.35,0.2 \
    --checkpoint "$OBS_TMP/sweep.ckpt" --timeout 0.000000001 >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "cancelled sweep: expected the cancelled/timeout exit code 3, got $rc" >&2
    exit 1
fi
head -1 "$OBS_TMP/sweep.ckpt" | grep -q '^flipper-sweep-ckpt/v1$' || {
    echo "cancelled sweep left no readable flipper-sweep-ckpt/v1 journal" >&2
    exit 1
}
cargo run --release -q -p flipper-cli -- sweep --input "$OBS_TMP/planted.fbin" \
    --gammas 0.6,0.5,0.4 --epsilons 0.35,0.2 \
    --checkpoint "$OBS_TMP/sweep.ckpt" --resume >/dev/null

set +e
echo "== advisory: bench_check vs committed BENCH_smoke.json (non-blocking)"
if ./scripts/bench_check.sh; then
    echo "bench_check: done (advisory only)"
else
    echo "bench_check: failed to run; advisory only, tier-1 still continues"
fi
set -e

echo "== execution layer + storage: quickbench --smoke (writes BENCH_smoke.json)"
cargo run --release -q --bin quickbench -- --smoke --json BENCH_smoke.json
set +e

echo "== advisory: cargo clippy --all-targets -- -D warnings (non-blocking)"
if cargo clippy --all-targets -- -D warnings; then
    echo "clippy: clean"
else
    echo "clippy: findings above are advisory only; tier-1 still PASSED"
fi

echo "== advisory: cargo fmt --check (non-blocking)"
if cargo fmt --check; then
    echo "fmt: clean"
else
    echo "fmt: drift above is advisory only; tier-1 still PASSED"
fi

echo "== tier-1 verification PASSED"

# rram-ftt task runner. Every recipe is plain cargo underneath, so
# `just <name>` and the expanded command are interchangeable.

# Default: list recipes.
default:
    @just --list

# Tier-1 gate: release build + root-package tests (what CI enforces).
check:
    cargo build --release
    cargo test -q

# Full workspace test sweep (all crates, all suites).
test-all:
    cargo test --workspace -q

# nn's kernel oracles and the VGG-11 conv golden in the release profile the
# benchmark builds (CI's test-all job runs them after the workspace tests).
release-oracles:
    cargo test --release -q -p nn
    cargo test --release -q --test adversarial conv_flow

# The repository benchmark (the BENCHMARK.json command): five end-to-end
# workloads timed at thread budgets {1, nproc}. Extra arguments pass
# through, e.g. `just bench --workload arena_reference --seed 3`.
bench *ARGS:
    cargo run --release --quiet --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- {{ARGS}}

# Formatting gate: every workspace member must be rustfmt-clean (the
# benchmark package is its own workspace and is not covered).
fmt-check:
    cargo fmt --all --check

# Lints at the workspace's warning bar, with `unsafe` forbidden in every
# target (vendored shims included). The root clippy.toml bans wall
# clocks, hash maps and unscoped threads (DESIGN.md §10). `-D warnings`
# also fails any `#[expect(lint, reason = ...)]` whose site has gone away
# (`unfulfilled_lint_expectations`).
clippy:
    cargo clippy --workspace --all-targets -- -D warnings -F unsafe-code

# Panic-policy gate (DESIGN.md §8.1): library code may not unwrap, expect
# or call a panicking macro on caller-reachable paths, and every lint
# escape hatch is an `#[expect(lint, reason = "...")]` (no bare #[allow]).
# Test code is exempt (--lib builds without cfg(test)), and so are bins,
# benches and integration tests. Every workspace library is gated, a new
# crate included, except the figure harness ftt-bench and the vendored
# rand/proptest shims; the resume paths (snapshot restore, the service
# tick) are library code, so no panic can hide under them.
clippy-unwrap:
    cargo clippy --workspace --exclude ftt-bench --exclude rand --exclude proptest --lib -- \
        -D warnings -D clippy::unwrap_used -D clippy::expect_used \
        -D clippy::panic -D clippy::unreachable -D clippy::todo -D clippy::unimplemented \
        -D clippy::allow_attributes -D clippy::allow_attributes_without_reason

# Static-analysis gate (DESIGN.md §10): ftt-lint's six checks — F1
# float equality, O1 obs naming, W1 workspace consistency, C1
# par-capture determinism, O2 obs schema, E2 cycle accounting — must
# report nothing on the workspace (tests/workspace_clean.rs), and the
# fixture suite pins what each one finds. `just test-all` runs the same
# tests. The panic, unsafe and cast policies are the two clippy recipes
# above; the determinism bans (wall clocks, hash maps, unscoped threads)
# live in clippy.toml and run with `just clippy`.
lint:
    cargo test -q -p ftt-lint

# Root-package tests (end to end and tests/adversarial, DESIGN.md §8.4)
# at ambient thread budgets 1 and MAX (CI's tier1 and test-all jobs cover
# 4, the workflow-wide RRAM_FTT_THREADS). Every check must hold whatever
# budget the process starts with.
budgets:
    RRAM_FTT_THREADS=1 cargo test -q
    RRAM_FTT_THREADS=1024 cargo test -q

# Replay golden: reruns the seeded fault-tolerant run behind
# results/replay.csv (detection campaigns, each followed by the sparing
# pass, the remap search and reprogramming; self-checked against the
# trainer's FlowStats) and fails if the committed CSV changed.
replay-golden:
    cargo run --release -p ftt-bench --bin replay
    git diff --exit-code results/replay.csv

# Tiled-chip walkthrough (DESIGN.md §11): maps an MNIST-sized MLP whose
# layers span many tiles, trains through the tiled chip with sparing
# enabled, and prints the per-tile health report + chip event counts.
tile-demo:
    cargo run --release --example tiled_mnist

# Telemetry walkthrough (DESIGN.md §9): runs the closed-loop flow with all
# sinks attached, verifies the JSONL trace is byte-identical across thread
# budgets and contains every core event kind, then writes
# results/telemetry_trace.jsonl and prints the summary + Prometheus rendering.
obs-demo:
    cargo run --release --example telemetry_trace

# Strategy-arena walkthrough (DESIGN.md §14): races every registered
# fault-tolerance strategy (detect_remap, noop, drop_connect,
# redundant_column) from bit-identical snapshot-cloned chips over the
# reduced density sweep, byte-compares the league table and event trace
# at thread budgets {1, 4, MAX}, then writes results/arena_league.json
# and prints the league table. Drop ARENA_QUICK for the full reference
# sweep.
arena-demo:
    ARENA_QUICK=1 cargo run --release -p ftt-arena --bin arena

# Multi-tenant service walkthrough (DESIGN.md §13): runs the seeded
# reference scenario (2 training tenants + 1 inference tenant over a
# 2-chip fleet, with a burst, a lull, and a spare-pool exhaustion),
# requires the scripted shed, lull campaign and migration all present,
# then writes results/serve_trace.jsonl and results/serve_metrics.prom
# and prints the fingerprints.
serve-demo:
    cargo run --release -p ftt-serve --bin serve_demo

#!/usr/bin/env bash
# Repo gate: build, tests, formatting, lints, static analysis. Run before
# every merge.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline

# Tests, whole workspace (every crate's unit tests plus the root integration
# tests): tolerate exactly the failures already present in the growth seed
# (tests/known_seed_failures.txt) and fail on any NEW failure, so "no worse
# than the seed" is machine-checked rather than eyeballed.
test_log=$(mktemp)
if cargo test -q --offline --workspace --no-fail-fast >"$test_log" 2>&1; then
    echo "ci: all tests pass"
else
    grep -E '^[A-Za-z0-9_:]+ --- FAILED$' "$test_log" | sed 's/ --- FAILED//' | sort -u >"$test_log.failed"
    grep -Ev '^\s*(#|$)' tests/known_seed_failures.txt | sort -u >"$test_log.known"
    new_failures=$(comm -23 "$test_log.failed" "$test_log.known")
    fixed=$(comm -13 "$test_log.failed" "$test_log.known")
    if [[ -n "$new_failures" ]]; then
        echo "ci: NEW test failures (not in tests/known_seed_failures.txt):"
        echo "$new_failures"
        tail -n 100 "$test_log"
        exit 1
    fi
    if [[ ! -s "$test_log.failed" ]]; then
        # cargo test failed but no per-test FAILED lines: build error or
        # harness-level failure — never tolerable.
        echo "ci: cargo test failed without per-test failures (build/harness error)"
        tail -n 100 "$test_log"
        exit 1
    fi
    echo "ci: only known seed failures present:"
    sed 's/^/ci:   /' "$test_log.failed"
    if [[ -n "$fixed" ]]; then
        echo "ci: NOTE: these known failures now pass — remove them from tests/known_seed_failures.txt:"
        echo "$fixed"
    fi
fi
rm -f "$test_log" "$test_log.failed" "$test_log.known"

cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings

# Static-analysis gate: the workspace must lint clean under simlint
# (R1–R11 plus the A1–A3 suppression audit, see DESIGN.md "Static analysis
# & determinism rules"). Any unsuppressed finding fails the gate; the JSON
# report is validated against the mptcp-lint-report/v2 schema so downstream
# tooling can trust it. The lint-diff baseline (tests/lint_baseline.txt)
# additionally pins the per-(rule, file) finding counts *including*
# suppressed ones: a new finding — even one someone annotated — fails until
# the baseline is deliberately refreshed (EXPERIMENTS.md "Lint runbook"),
# while findings that disappear only print a refresh reminder.
cargo build --release --offline -p simlint
mkdir -p results
./target/release/simlint --root . --json results/lint_report.json \
    --baseline tests/lint_baseline.txt
./target/release/simlint --validate results/lint_report.json

# Observability gate: a fast traced scenario must produce a non-empty JSONL
# trace and a schema-valid run report. --strict: "no reports found" must
# fail, not vacuously pass.
cargo build --release --offline -p bench
rm -f results/ci_trace.*.jsonl results/repro_run.json
MPTCP_TRACE=results/ci_trace ./target/release/repro_run scenarios/lossy_backup.json
test -s results/ci_trace.custom.seed11.jsonl
./target/release/validate_report --strict results/repro_run.json

# Orchestration gate: run the quick CI manifest sharded across 2 workers,
# then validate the cross-seed sweep report and every per-job run report.
# --strict: an empty run directory must fail, not vacuously pass. The
# sweep embeds per-job trace digests, so this also re-proves that worker
# scheduling cannot leak into results (the orchestra test suite compares
# --jobs 1/4/8 byte-for-byte; here we just need one sharded run to be
# schema-valid end to end).
cargo build --release --offline -p orchestra
rm -rf results/orchestra/ci-gate
./target/release/orchestra --manifest manifests/ci_quick.json \
    --jobs 2 --run-id ci-gate --quiet
./target/release/validate_report --strict \
    results/orchestra/ci-gate results/orchestra/ci-gate/jobs

# Viz gate: rendering is a pure function of the artifact bytes. Render the
# observability gate's pinned-seed trace twice and require byte-identical
# pages; require the page to be self-contained (no external references);
# and render the orchestra run's sweep explorer to prove the end-to-end
# artifact -> page path stays alive. The golden-digest and --jobs identity
# proofs live in cargo test (tests/viz_timeline.rs, crates/viz); this gate
# re-checks the shipped binary on fresh artifacts.
cargo build --release --offline -p viz
./target/release/viz trace results/ci_trace.custom.seed11.jsonl \
    --out results/ci_trace.a.html
./target/release/viz trace results/ci_trace.custom.seed11.jsonl \
    --out results/ci_trace.b.html
cmp results/ci_trace.a.html results/ci_trace.b.html
if grep -qE 'http://|https://|file://|<script' results/ci_trace.a.html; then
    echo "ci: viz page is not self-contained (external reference or script)"
    exit 1
fi
rm -f results/ci_trace.a.html results/ci_trace.b.html
./target/release/viz sweep results/orchestra/ci-gate
test -s results/orchestra/ci-gate/index.html

# Chaos gate: a fixed-budget fuzz campaign (pinned seed, 200 generated
# fault schedules) must finish with ZERO invariant violations on this tree,
# and its mptcp-chaos-report/v1 artifact must validate. The checked-in
# minimal-repro fixtures are replayed by `cargo test` above
# (tests/chaos_repros.rs); this gate searches fresh schedules instead, so
# a regression in failover/recovery behaviour fails CI even before anyone
# writes a test for it.
cargo build --release --offline -p chaos
rm -rf results/chaos/ci-gate
./target/release/chaos campaign --seed 1105 --iterations 200 --jobs 4 \
    --out results/chaos/ci-gate
./target/release/validate_report --strict results/chaos/ci-gate

# Perf gate: timing-free, so machine-independent. perf_check recomputes the
# pinned trace digests of eight perf recipes (Scenario B, k=4 FatTree, path
# flap, k=16 FatTree permutation, flow-engine churn, and the flow engine's
# exact-validation k=8 permutation for OLIA, LIA and Reno) byte for byte, and
# holds the install-step bytes per connection (k=16) and per flow (churn)
# within 1.25x of their recorded values. Goldens are constants in the
# binary; wall-clock performance is the perfbench benchmark's job.
./target/release/perf_check

# Benchmark equivalence gate: perfbench's workloads must keep reproducing
# the library recipes they time (one-shot == stepped runs, Scenario B's
# pinned digest, bench::fattree::heavytail_churn_in and
# flowsim::fattree::heavytail_churn).
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Flow-backend gate: the flow-level simulator must keep agreeing with the
# packet simulator (scenarios A/B/C and the k=8 FatTree, every headline
# metric within the ±10% tolerance documented in DESIGN.md "Flow-level
# backend"). The cross-validation tests are release-only (#[ignore] in
# debug) because the packet runs take minutes unoptimized.
cargo test --release --offline --test flow_crossval -- --include-ignored

echo "ci: all gates passed"

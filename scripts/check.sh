#!/usr/bin/env bash
# Repo health gate: formatting, lints, and the tier-1 build/test cycle.
# Run from the repo root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Each section() call marks the previous one passed; on GitHub runners
# the trap renders the ledger as a markdown table on the job summary
# page, with the in-flight section flagged when the script dies early.
current_section=""
summary_rows=""
section() {
  if [[ -n "$current_section" ]]; then
    summary_rows+="| ${current_section} | ✅ pass |"$'\n'
  fi
  current_section="$1"
  echo "== $1 =="
}
finish() {
  local code=$?
  if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
      echo "### Health gate (check.sh)"
      echo
      echo "| section | result |"
      echo "|---------|--------|"
      printf '%s' "$summary_rows"
      if [[ -n "$current_section" ]]; then
        if [[ $code -eq 0 ]]; then
          echo "| ${current_section} | ✅ pass |"
        else
          echo "| ${current_section} | ❌ fail |"
        fi
      fi
    } >>"$GITHUB_STEP_SUMMARY"
  fi
}
trap finish EXIT

section "cargo fmt --check"
cargo fmt --check

section "cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

section "tier-1: release build + root test suite"
cargo build --release
cargo test -q

section "workspace: every crate's unit and integration tests (release)"
# crate-level suites (core::parallel's ShardPlan/FaultPlan/Heartbeats/
# ring units, serve's engine tests, tensor/model/optim properties, ...)
# that the root suite above does not reach
cargo test --workspace --release -q

section "perfbench: the repository benchmark's own tests (release)"
# perfbench is a workspace of its own that builds against GptModel::loss,
# Trainer and Engine; its tests catch an API break before a bench run
cargo test --release --offline --manifest-path perfbench/Cargo.toml

section "fault-tolerance: checkpoint-restart + failure injection"
cargo test -q --test fault_tolerance
# corruption properties get a deeper sweep than the proptest default —
# the v2 section region (optimizer state, cursor, curves) is what the
# resilience rollback path trusts
PROPTEST_CASES=512 cargo test -q -p matgpt-tensor --test checkpoint_corruption

section "resilience: executed fault tolerance (kill/stall/elastic re-shard)"
cargo test -q --test resilience
# the seeded chaos matrix (MATGPT_CHAOS_SEED ∈ {3, 11, 1337}) runs as
# CI matrix entries alongside the topology grid; see ci.yml
cargo run --release -q -p matgpt-bench --bin ext_resilience -- --smoke

section "observability: matgpt-obs suite + unified-trace smoke gate"
cargo test -q -p matgpt-obs
rm -f target/obs/trace.json
# the binary self-validates (exits non-zero on an invalid/empty trace
# or missing metric families); re-check the artifact here anyway
cargo run --release -q -p matgpt-bench --bin ext_observability -- --smoke
# re-validate the artifacts from disk (no python needed: the validator
# is the same chrome::validate / prom::parse code the repo ships)
cargo run --release -q -p matgpt-bench --bin ext_observability -- --validate
# fault postmortem end-to-end: seeded kill → flight-recorder dump →
# bundle re-validated from disk (victim flagged, flow arrows complete)
cargo run --release -q -p matgpt-bench --bin ext_obs_flight -- --postmortem --smoke
# critical-path attribution: injected straggler identified, phase order
# agrees with the simulated Fig. 9 timeline
cargo test -q -p matgpt-bench --test obs_critical_path

section "quantization: int8 decode acceptance gates (smoke scale)"
cargo run --release -q -p matgpt-bench --bin ext_quant -- --smoke

section "parallelism: DP/ZeRO-1 + executed TP/PP acceptance gates (smoke scale)"
cargo test -q --test parallelism
cargo run --release -q -p matgpt-bench --bin ext_parallel -- --smoke
# executed tensor/pipeline parallelism: TP compute partition, Fig. 11
# histogram agreement, 1F1B bitwise check (the {dp,tp,pp} grid sweep
# runs as CI matrix entries; see ci.yml)
cargo run --release -q -p matgpt-bench --bin ext_tp -- --smoke

section "paged KV: bit-identical backends + pool invariants + smoke bench"
cargo test -q --test paged_kv
cargo run --release -q -p matgpt-bench --bin ext_paged_bench -- --smoke

section "speculative decoding: bit-identity proptests + smoke bench"
cargo test -q --test speculative
cargo run --release -q -p matgpt-bench --bin ext_spec -- --smoke

echo "All checks passed."

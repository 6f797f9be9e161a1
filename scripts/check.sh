#!/usr/bin/env bash
# The full pre-merge gate: format, lints, build, docs, tests.
# Runs every step even after a failure and reports all failures at the end,
# so one iteration surfaces everything that needs fixing.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=()
step() {
  local name=$1
  shift
  echo "==> ${name}: $*"
  if ! "$@"; then
    failed+=("${name}")
  fi
}

# An experiment must be seed-deterministic: the same `repro <name>` sweep
# at two worker counts must emit byte-identical results. The manifest
# header records wall times, so compare from "result" down. `sched` guards
# the probe cache shared by the scheduling and serving engines; `serve`
# guards the serving loop on top of it.
jobs_determinism() {
  local name=$1 dir=target/${1}-determinism out1 out2
  rm -rf "${dir}" && mkdir -p "${dir}/j1" "${dir}/j2"
  ./target/release/repro "${name}" --quick --jobs 1 --metrics-out "${dir}/j1" >/dev/null || return 1
  ./target/release/repro "${name}" --quick --jobs 2 --metrics-out "${dir}/j2" >/dev/null || return 1
  out1=$(sed -n '/"result"/,$p' "${dir}/j1/${name}.json")
  out2=$(sed -n '/"result"/,$p' "${dir}/j2/${name}.json")
  [[ -n ${out1} ]] && diff <(echo "${out1}") <(echo "${out2}")
}

# The perfbench digests must match the committed reference
# (scripts/perfbench-digests.txt). `--seconds 0` runs one iteration of
# each workload: about 15 s in all.
perfbench_digests() {
  local run workload seed
  diff <(grep -v '^#' scripts/perfbench-digests.txt) <(
    for run in "model_pipeline 1" "mc_policies 1" "serve_online 1" "serve_online 2"; do
      read -r workload seed <<<"${run}"
      cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "${workload}" --seed "${seed}" --seconds 0 --trace 0 | grep '^digest '
    done
  )
}

# The committed model-accuracy baseline (ACCURACY_<host>_<date>.json,
# DESIGN.md §12) must exist and satisfy the pccs-accuracy/v1 schema.
accuracy_baseline() {
  local f found=0
  for f in ACCURACY_*.json; do
    [[ -e ${f} ]] || break
    found=1
    ./target/release/pccs audit --validate "${f}" || return 1
  done
  if ((!found)); then
    echo "no committed ACCURACY_*.json baseline at the repo root" >&2
    return 1
  fi
}

# Every workspace crate must appear in the rustdoc output; a crate missing
# from target/doc means it fell out of the doc build (e.g. dropped from the
# workspace members) without anyone noticing.
doc_complete() {
  local missing=0 name found candidate
  for manifest in crates/*/Cargo.toml; do
    # Binary-only crates are documented under their [[bin]] name, not the
    # package name, so accept any name declared in the manifest.
    found=0
    while IFS= read -r name; do
      candidate="target/doc/${name//-/_}"
      [[ -d ${candidate} ]] && found=1
    done < <(sed -n 's/^name = "\(.*\)"/\1/p' "${manifest}")
    if ((!found)); then
      echo "crate $(dirname "${manifest}") missing from target/doc" >&2
      missing=1
    fi
  done
  return "${missing}"
}

step fmt    cargo fmt --all -- --check
step clippy cargo clippy --workspace --all-targets -- -D warnings
step build  cargo build --release --workspace
step lint   ./target/release/pccs lint --root .
# Workspace-rule smoke: the full two-phase analysis via the CLI (symbol
# index + cross-file rules), restricted to workspace scope so a clean
# tree proves the dead-pub/drift/cycle/expiry/stale-waiver rules pass.
step lint-workspace ./target/release/pccs lint --scope workspace
# Diff-aware smoke: `pccs lint --changed` must run end to end against
# the previous commit (its findings are a subset of the full run).
step lint-changed ./target/release/pccs lint --changed HEAD~1
step sched-smoke ./target/release/pccs sched --quick
# Serving smoke: the online loop must run end to end under the greedy
# policy (pccs-policy calibration is exercised by the repro sweep below).
step serve-smoke ./target/release/pccs serve --quick --policy greedy
step sched-determinism jobs_determinism sched
step serve-determinism jobs_determinism serve
# Repro smoke also exports a Perfetto trace, validated below.
step repro-smoke ./target/release/repro oblivious --quick --jobs 2 \
  --trace-out target/trace-smoke.json
# Trace smoke: the exported trace must be structurally sound with the
# nesting depth and counter coverage DESIGN.md §9 promises.
step trace-check ./target/release/pccs trace-check --file target/trace-smoke.json \
  --min-depth 3 --min-counters 10
# The repository benchmark is a workspace of its own, so the build step
# above never compiles it; its tests catch a crate API change that breaks
# it before the benchmark itself is run.
step perfbench-test cargo test --offline --manifest-path perfbench/Cargo.toml
step perfbench-digests perfbench_digests
# Audit smoke: a quick `pccs audit` must replay the validation figures
# with the prediction-audit ledger on and produce a schema-valid
# ACCURACY_*.json (the CLI validates before writing, and run_accuracy
# asserts the ledger MAE matches each figure's headline error).
step audit-smoke ./target/release/pccs audit --quick --out target/ACCURACY_smoke.json
# The committed accuracy baseline must pass schema validation.
step accuracy-baseline accuracy_baseline
# Conformance smoke: a short co-run with the DDR protocol sanitizer
# attached must replay with zero JEDEC timing violations.
step conformance-smoke ./target/release/pccs corun --soc xavier --pu GPU \
  --bench streamcluster --quick --conformance
# A broken intra-doc link is an error, not a warning: a rename or deletion
# must carry its rustdoc references along.
step doc    env RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc --no-deps --workspace
step doc-complete doc_complete
step test   cargo test --release --workspace

if ((${#failed[@]})); then
  echo "FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "all checks passed"

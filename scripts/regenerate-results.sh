#!/usr/bin/env bash
# Regenerates the reference outputs stored under results/.
# Full fidelity: the repro step alone took 2 min 58 s on a 2-vCPU VM
# (all cores, i.e. --jobs 2); the audit refresh comes on top.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p pccs-experiments -p pccs-cli
./target/release/repro --curves --metrics-out results/json all | tee results/repro-output.txt
echo "results written to results/"

# Refresh the committed model-accuracy baseline (ACCURACY_<host>_<date>.json
# at the repo root; full validation-figure sweeps — see DESIGN.md §12).
./target/release/pccs audit
echo "accuracy baseline refreshed"

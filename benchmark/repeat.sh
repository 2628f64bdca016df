#!/usr/bin/env bash
# Runs the full benchmark twice with one seed and compares the two runs:
# per workload and end-to-end metric it prints both values, their relative
# difference and the metric's bound, and it fails on any difference beyond
# a bound, on any "exact" per-layer count that differs, and on any answers
# digest that differs.
#
#   benchmark/repeat.sh [seed]        (default 42; about 4 minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
bench=(cargo run --release --quiet --manifest-path benchmark/Cargo.toml --)
mkdir -p benchmark/out
for n in 1 2; do
    echo "== run $n of 2, seed $seed"
    "${bench[@]}" run --seed "$seed" --out "benchmark/out/repeat-$n" | tee "benchmark/out/repeat-$n.txt" | grep ' e2e \|^check \|^all answers\|^WRONG'
done
"${bench[@]}" compare benchmark/out/repeat-1.txt benchmark/out/repeat-2.txt

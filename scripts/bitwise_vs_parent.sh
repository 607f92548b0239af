#!/usr/bin/env bash
# Checks that the working tree trains, evaluates and prices bit for bit
# like a git revision, through the public surface:
#
#   * the stdout of the five examples and the eight figure and table bins,
#     with ARD_FAST=1, on both trees;
#   * the four training examples on the working tree under
#     TENSOR_THREADS=1, TENSOR_SIMD=0 and TENSOR_SIMD=avx2, against the
#     working tree's default run (which is itself compared with the
#     revision's, so a change that moves training is named once per
#     example and its thread and SIMD invariance is still checked);
#   * perfbench's `final_loss` for `mlp_train` and `lm_train` at seeds 1
#     and 2 (`--seconds 1`, so the op count is fixed; the `--trace 1` run
#     must also pass its correctness gates), on both trees.
#
# Usage: scripts/bitwise_vs_parent.sh [REV]     (REV defaults to HEAD)
#
# The revision is extracted with `git archive` into a temporary directory
# and built there; the working tree builds into its usual `target/` and
# `perfbench/target/`. Prints each output that differs and exits nonzero
# if any does.
set -euo pipefail

rev="${1:-HEAD}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
base="$tmp/rev"
out="$tmp/out"
mkdir -p "$base" "$out"
git -C "$root" archive "$rev" | tar -x -C "$base"
# Each tree builds into its own target directories.
unset CARGO_TARGET_DIR

examples=(quickstart mlp_mnist lstm_language_model transformer_encoder gpu_speedup_model)
training=(quickstart mlp_mnist lstm_language_model transformer_encoder)
bins=(algorithm1_distribution fig1b_divergence_motivation fig4_mlp_dropout_rates
    fig5_convergence_curve fig6a_ptb_sweep fig6b_batch_size_sweep
    table1_network_sizes table2_lstm_dictionary)

build() {
    (
        cd "$1"
        cargo build --release --offline -q --examples
        cargo build --release --offline -q -p bench --bins
        cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
    )
}

# run TREE NAME EXE [ENV...]: runs EXE in TREE with ARD_FAST=1 and the
# extra environment, keeping its stdout as $out/NAME.
run() {
    local tree="$1" name="$2" exe="$3"
    shift 3
    (cd "$tree" && env ARD_FAST=1 "$@" "$exe" > "$out/$name")
}

echo "building $rev in $base"
build "$base"
echo "building the working tree"
build "$root"

for side in rev work; do
    tree="$base"
    [ "$side" = work ] && tree="$root"
    for ex in "${examples[@]}"; do
        echo "running $side example $ex"
        run "$tree" "$side.$ex" "target/release/examples/$ex"
    done
    for bin in "${bins[@]}"; do
        echo "running $side bin $bin"
        run "$tree" "$side.$bin" "target/release/$bin"
    done
done
for ex in "${training[@]}"; do
    echo "running work example $ex at one thread, scalar and avx2"
    run "$root" "work.$ex.threads1" "target/release/examples/$ex" TENSOR_THREADS=1
    run "$root" "work.$ex.scalar" "target/release/examples/$ex" TENSOR_SIMD=0
    run "$root" "work.$ex.avx2" "target/release/examples/$ex" TENSOR_SIMD=avx2
done

differ=()
same() {
    if ! cmp -s "$out/$1" "$out/$2"; then
        differ+=("$2")
    fi
}
for name in "${examples[@]}" "${bins[@]}"; do
    same "rev.$name" "work.$name"
done
for ex in "${training[@]}"; do
    for variant in threads1 scalar avx2; do
        same "work.$ex" "work.$ex.$variant"
    done
done

# perfbench's final_loss on TREE for WORKLOAD at SEED, or nothing if the
# traced run fails its own gates (among them, that the traced run repeats
# its untraced twin's final_loss bit for bit). The traced JSON holds only
# per-layer metrics, so the value comes from an untraced run of the same
# op count, whose JSON prints it as the shortest decimal that round-trips
# the f64: equal text is equal bits. An untraced 1 s lm_train run exits
# nonzero because its 8 ops measure no latency tail, but it still prints
# its loss.
final_loss() {
    local exe=perfbench/target/release/perfbench
    local args=(--workload "$2" --seed "$3" --seconds 1)
    (cd "$1" && "$exe" "${args[@]}" --trace 1 > /dev/null) || return 0
    (cd "$1" && "$exe" "${args[@]}" --trace 0 || true) |
        tail -n 1 | grep -o '"final_loss": {"value": [^,]*' | sed 's/.*: //' || true
}
for workload in mlp_train lm_train; do
    for seed in 1 2; do
        echo "running perfbench $workload seed $seed on both trees"
        a="$(final_loss "$base" "$workload" "$seed")"
        b="$(final_loss "$root" "$workload" "$seed")"
        echo "  final_loss $rev ${a:-none}, working tree ${b:-none}"
        if [ -z "$a" ] || [ "$a" != "$b" ]; then
            differ+=("perfbench $workload seed $seed final_loss")
        fi
    done
done

if [ "${#differ[@]}" -gt 0 ]; then
    echo "differs from $rev:"
    printf '  %s\n' "${differ[@]}"
    exit 1
fi
echo "every output is identical to $rev"

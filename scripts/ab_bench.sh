#!/usr/bin/env bash
# A/B the repo benchmark between a base revision and this checkout.
#
#   scripts/ab_bench.sh [--smoke] BASE_REV WORKLOAD [PAIRS=10]
#
# Both sides are copied out of this repository (the base with
# `git archive BASE_REV`, the change from the files of the working tree,
# committed or not) into $AB_DIR (default: a fresh directory under
# ${TMPDIR:-/tmp}), built once each, and then the two binaries run
# WORKLOAD in PAIRS pairs, alternating which side goes first. Each run's
# result line is kept ($AB_DIR/runs/), and for every end-to-end metric of
# BENCHMARK.json the script prints how many pairs the change won, each
# side's median and quartiles, and a verdict by the rule of the
# choosing-metrics guide (section 8):
#
#   gain        the change won at least nine tenths of the pairs (ties
#               count for neither) and the medians differ by more than the
#               distance between the base's own quartiles
#   worse       the change's median is worse than the base's by more than
#               the metric's bound
#   unresolved  a side's quartiles are further apart than the bound
#   within      none of the above
#
# SEED=N in the environment picks the workload seed (default 1; a claim
# should also hold on a seed not used while the change was written).
# --smoke runs one pair at the benchmark's own --smoke length: it shows
# the script works, the numbers mean nothing. Exit status: 0 unless a
# build or a run fails (a run that reports `"correct": false` fails).
set -euo pipefail

smoke=()
if [ "${1:-}" = "--smoke" ]; then
    smoke=(--smoke)
    shift
fi
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
[ ${#smoke[@]} -eq 0 ] || pairs=1
case $pairs in
'' | *[!0-9]* | 0)
    echo "ab_bench: PAIRS must be a positive number, got '$pairs'" >&2
    exit 2
    ;;
esac

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
ab_dir=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")}
mkdir -p "$ab_dir/base" "$ab_dir/change" "$ab_dir/runs"
echo "ab_bench: $base_rev vs working tree of $repo, $workload, $pairs pair(s), in $ab_dir"

git -C "$repo" archive "$base_rev" | tar -x -C "$ab_dir/base"
(cd "$repo" && git ls-files -coz --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -x -C "$ab_dir/change"

for side in base change; do
    echo "ab_bench: building $side"
    CARGO_TARGET_DIR="$ab_dir/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$ab_dir/$side/benchmark/Cargo.toml"
done

# One run; the result is the last line the binary prints.
run() { # side pair
    local out="$ab_dir/runs/$2-$1.json"
    (cd "$ab_dir/$1" && "$ab_dir/$1-target/release/benchmark" \
        --workload "$workload" --seed "${SEED:-1}" --trace 0 "${smoke[@]}") | tail -n 1 >"$out"
    if ! grep -q '"correct": true' "$out"; then
        echo "ab_bench: $1 run $2 did not end correct: $(cat "$out")" >&2
        exit 1
    fi
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order=(base change); else order=(change base); fi
    for side in "${order[@]}"; do
        echo "ab_bench: pair $pair/$pairs, $side"
        run "$side" "$pair"
    done
done

# metric better bound, from the contract.
metrics=$(tr -d '\n' <"$repo/BENCHMARK.json" |
    sed 's/.*"end_to_end": *\[\([^]]*\)\].*/\1/' | tr '}' '\n' |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p')

value() { # file metric
    sed -n "s/.*\"$2\": {\"value\": \([-0-9.eE+]*\).*/\1/p" "$1"
}

printf '\n%-12s %5s  %-34s %-34s %s\n' metric wins 'base q1/median/q3' 'change q1/median/q3' verdict
while read -r metric better bound; do
    for pair in $(seq 1 "$pairs"); do
        echo "$(value "$ab_dir/runs/$pair-base.json" "$metric") $(value "$ab_dir/runs/$pair-change.json" "$metric")"
    done | awk -v metric="$metric" -v better="$better" -v bound="$bound" '
        function quartile(v, n, q,   pos, lo) {   # linear interpolation
            pos = 1 + (n - 1) * q; lo = int(pos)
            return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        function sorted(src, dst, n,   i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
            }
        }
        { n++; a[n] = $1; b[n] = $2
          if (better == "lower" ? $2 < $1 : $2 > $1) wins++ }
        END {
            sorted(a, sa, n); sorted(b, sb, n)
            am = quartile(sa, n, .5); bm = quartile(sb, n, .5)
            aiqr = quartile(sa, n, .75) - quartile(sa, n, .25)
            biqr = quartile(sb, n, .75) - quartile(sb, n, .25)
            gain = better == "lower" ? am - bm : bm - am
            verdict = "within"
            if (aiqr > bound * am || biqr > bound * bm) verdict = "unresolved"
            if (-gain > bound * am) verdict = "worse"
            if (wins >= 0.9 * n && gain > aiqr) verdict = "gain"
            printf "%-12s %2d/%-2d  %-34s %-34s %s\n", metric, wins, n,
                sprintf("%.4g / %.4g / %.4g", quartile(sa, n, .25), am, quartile(sa, n, .75)),
                sprintf("%.4g / %.4g / %.4g", quartile(sb, n, .25), bm, quartile(sb, n, .75)),
                verdict
        }'
done <<<"$metrics"

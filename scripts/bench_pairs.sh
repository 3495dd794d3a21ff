#!/bin/sh
# Alternating parent/change pairs of one perfbench workload.
#
# usage: scripts/bench_pairs.sh <parent-rev> <workload> <pairs> <seconds> <seed>
#
#   scripts/bench_pairs.sh HEAD~1 stream_checked 10 35 1
#
# Exports two trees with `git archive` into .bench_build/ (gitignored):
# the parent, <parent-rev>, and the change, the working tree's tracked
# files (staged new files included; `git stash create` snapshots them
# without touching any ref) or HEAD when the tree is clean. It builds
# perfbench in each, then runs <pairs> pairs, each run
# `--workload <workload> --seconds <seconds> --seed <seed> --trace 0`.
# Odd pairs run the parent first, even pairs the change. The host's
# speed drifts over minutes, so only runs in one pair are compared with
# each other.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's
# median and quartiles over the pairs (Python's exclusive method, as
# perfbench uses, clamped at the ends) and the change's win count:
# pairs in which the change is strictly better in the metric's
# direction. A gain is "clear" when
# the change also wins at least 9 in 10 pairs and the gap between the
# medians exceeds the parent's interquartile range.
#
# The last stdout line of every run is kept in .bench_build/runs/.
# Exit code: 0, or 1 when a build failed or any run did not report
# `"correct": true`.
set -eu

if [ "$#" -ne 5 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <seconds> <seed>" >&2
    exit 2
fi
parent_rev=$1
workload=$2
pairs=$3
seconds=$4
seed=$5

root=$(git rev-parse --show-toplevel)
cd "$root"
build="$root/.bench_build"
change_rev=$(git stash create)
[ -n "$change_rev" ] || change_rev=HEAD
parent_id=$(git rev-parse --short "$parent_rev")
change_id=$(git rev-parse --short "$change_rev")

export_tree() { # <rev> <dir>
    rm -rf "$2"
    mkdir -p "$2"
    git archive "$1" | tar -x -C "$2"
    cargo build --release --offline --quiet --manifest-path "$2/perfbench/Cargo.toml"
}

echo "parent $parent_id, change $change_id: building perfbench in $build" >&2
export_tree "$parent_rev" "$build/parent"
export_tree "$change_rev" "$build/change"
runs="$build/runs"
rm -rf "$runs"
mkdir -p "$runs"

status=0
i=1
while [ "$i" -le "$pairs" ]; do
    order="parent change"
    [ $((i % 2)) -eq 1 ] || order="change parent"
    for side in $order; do
        out="$runs/$side-$i.json"
        (cd "$build/$side" && ./perfbench/target/release/perfbench \
            --workload "$workload" --seconds "$seconds" --seed "$seed" --trace 0) \
            | tail -n 1 >"$out" || true
        if ! grep -q '"correct": true' "$out"; then
            echo "pair $i: $side run failed" >&2
            status=1
        fi
    done
    echo "pair $i of $pairs done" >&2
    i=$((i + 1))
done

# One line per (side, pair, metric, value) from the metrics JSON, then
# the summary; BENCHMARK.json supplies each metric's direction.
for f in "$runs"/*.json; do
    side=${f##*/}
    pair=${side#*-}
    pair=${pair%.json}
    side=${side%%-*}
    awk -v side="$side" -v pair="$pair" '{
        s = $0
        sub(/.*"metrics": [{]/, "", s)
        while (match(s, /"[a-z_.]+": [{]"value": [-0-9.eE+]+/)) {
            m = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            name = m
            sub(/^"/, "", name)
            sub(/".*/, "", name)
            sub(/.*"value": /, "", m)
            print side, pair, name, m
        }
    }' "$f"
done | awk -v workload="$workload" -v pairs="$pairs" -v bench="$root/BENCHMARK.json" \
    -v parent="$parent_id" -v change="$change_id" '
    function quartile(arr, n, q,    pos, lo) {
        pos = q * (n + 1)
        if (pos <= 1) return arr[1]
        if (pos >= n) return arr[n]
        lo = int(pos)
        return arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo])
    }
    function sorted(side, name, out,    k, n, i, j, t) {
        split("", out)
        n = 0
        for (k = 1; k <= pairs; k++)
            if ((side, k, name) in v) out[++n] = v[side, k, name]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && out[j - 1] > out[j]; j--) {
                t = out[j]; out[j] = out[j - 1]; out[j - 1] = t
            }
        return n
    }
    BEGIN {
        in_e2e = 0
        while ((getline line < bench) > 0) {
            if (line ~ /"end_to_end"/) in_e2e = 1
            else if (line ~ /"per_layer"/) in_e2e = 0
            if (in_e2e && match(line, /"name": "[a-z_.]+"/)) {
                name = substr(line, RSTART + 9, RLENGTH - 10)
                order[++metrics] = name
                better[name] = (line ~ /"better": "higher"/) ? 1 : -1
            }
        }
    }
    { v[$1, $2, $3] = $4 + 0 }
    END {
        printf "%s, %d pairs, parent %s vs change %s\n", workload, pairs, parent, change
        printf "%-18s %14s %14s %14s   %14s %14s %14s   %6s  %s\n", "metric", \
            "parent_q1", "parent_med", "parent_q3", "change_q1", "change_med", "change_q3", \
            "wins", "verdict"
        for (m = 1; m <= metrics; m++) {
            name = order[m]
            np = sorted("parent", name, p)
            nc = sorted("change", name, c)
            if (np == 0 || nc == 0) continue
            wins = 0
            for (k = 1; k <= pairs; k++)
                if ((("parent", k, name) in v) && (("change", k, name) in v) && \
                    (v["change", k, name] - v["parent", k, name]) * better[name] > 0) wins++
            pm = quartile(p, np, 0.5); cm = quartile(c, nc, 0.5)
            iqr = quartile(p, np, 0.75) - quartile(p, np, 0.25)
            gap = (cm - pm) * better[name]
            verdict = "within spread"
            if (gap > iqr && wins * 10 >= 9 * pairs) verdict = "clear gain"
            else if (-gap > iqr) verdict = "worse"
            else if (gap == 0 && iqr == 0) verdict = "identical"
            printf "%-18s %14.6g %14.6g %14.6g   %14.6g %14.6g %14.6g   %3d/%-2d  %s", name, \
                quartile(p, np, 0.25), pm, quartile(p, np, 0.75), \
                quartile(c, nc, 0.25), cm, quartile(c, nc, 0.75), wins, pairs, verdict
            if (pm != 0) printf " (%+.1f%%)", (cm - pm) / pm * 100
            printf "\n"
        }
    }'
exit "$status"

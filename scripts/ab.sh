#!/usr/bin/env bash
# A/B a performance claim the way the choosing-metrics guide (§8) asks:
# the parent revision and the working tree run the repository's one
# benchmark as alternating pairs, on the default seed and on the held-out
# seed, and every end-to-end metric is judged by the pair rule.
#
#   scripts/ab.sh <parent-rev> <workload> [pairs=10]
#
# The parent is exported (`git archive`) into .bench_build/ab/<rev> —
# already git-ignored — and built there by its own benchmark/run.sh, so
# both sides run identical benchmark code paths: the one each revision
# committed. Nothing under benchmark/ is edited on either side.
#
# Per seed and metric the table prints each side's median and quartiles,
# how many pairs the change won (ties count for neither side), and the
# verdict:
#   gain        change won >= 9/10 of the pairs and the medians differ by
#               more than the parent's own interquartile distance
#   regression  the change's median is worse than the parent's by more
#               than the metric's bound in BENCHMARK.json
#   unresolved  the parent's interquartile distance alone exceeds that
#               bound, so the runs cannot tell
#   same        none of the above
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: scripts/ab.sh <parent-rev> <workload> [pairs=10]" >&2
    exit 2
fi

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"
rev="$(git rev-parse --verify "$1^{commit}")"
workload="$2"
pairs="${3:-10}"
seeds=(20250925 7741)

parent="$repo/.bench_build/ab/$rev"
if [[ ! -d "$parent" ]]; then
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
fi

# One run of one side; prints the result line (the last line of stdout).
run_side() { # <checkout> <seed>
    (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" \
        --seconds 20 --trace 0 | tail -n 1)
}

# Build both sides before anything is timed: run.sh builds first, then
# the binary refuses `--seconds 0` without running anything.
echo "ab: building parent ${rev:0:12} and the working tree" >&2
for dir in "$parent" "$repo"; do
    (cd "$dir" && bash benchmark/run.sh --seconds 0 >/dev/null 2>&1) || true
done

out="$(mktemp -d "$repo/.bench_build/ab/run.XXXXXX")"
trap 'rm -rf "$out"' EXIT

for seed in "${seeds[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        # Alternate which side runs first.
        if ((i % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            if [[ $side == parent ]]; then dir="$parent"; else dir="$repo"; fi
            line="$(run_side "$dir" "$seed")"
            echo "$line" >>"$out/$seed.$side"
            echo "ab: seed $seed pair $i/$pairs $side: $(grep -o '"failed": [0-9]*' <<<"$line") $(grep -o '"op_ms_p50": {"value": [0-9.]*' <<<"$line")" >&2
        done
    done
done

# name better bound, one metric per line, from the benchmark's contract.
metrics="$(sed -n 's/.*{"name": "\([a-z_0-9]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3/p' BENCHMARK.json)"

for seed in "${seeds[@]}"; do
    echo
    echo "workload $workload  seed $seed  pairs $pairs  parent ${rev:0:12}"
    printf '%-14s %-38s %-38s %-7s %s\n' metric 'parent q1/median/q3' 'change q1/median/q3' wins verdict
    while read -r name better bound; do
        for side in parent change; do
            grep -o "\"$name\": {\"value\": [0-9.eE+-]*" "$out/$seed.$side" |
                sed 's/.*: //' >"$out/$seed.$side.$name"
        done
        paste "$out/$seed.parent.$name" "$out/$seed.change.$name" |
            awk -v name="$name" -v better="$better" -v bound="$bound" '
            function quantile(a, n, p,    h, lo) {
                h = (n - 1) * p; lo = int(h)
                return lo + 1 >= n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                    t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                }
            }
            { n++; p[n] = $1; c[n] = $2
              if (better == "lower" ? $2 < $1 : $2 > $1) wins++
            }
            END {
                sorted(p, ps, n); sorted(c, cs, n)
                pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
                iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
                delta = better == "lower" ? pm - cm : cm - pm   # > 0: change better
                verdict = "same"
                if (wins >= 0.9 * n && delta > iqr) verdict = "gain"
                else if (pm > 0 && -delta / pm > bound) verdict = "regression"
                else if (pm > 0 && iqr / pm > bound) verdict = "unresolved"
                printf "%-14s %-38s %-38s %-7s %s (median %+.1f%%)\n", name,
                    sprintf("%.4g/%.4g/%.4g", quantile(ps, n, 0.25), pm, quantile(ps, n, 0.75)),
                    sprintf("%.4g/%.4g/%.4g", quantile(cs, n, 0.25), cm, quantile(cs, n, 0.75)),
                    (wins + 0) "/" n, verdict, (pm > 0 ? 100 * (cm - pm) / pm : 0)
            }'
    done <<<"$metrics"
    for side in parent change; do
        failed="$(grep -o '"failed": [0-9]*' "$out/$seed.$side" | awk '{s += $2} END {print s + 0}')"
        echo "failed ops, $side: $failed"
    done
done

#!/bin/bash
# Paired A/B comparison of two git revisions on the repository benchmark
# (BENCHMARK.json).
#
#   scripts/ab.sh [--pairs N] [--seed S] [--workload W]... <base> [<head>]
#   scripts/ab.sh --selftest
#
# Builds each revision with `--offline` in a git worktree under target/ab/
# (removed on exit), then, per workload, runs N pairs (default 10) of
# BENCHMARK.json's command for its `run_seconds` each. Pair i runs both
# sides on seed S+i (default S=1); the base runs first on even pairs and
# the head on odd ones. Per workload and end-to-end metric it prints each
# side's median [q1-q3], the relative change of the medians, the pairs the
# head won (ties count for neither) and the verdict against the metric's
# `bound`; "gain" marks a metric the head won in at least nine tenths of
# the pairs, with medians further apart than the base's interquartile
# range. It exits 1 when a head median is worse than its bound, when any
# run printed `"correct": false` or no result line, or when the head
# failed a larger share of its operations than the base.
#
# `<head>` defaults to HEAD; `git stash create` names uncommitted work.
# Engine threads follow RAYON_NUM_THREADS as the benchmark documents.
# Every run's result line is appended to target/ab/results.tsv. The
# benchmark and BENCHMARK.json are read, never changed.
#
# --selftest checks the statistics and verdicts on canned result lines,
# without building or running anything. Needs bash, git, jq and awk.
set -euo pipefail
cd "$(dirname "$0")/.."

# report <spec.json> <results.tsv>: prints the comparison table of the
# result lines (`workload<TAB>pair<TAB>side<TAB>json`, side base or head)
# against the spec's end-to-end metrics; returns 1 on a failed verdict.
report() {
    local metrics
    metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$1")
    jq -Rr 'split("\t") as [$w, $p, $s, $j] | ($j | fromjson? // {}) as $r
        | "\($w) \($s) \($p) #correct \(if $r.correct == true then 1 else 0 end)",
          "\($w) \($s) \($p) #attempted \($r.attempted // 0)",
          "\($w) \($s) \($p) #failed \($r.failed // 0)",
          ($r.metrics // {} | to_entries[] | "\($w) \($s) \($p) \(.key) \(.value.value)")' "$2" |
        awk -v metrics="$metrics" '
        function sort(a, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Median (mean of the middle two) and nearest-rank quartiles of
        # the values of key k, as geobench computes its own statistics.
        function stats(k,   n, i, a) {
            n = 0
            for (i = 1; i <= npairs; i++) if ((k, i) in val) a[++n] = val[k, i] + 0
            if (n == 0) return 0
            sort(a, n)
            med = (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
            q1 = a[rank(25, n)]; q3 = a[rank(75, n)]
            return n
        }
        function rank(p, n,   r) { r = int(p * n / 100); if (r < p * n / 100) r++; return r < 1 ? 1 : r }
        function fmt(v) { return sprintf("%.4g", v) }
        BEGIN {
            nm = split(metrics, lines, "\n")
            for (i = 1; i <= nm; i++) { split(lines[i], f, " "); name[i] = f[1]; better[i] = f[2]; bound[i] = f[3] }
        }
        {
            if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1 }
            val[$1 SUBSEP $2 SUBSEP $4, $3 + 1] = $5
            if ($3 + 1 > npairs) npairs = $3 + 1
            if ($4 == "#correct" && $5 != 1) { bad = 1; wrong[$1] = wrong[$1] " " $2 "#" $3 }
            if ($4 == "#attempted") att[$1, $2] += $5
            if ($4 == "#failed") fl[$1, $2] += $5
        }
        END {
            for (w = 1; w <= nw; w++) {
                wl = order[w]
                printf "%s\n  %-12s %-26s %-26s %8s %9s  %s\n", wl, "metric", "base median [q1-q3]", "head median [q1-q3]", "change", "head won", "verdict"
                for (m = 1; m <= nm; m++) {
                    nb = stats(wl SUBSEP "base" SUBSEP name[m]); bm = med; b1 = q1; b3 = q3
                    nh = stats(wl SUBSEP "head" SUBSEP name[m]); hm = med; h1 = q1; h3 = q3
                    if (nb == 0 || nh == 0) { printf "  %-12s missing\n", name[m]; bad = 1; continue }
                    won = 0; both = 0
                    for (i = 1; i <= npairs; i++) {
                        kb = (wl SUBSEP "base" SUBSEP name[m]) SUBSEP i; kh = (wl SUBSEP "head" SUBSEP name[m]) SUBSEP i
                        if (!(kb in val) || !(kh in val)) continue
                        both++
                        d = val[kh] - val[kb]
                        if (better[m] == "lower" ? d < 0 : d > 0) won++
                    }
                    change = bm != 0 ? (hm - bm) / bm : 0
                    worse = better[m] == "lower" ? change : -change
                    verdict = worse > bound[m] + 0 ? "WORSE (bound " bound[m] * 100 "%)" : "ok"
                    if (worse > bound[m] + 0) bad = 1
                    if (10 * won >= 9 * both && -worse * bm > b3 - b1 && worse < 0) verdict = verdict ", gain"
                    printf "  %-12s %-26s %-26s %+7.1f%% %6d/%-2d  %s\n", name[m], \
                        fmt(bm) " [" fmt(b1) "-" fmt(b3) "]", fmt(hm) " [" fmt(h1) "-" fmt(h3) "]", \
                        100 * change, won, both, verdict
                }
                ab = att[wl, "base"]; ah = att[wl, "head"]; fb = fl[wl, "base"]; fh = fl[wl, "head"]
                printf "  failed       base %d/%d, head %d/%d\n", fb, ab, fh, ah
                if (fh * (ab > 0 ? ab : 1) > fb * (ah > 0 ? ah : 1)) { bad = 1; print "  FAILED SHARE: the head failed a larger share than the base" }
                if (wrong[wl] != "") print "  INCORRECT runs (side#pair):" wrong[wl]
            }
            exit bad
        }'
}

selftest() {
    local dir spec out status=0
    dir=$(mktemp -d)
    spec=$dir/spec.json
    echo '{"end_to_end": [{"name": "t_s", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "higher", "bound": 0.1}]}' >"$spec"
    line() { # workload pair side correct failed t_s rate
        printf '%s\t%s\t%s\t{"correct": %s, "attempted": 10, "failed": %s, "metrics": {"t_s": {"value": %s}, "rate": {"value": %s}}}\n' "$@"
    }
    # t_s: base 10..13, head 5,6,7,14 (3 of 4 pairs won); rate: base
    # 100..103, head 200..203 (every pair won, far past the base's spread).
    { for i in 0 1 2 3; do
        line w "$i" base true 0 $((10 + i)) $((100 + i))
        line w "$i" head true 0 "$(echo 5 6 7 14 | cut -d' ' -f$((i + 1)))" $((200 + i))
    done; } >"$dir/ok.tsv"
    check() { # name expected-status expected-line...
        local name=$1 want=$2 got=0
        shift 2
        out=$(report "$spec" "$dir/$name.tsv") || got=$?
        if [ "$got" != "$want" ]; then
            echo "selftest $name: exit $got, expected $want"; echo "$out"; status=1
        fi
        for pat in "$@"; do
            if ! grep -qF -- "$pat" <<<"$out"; then
                echo "selftest $name: missing '$pat' in:"; echo "$out"; status=1
            fi
        done
    }
    check ok 0 "11.5 [10-12]" "6.5 [5-7]" "-43.5%" "3/4   ok" \
        "101.5 [100-102]" "201.5 [200-202]" "+98.5%" "4/4   ok, gain" "base 0/40, head 0/40"
    # Head t_s median 30% above the base's (bound 25%).
    { for i in 0 1 2; do line w "$i" base true 0 10 100; line w "$i" head true 0 13 100; done; } >"$dir/worse.tsv"
    check worse 1 "+30.0%" "WORSE (bound 25%)" "0/3"
    # A run that failed its output checks, and one with no result line.
    { line w 0 base true 0 1 1; line w 0 head false 0 1 1; } >"$dir/wrong.tsv"
    check wrong 1 "INCORRECT runs (side#pair): head#0"
    printf 'w\t0\tbase\t\nw\t0\thead\t{"correct": true, "attempted": 1, "failed": 0}\n' >"$dir/none.tsv"
    check none 1 "missing"
    # The head failed 2 of 10 operations, the base none.
    { line w 0 base true 0 1 1; line w 0 head true 2 1 1; } >"$dir/failed.tsv"
    check failed 1 "base 0/10, head 2/10" "FAILED SHARE"
    rm -rf "$dir"
    [ "$status" = 0 ] && echo "ab.sh selftest passed"
    return "$status"
}

pairs=10 seed=1 workloads=() revs=()
while [ $# -gt 0 ]; do
    case $1 in
        --selftest) selftest; exit ;;
        --pairs) pairs=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        -*) echo "unknown option $1" >&2; exit 2 ;;
        *) revs+=("$1"); shift ;;
    esac
done
if [ ${#revs[@]} -lt 1 ] || [ ${#revs[@]} -gt 2 ]; then
    sed -n '2,28p' "$0" >&2
    exit 2
fi
base=$(git rev-parse --verify "${revs[0]}^{commit}")
head=$(git rev-parse --verify "${revs[1]:-HEAD}^{commit}")
spec=BENCHMARK.json
mapfile -t command < <(jq -r '.command[]' "$spec")
seconds=$(jq -r '.run_seconds' "$spec")
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")

root=target/ab
mkdir -p "$root"
results=$root/results.tsv
: >"$results"
unset CARGO_TARGET_DIR
cleanup() {
    for side in base head; do
        [ -d "$root/$side" ] && git worktree remove --force "$root/$side"
    done
    git worktree prune
}
trap cleanup EXIT
for side in base head; do
    rev=$base
    [ $side = head ] && rev=$head
    [ -d "$root/$side" ] && git worktree remove --force "$root/$side"
    git worktree add --detach --quiet "$root/$side" "$rev"
    echo "building $side ($rev)" >&2
    (cd "$root/$side" && cargo build --release --offline --quiet --manifest-path geobench/Cargo.toml)
done

for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        order=(base head)
        [ $((i % 2)) = 1 ] && order=(head base)
        for side in "${order[@]}"; do
            echo "$workload pair $((i + 1))/$pairs: $side, seed $((seed + i))" >&2
            json=$(cd "$root/$side" && "${command[@]}" --workload "$workload" \
                --seed $((seed + i)) --seconds "$seconds" --trace 0 | tail -n 1) || true
            printf '%s\t%s\t%s\t%s\n' "$workload" "$i" "$side" "$json" >>"$results"
        done
    done
done
echo "base $base, head $head: $pairs pairs per workload, ${seconds} s runs, seeds $seed-$((seed + pairs - 1))"
report "$spec" "$results"

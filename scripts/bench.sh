#!/usr/bin/env bash
# bench.sh — run the simulator hot-path microbenchmarks against the parent
# commit and record the results in BENCH_rws.json, the repo's
# perf-trajectory file.
#
# Usage: scripts/bench.sh [extra test-binary flags, e.g. -test.benchtime=200x]
#
# Run it with the change under test uncommitted: the parent is HEAD. The
# script exports HEAD with `git archive` into a temporary directory, builds
# the parent's and the working tree's test binaries of three packages
# (internal/machine: coherence core; internal/rws: engine step loop,
# fork-join throughput, steal-heavy workloads, trace replay up to P = 128,
# and BenchmarkStealPriced — the distance-priced steal path on a
# four-socket topology, tracked so steal pricing stays a branch, not a
# tax; internal/serve/jobs: BenchmarkJournalReplay, the journal replay
# under a warm restart's set-up), and runs every benchmark of them for
# BENCH_COUNT rounds (default 3), alternating which side goes first. A
# benchmark the parent lacks is recorded without a ratio. On a tree with
# nothing uncommitted, it compares HEAD with itself, which shows the guard's
# noise floor.
#
# Regression guard: for each benchmark both sides have, the per-round
# change/parent ns/op ratios are taken, and the script exits non-zero when
# their median exceeds 1.25 (the new numbers are still recorded so the
# regression is visible in the diff). Alternating the two builds in one
# session, rather than comparing with the previous recording, keeps a slow
# spell of a shared host from failing an untouched layer and a fast spell
# from hiding a real regression. Set BENCH_ALLOW_REGRESSION=1 to downgrade
# the failure to a warning.
#
# Allocation gate: the engine-reuse benchmarks (Benchmark*Reuse) measure the
# steady state of the Reset lifecycle, whose whole point is zero-alloc
# replication; their allocs/op, in every round, are additionally held to a
# pinned ceiling (REUSE_ALLOC_CEILING, default 10). This guard is absolute,
# not relative, so the zero-alloc property cannot erode one alloc at a time.
#
# The JSON records, per benchmark, the change's median ns/op, B/op and
# allocs/op over the rounds, the parent's median ns/op and the median
# ratio; "sweep_full_ms" and "parent_sweep_full_ms" are the medians of the
# two builds' full experiment sweeps, alternated the same way. It also
# carries the frozen sections of scripts/bench_reference.json, copied
# verbatim: "seed_reference", the same benchmarks measured against the
# pre-refactor seed implementation (container/list LRU, map-based coherence
# state, O(P) clock scan, slice-copy deques), recorded once in PR 1 so later
# PRs can see the trajectory start, and "sweep_reference", the PR 4
# binary's sweep time.
#
# Host: the JSON records the CPU model, `nproc`, and BENCH_HOST, a free-text
# description of the machine (e.g. "shared 2-vCPU KVM guest, noisy"). On a
# shared guest, other tenants can change every timing by up to 2x in spells
# of seconds to minutes (bench/README.md, Noise); the alternation cancels
# spells longer than a round, not shorter ones.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-3}"
OUT="BENCH_rws.json"
REF="scripts/bench_reference.json"
PKGS="internal/machine internal/rws internal/serve/jobs"
if [ ! -f "$REF" ]; then
    echo "bench.sh: $REF is missing; it holds the frozen seed and sweep references" >&2
    exit 1
fi
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

BASE_REV="$(git rev-parse --short HEAD)"
mkdir -p "$WORK/parent"
git archive HEAD | tar -x -C "$WORK/parent"
for pkg in $PKGS; do
    name="$(basename "$pkg")"
    (cd "$WORK/parent" && go test -c -o "$WORK/parent-$name.test" "./$pkg/")
    go test -c -o "$WORK/change-$name.test" "./$pkg/"
done
(cd "$WORK/parent" && go build -o "$WORK/parent-experiments" ./cmd/experiments)
go build -o "$WORK/change-experiments" ./cmd/experiments

# run_side SIDE ROUND — every benchmark of SIDE's binaries, from the package
# directories of SIDE's tree, appended to $WORK/SIDE.txt; a "round" line
# separates the rounds for the awk below.
run_side() {
    local side="$1" round="$2" root="." pkg name
    shift 2
    [ "$side" = parent ] && root="$WORK/parent"
    echo "round $round" >> "$WORK/$side.txt"
    for pkg in $PKGS; do
        name="$(basename "$pkg")"
        (cd "$root/$pkg" && "$WORK/$side-$name.test" -test.run '^$' -test.bench . \
            -test.benchmem -test.count 1 -test.timeout 30m "$@") | tee -a "$WORK/$side.txt"
    done
}

# sweep_ms SIDE — wall clock of one full experiment sweep by SIDE's binary,
# as the benchmark's sweep workload runs it: GOMAXPROCS=1 with -par 1. At
# the default GOMAXPROCS a multi-core host would add E14's native timing
# (about 90 ms) and a second P, which bench/run.sh's sweep runs neither.
sweep_ms() {
    local t0 t1
    t0=$(date +%s%N)
    GOMAXPROCS=1 "$WORK/$1-experiments" -scale full -par 1 > /dev/null
    t1=$(date +%s%N)
    echo $(( (t1 - t0) / 1000000 ))
}
HAVE_NS=1
if [ "$(date +%s%N)" = "$(date +%s)N" ]; then # BSD date lacks %N; record null there
    HAVE_NS=0
    echo "bench.sh: date lacks nanoseconds; the sweep times are recorded as null" >&2
fi

: > "$WORK/parent.txt"
: > "$WORK/change.txt"
: > "$WORK/sweeps.txt"
for round in $(seq "$COUNT"); do
    if [ $((round % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "== round $round/$COUNT: $side ($([ "$side" = parent ] && echo "HEAD $BASE_REV" || echo "working tree"))"
        run_side "$side" "$round" "$@"
        if [ "$HAVE_NS" = 1 ]; then
            ms="$(sweep_ms "$side")"
            echo "full sweep: $ms ms"
            echo "$side $ms" >> "$WORK/sweeps.txt"
        else
            GOMAXPROCS=1 "$WORK/$side-experiments" -scale full -par 1 > /dev/null # still smoke the sweep
        fi
    done
done

# The medians and the per-round ratios, one line per benchmark the change
# has: key, change ns/op, B/op, allocs/op (medians), the largest allocs/op
# of any round, then the parent's median ns/op and the median ratio, or
# "-" for a benchmark the parent lacks.
awk '
function median(list,    n, v, i, j, t) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++) {
        t = v[i] + 0
        for (j = i - 1; j >= 1 && v[j] + 0 > t; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
    return sprintf("%.10g", n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2)
}
FNR == 1 { side = (FILENAME ~ /parent\.txt$/) ? "parent" : "change" }
/^round / { round = $2; next }
/^pkg:/ { pkg = $2 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    key = pkg "." name
    nsof[side, key, round] = ns
    if (side == "change") {
        if (!(key in seen)) { order[++n] = key; seen[key] = 1 }
        cns[key] = cns[key] " " ns; cb[key] = cb[key] " " bytes; ca[key] = ca[key] " " allocs
        if (!(key in amax) || allocs + 0 > amax[key] + 0) amax[key] = allocs
    } else {
        pns[key] = pns[key] " " ns
    }
}
END {
    for (i = 1; i <= n; i++) {
        key = order[i]
        ratios = ""
        for (r = 1; r <= '"$COUNT"'; r++)
            if ((("parent", key, r) in nsof) && (("change", key, r) in nsof) && nsof["parent", key, r] > 0)
                ratios = ratios " " nsof["change", key, r] / nsof["parent", key, r]
        printf "%s %s %s %s %s", key, median(cns[key]), (cb[key] ~ /[0-9]/ ? median(cb[key]) : "null"), \
            (ca[key] ~ /[0-9]/ ? median(ca[key]) : "null"), (amax[key] == "" ? "null" : amax[key])
        if (ratios != "") printf " %s %.4f\n", median(pns[key]), median(ratios)
        else printf " - -\n"
    }
}' "$WORK/parent.txt" "$WORK/change.txt" > "$WORK/summary.txt"

if [ ! -s "$WORK/summary.txt" ]; then
    echo "bench.sh: parsed 0 benchmarks out of the test binaries' output (did the bench output format change?)" >&2
    exit 1
fi

# sweep_median SIDE — the median of SIDE's sweep times.
sweep_median() {
    awk -v side="$1" '$1 == side {print $2}' "$WORK/sweeps.txt" | sort -n |
        awk '{v[NR] = $1} END {print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2)}'
}
SWEEP_MS=null
PARENT_SWEEP_MS=null
if [ "$HAVE_NS" = 1 ]; then
    SWEEP_MS=$(sweep_median change)
    PARENT_SWEEP_MS=$(sweep_median parent)
    echo "full sweep wall clock, median of $COUNT: ${SWEEP_MS} ms (HEAD $BASE_REV: ${PARENT_SWEEP_MS} ms)"
fi

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v goversion="$(go version | awk '{print $3}')" \
    -v sweepms="$SWEEP_MS" -v psweepms="$PARENT_SWEEP_MS" -v ref="$REF" \
    -v nproc="$(getconf _NPROCESSORS_ONLN)" -v host="${BENCH_HOST:-unspecified}" \
    -v count="$COUNT" -v base="$BASE_REV" -v cpu="$(awk -F': ' '/^cpu:/ {print $2; exit}' "$WORK/change.txt")" '
{ line[++n] = $0 }
END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"nproc\": %s,\n", nproc
    printf "  \"host\": \"%s\",\n", host
    printf "  \"count\": %s,\n", count
    printf "  \"parent\": \"%s\",\n", base
    printf "  \"note\": \"medians over count rounds that alternate the working tree with its parent commit (HEAD, exported by git archive); ratio is the median of the per-round change/parent ns/op ratios, the quantity the 1.25 guard reads; seed_reference is the pre-refactor implementation; sweep_full_ms and parent_sweep_full_ms are the medians of the two builds GOMAXPROCS=1 cmd/experiments -scale full -par 1 wall clocks, as the benchmark sweep runs it, sweep_reference an earlier binary frozen for trajectory; both references come from scripts/bench_reference.json\",\n"
    printf "  \"sweep_full_ms\": %s,\n", sweepms
    printf "  \"parent_sweep_full_ms\": %s,\n", psweepms
    # The reference file is one JSON object: copy its members, i.e. every
    # line between its opening and closing brace.
    m = 0
    while ((getline l < ref) > 0) refl[++m] = l
    close(ref)
    for (i = 2; i < m; i++) printf "%s%s\n", refl[i], (i == m - 1 ? "," : "")
    printf "  \"benchmarks\": {\n"
    for (i = 1; i <= n; i++) {
        split(line[i], f, " ")
        printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", f[1], f[2], f[3], f[4]
        if (f[6] != "-") printf ", \"parent_ns_per_op\": %s, \"ratio\": %s", f[6], f[7]
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  }\n}\n"
}' "$WORK/summary.txt" > "$OUT"
echo "wrote $OUT"

# Regression guard: the median per-round ratio of every benchmark both
# sides have.
awk '$7 != "-" && $7 + 0 > 1.25 {
    printf "REGRESSION %s: %.4g -> %.4g ns/op, median change/parent ratio %.3f\n", $1, $6, $2, $7
    bad = 1
} END { exit bad }' "$WORK/summary.txt" || {
    if [ "${BENCH_ALLOW_REGRESSION:-0}" = "1" ]; then
        echo "bench.sh: regression tolerated (BENCH_ALLOW_REGRESSION=1)" >&2
    else
        echo "bench.sh: a benchmark's median ns/op ratio to HEAD $BASE_REV exceeds 1.25" >&2
        exit 1
    fi
}

# Absolute allocs/op ceiling on the engine-reuse benchmarks, in every round.
CEILING="${REUSE_ALLOC_CEILING:-10}"
awk -v ceiling="$CEILING" '$1 ~ /Reuse$/ && $5 != "null" && $5 + 0 > ceiling {
    printf "ALLOC CEILING %s: %s allocs/op > %s\n", $1, $5, ceiling
    bad = 1
} END { exit bad }' "$WORK/summary.txt" || {
    echo "bench.sh: reuse benchmark exceeded the steady-state allocs/op ceiling ($CEILING)" >&2
    exit 1
}

#!/usr/bin/env bash
# bench.sh — run the simulator hot-path microbenchmarks and record the
# results in BENCH_rws.json, the repo's perf-trajectory file.
#
# Usage: scripts/bench.sh [extra go-test args]
#
# Runs `go test -bench=. -benchmem -count=3` on the two hot packages
# (internal/machine: coherence core; internal/rws: engine step loop,
# fork-join throughput, steal-heavy workloads, and BenchmarkStealPriced —
# the distance-priced steal path on a four-socket topology, tracked so
# steal pricing stays a branch, not a tax) and keeps, per benchmark,
# the best ns/op of the three runs (min is the right summary for noise on a
# shared host). The JSON also carries the frozen sections of
# scripts/bench_reference.json, copied verbatim: "seed_reference", the same
# benchmarks measured against the pre-refactor seed implementation
# (container/list LRU, map-based coherence state, O(P) clock scan,
# slice-copy deques), recorded once in PR 1 so later PRs can see the
# trajectory start, and "sweep_reference", the PR 4 binary's sweep time.
#
# Host: the JSON records the CPU model, `nproc`, and BENCH_HOST, a free-text
# description of the machine (e.g. "shared 2-vCPU KVM guest, noisy"). On a
# shared guest, other tenants can change every timing by up to 2x in spells
# of seconds to minutes (bench/README.md, Noise), so compare recordings
# taken on one host, interleaved, and treat a single recording as a rough
# trajectory point.
#
# Regression guard: after writing the new file, every benchmark that was
# also tracked in the previous BENCH_rws.json is compared; if any ns/op
# regressed more than 25%, the script exits non-zero (the new numbers are
# still recorded so the regression is visible in the diff). Set
# BENCH_ALLOW_REGRESSION=1 to downgrade the failure to a warning, e.g. when
# a slower host is known to be the cause.
#
# Allocation gate: the engine-reuse benchmarks (Benchmark*Reuse) measure the
# steady state of the Reset lifecycle, whose whole point is zero-alloc
# replication; their allocs/op are additionally held to a pinned ceiling
# (REUSE_ALLOC_CEILING, default 10). This guard is absolute, not relative,
# so the zero-alloc property cannot erode one alloc at a time.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-3}"
OUT="BENCH_rws.json"
REF="scripts/bench_reference.json"
if [ ! -f "$REF" ]; then
    echo "bench.sh: $REF is missing; it holds the frozen seed and sweep references" >&2
    exit 1
fi
TMP="$(mktemp)"
PREV="$(mktemp)"
trap 'rm -f "$TMP" "$PREV"' EXIT

if [ -f "$OUT" ]; then
    cp "$OUT" "$PREV"
else
    : > "$PREV"
fi

go test ./internal/machine/ ./internal/rws/ -run '^$' -bench . -benchmem \
    -count="$COUNT" "$@" | tee "$TMP"

# Wall-clock of the full experiment sweep, best of COUNT runs: the
# end-to-end number the engine-reuse lifecycle and trace replay target.
# Timed as the benchmark's sweep workload runs it, GOMAXPROCS=1 with -par 1:
# at the default GOMAXPROCS a multi-core host would add E14's native timing
# (about 90 ms) and a second P, which bench/run.sh's sweep runs neither.
# Recorded alongside the microbenchmarks; sweep_reference freezes an
# earlier binary's wall clock on the same class of host for trajectory.
EXPBIN="$(mktemp)"
go build -o "$EXPBIN" ./cmd/experiments
SWEEP_MS=""
if [ "$(date +%s%N)" != "$(date +%s)N" ]; then # BSD date lacks %N; record null there
    for _ in $(seq "$COUNT"); do
        t0=$(date +%s%N)
        GOMAXPROCS=1 "$EXPBIN" -scale full -par 1 > /dev/null
        t1=$(date +%s%N)
        ms=$(( (t1 - t0) / 1000000 ))
        if [ -z "$SWEEP_MS" ] || [ "$ms" -lt "$SWEEP_MS" ]; then SWEEP_MS=$ms; fi
    done
    echo "full sweep wall clock: ${SWEEP_MS}ms (best of $COUNT)"
else
    GOMAXPROCS=1 "$EXPBIN" -scale full -par 1 > /dev/null # still smoke the sweep
    echo "bench.sh: date lacks nanoseconds; sweep_full_ms recorded as null" >&2
fi
rm -f "$EXPBIN"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v goversion="$(go version | awk '{print $3}')" \
    -v sweepms="$SWEEP_MS" -v ref="$REF" -v nproc="$(getconf _NPROCESSORS_ONLN)" \
    -v host="${BENCH_HOST:-unspecified}" '
/^pkg:/ { pkg = $2 }
/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
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
    if (!(key in best_ns) || ns + 0 < best_ns[key] + 0) {
        best_ns[key] = ns; best_b[key] = bytes; best_a[key] = allocs
        pkg_of[key] = pkg; name_of[key] = name
    }
    if (!(key in seen)) { order[++n] = key; seen[key] = 1 }
}
END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"nproc\": %s,\n", nproc
    printf "  \"host\": \"%s\",\n", host
    printf "  \"count\": %s,\n", "'"$COUNT"'"
    printf "  \"note\": \"best-of-count ns/op; seed_reference is the pre-refactor implementation; sweep_full_ms is the GOMAXPROCS=1 cmd/experiments -scale full -par 1 wall clock, as the benchmark sweep runs it, sweep_reference an earlier binary frozen for trajectory; both references come from scripts/bench_reference.json\",\n"
    printf "  \"sweep_full_ms\": %s,\n", (sweepms == "" ? "null" : sweepms)
    # The reference file is one JSON object: copy its members, i.e. every
    # line between its opening and closing brace.
    m = 0
    while ((getline line < ref) > 0) refl[++m] = line
    close(ref)
    for (i = 2; i < m; i++) printf "%s%s\n", refl[i], (i == m - 1 ? "," : "")
    printf "  \"benchmarks\": {\n"
    for (i = 1; i <= n; i++) {
        key = order[i]
        printf "    \"%s.%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            pkg_of[key], name_of[key], best_ns[key], \
            (best_b[key] == "" ? "null" : best_b[key]), \
            (best_a[key] == "" ? "null" : best_a[key]), \
            (i < n ? "," : "")
    }
    printf "  }\n}\n"
}
' "$TMP" > "$OUT"

echo "wrote $OUT"

# count_benchmarks FILE — number of tracked entries in the "benchmarks"
# section (seed_reference lines deliberately excluded). Used to distinguish
# "nothing to compare" from "reference file is malformed": a reference that
# parses to zero benchmarks must be a loud error, not a regression guard
# that silently passes (or divides by zero on a bogus ns_per_op).
count_benchmarks() {
    awk '
        /"benchmarks": \{/ { inb = 1; next }
        inb && /^  \}/     { inb = 0 }
        inb && /"ns_per_op":/ { c++ }
        END { print c + 0 }
    ' "$1"
}

if [ "$(count_benchmarks "$OUT")" -eq 0 ]; then
    echo "bench.sh: parsed 0 benchmarks out of the go test output; $OUT is malformed (did the bench output format change?)" >&2
    exit 1
fi

# Regression guard: compare the new ns/op against the previous recording for
# every benchmark tracked in both files' "benchmarks" sections.
if [ ! -s "$PREV" ]; then
    echo "bench.sh: no previous $OUT; first recording, regression guard skipped" >&2
elif [ "$(count_benchmarks "$PREV")" -eq 0 ]; then
    echo "bench.sh: previous $OUT is malformed (0 tracked benchmarks parsed); refusing to skip the regression guard silently" >&2
    echo "bench.sh: restore it from git, or delete it to re-seed the trajectory" >&2
    exit 1
else
    awk '
    function record(file, dest,    line, q2, key, rest, v) {
        inbench = 0
        while ((getline line < file) > 0) {
            if (line ~ /"benchmarks": \{/) { inbench = 1; continue }
            if (!inbench) continue
            if (line ~ /^  \}/) break
            if (line !~ /"ns_per_op":/) continue
            rest = substr(line, index(line, "\"") + 1)
            q2 = index(rest, "\"")
            if (q2 <= 1) continue
            key = substr(rest, 1, q2 - 1)
            v = substr(line, index(line, "\"ns_per_op\": ") + 13)
            sub(/[,}].*/, "", v)
            dest[key] = v + 0
        }
        close(file)
    }
    BEGIN {
        record(ARGV[1], old)
        record(ARGV[2], new)
        bad = 0
        for (key in old) {
            if (!(key in new)) continue
            if (old[key] <= 0) {
                # A zero/negative reference would divide by zero below; that
                # is a malformed recording, not a perf signal.
                printf "MALFORMED %s: previous ns_per_op %s is not positive\n", key, old[key]
                exit 2
            }
            if (new[key] > old[key] * 1.25) {
                printf "REGRESSION %s: %.4g -> %.4g ns/op (+%.0f%%)\n", \
                    key, old[key], new[key], (new[key]/old[key] - 1) * 100
                bad = 1
            }
        }
        exit bad
    }' "$PREV" "$OUT" || {
        rc=$?
        if [ "$rc" -eq 2 ]; then
            echo "bench.sh: previous $OUT is malformed; restore it from git or delete it to re-seed" >&2
            exit 1
        fi
        if [ "${BENCH_ALLOW_REGRESSION:-0}" = "1" ]; then
            echo "bench.sh: regression tolerated (BENCH_ALLOW_REGRESSION=1)" >&2
        else
            echo "bench.sh: tracked benchmark regressed >25% vs previous $OUT" >&2
            exit 1
        fi
    }
fi

# Absolute allocs/op ceiling on the engine-reuse benchmarks.
CEILING="${REUSE_ALLOC_CEILING:-10}"
awk -v ceiling="$CEILING" '
    /Reuse"/ && /"allocs_per_op":/ {
        key = $0
        sub(/^ *"/, "", key); sub(/".*/, "", key)
        v = $0
        sub(/.*"allocs_per_op": /, "", v); sub(/[,}].*/, "", v)
        if (v + 0 > ceiling) {
            printf "ALLOC CEILING %s: %s allocs/op > %s\n", key, v, ceiling
            bad = 1
        }
    }
    END { exit bad }
' "$OUT" || {
    echo "bench.sh: reuse benchmark exceeded the steady-state allocs/op ceiling ($CEILING)" >&2
    exit 1
}

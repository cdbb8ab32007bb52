#!/bin/sh
# ci.sh — the repository's tier-1 gate, runnable locally or in CI.
#
#   scripts/ci.sh
#
# Steps: formatting, vet, build, the full test suite (and the hostbench
# module's, which has its own go.mod), and a -race pass over the
# packages whose tests don't depend on the virtual-time engine's
# one-goroutine-at-a-time determinism (the engine serializes execution
# by construction, so -race on those packages only slows the suite down
# without adding coverage).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== hostbench module =="
# hostbench has its own go.mod, so the root vet/test never compiles it;
# this catches a break in the simulator APIs the benchmark uses.
(cd hostbench && go vet ./... && go test ./...)

echo "== tmvet =="
# The repository's own static analyzers (determinism, STM isolation,
# address hygiene, record-schema coverage) must report zero findings;
# suppressions live in the source as //tmvet:allow annotations with
# mandatory reasons.
go run ./cmd/tmvet ./...

echo "== go test -race (virtual-time-independent packages) =="
# stm and mem ride along: their suites run mostly single-threaded under
# the engine, but TestMain arms the sanitizer, whose shadow-map
# bookkeeping must stay race-free where host goroutines do appear.
go test -race ./internal/obs ./internal/mem ./internal/sim ./internal/cachesim ./internal/stm

echo "== go test -race (sweep scheduler) =="
# The scheduler is the one component that genuinely runs host
# goroutines concurrently; its deque/steal/cache paths get a dedicated
# race pass.
go test -race ./internal/sweep

echo "== fault-injection smoke =="
# Every STAMP app must survive an injected-OOM plan with the graceful-
# degradation ladder engaged, still emitting a valid run record, and two
# runs of the same seeded fault plan must be byte-identical.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/tmstamp -app yada -alloc tbb -threads 2 \
    -cm backoff -retry-cap 64 -fault 'oom@10x2,oom%1,lat%2:200' -deadline 2000000000 \
    -seed 7 -json "$tmpdir/fault1.json" >/dev/null
go run ./cmd/tmstamp -app yada -alloc tbb -threads 2 \
    -cm backoff -retry-cap 64 -fault 'oom@10x2,oom%1,lat%2:200' -deadline 2000000000 \
    -seed 7 -json "$tmpdir/fault2.json" >/dev/null
cmp "$tmpdir/fault1.json" "$tmpdir/fault2.json" || {
    echo "fault-injection run records differ for the same seed" >&2
    exit 1
}
grep -q '"status"' "$tmpdir/fault1.json" || {
    echo "fault-injection run record carries no status" >&2
    exit 1
}

echo "== parallel-determinism gate =="
# A wide work-stealing pool must produce byte-identical results to a
# serial run. Only the recorded pool width ("jobs", execution
# provenance like wall-clock time) may differ between the two records.
go run ./cmd/tmrepro -run fig1 -jobs 1 -out "$tmpdir/j1" >"$tmpdir/j1.txt"
go run ./cmd/tmrepro -run fig1 -jobs 8 -out "$tmpdir/j8" >"$tmpdir/j8.txt"
cmp "$tmpdir/j1.txt" "$tmpdir/j8.txt" || {
    echo "tmrepro stdout differs between -jobs 1 and -jobs 8" >&2
    exit 1
}
sed 's/"jobs": *[0-9]*/"jobs": 0/' "$tmpdir/j1/BENCH_fig1.json" >"$tmpdir/j1.norm"
sed 's/"jobs": *[0-9]*/"jobs": 0/' "$tmpdir/j8/BENCH_fig1.json" >"$tmpdir/j8.norm"
cmp "$tmpdir/j1.norm" "$tmpdir/j8.norm" || {
    echo "run records differ between -jobs 1 and -jobs 8" >&2
    exit 1
}

echo "== committed results gate =="
# results/ is the byte-identity golden: a fresh quick-scale -run all
# must write exactly the committed file set, every table byte for byte,
# and every run record byte for byte once the recorded pool width
# ("jobs") is zeroed as above. A change that moves a simulated number
# must regenerate results/ on purpose.
go run ./cmd/tmrepro -run all -out "$tmpdir/results" >/dev/null 2>&1
want=$(cd results && ls | grep -v '^README.txt$')
got=$(cd "$tmpdir/results" && ls)
[ "$want" = "$got" ] || {
    echo "results/ file set differs from a fresh -run all:" >&2
    echo "committed: $want" >&2
    echo "fresh:     $got" >&2
    exit 1
}
for f in $got; do
    case "$f" in
    *.json)
        sed 's/"jobs": *[0-9]*/"jobs": 0/' "results/$f" >"$tmpdir/res-want.norm"
        sed 's/"jobs": *[0-9]*/"jobs": 0/' "$tmpdir/results/$f" >"$tmpdir/res-got.norm"
        cmp "$tmpdir/res-want.norm" "$tmpdir/res-got.norm" ;;
    *)
        cmp "results/$f" "$tmpdir/results/$f" ;;
    esac || {
        echo "results/$f differs from a fresh -run all; regenerate results/ if the change is intended" >&2
        exit 1
    }
done

echo "== tx-pooling byte-identity gate =="
# Turning the pooling axis off explicitly (-pool none) must be
# byte-for-byte the same as never mentioning it, at every pool width:
# the discipline default is "no override", so cell keys, derived seeds
# and run records may not move. The j1 artifacts above are the plain
# baseline.
go run ./cmd/tmrepro -run fig1 -jobs 1 -pool none -out "$tmpdir/pn1" >"$tmpdir/pn1.txt"
go run ./cmd/tmrepro -run fig1 -jobs 4 -pool none -out "$tmpdir/pn4" >"$tmpdir/pn4.txt"
go run ./cmd/tmrepro -run fig1 -jobs 8 -pool none -out "$tmpdir/pn8" >"$tmpdir/pn8.txt"
cmp "$tmpdir/j1.txt" "$tmpdir/pn1.txt" || {
    echo "tmrepro stdout differs with -pool none" >&2
    exit 1
}
for j in 1 4 8; do
    sed 's/"jobs": *[0-9]*/"jobs": 0/' "$tmpdir/pn$j/BENCH_fig1.json" >"$tmpdir/pn$j.norm"
    cmp "$tmpdir/j1.norm" "$tmpdir/pn$j.norm" || {
        echo "run records differ between plain and -pool none at -jobs $j" >&2
        exit 1
    }
done

echo "== alloc-budget gate =="
# The PR 8 zero-alloc contract, re-run explicitly and uncached: the STM
# begin/load/store/commit path, cachesim's Access over a touched
# footprint, the obs emitters and prof.Begin/End pin at zero
# steady-state host allocs, and the flagship workload stays within its
# 1,000 allocs/run budget (down from 9,271 before pooling).
go test -count=1 -run 'AllocBudget|SteadyStateAlloc' \
    ./internal/stm ./internal/cachesim ./internal/obs ./internal/prof

echo "== cache round-trip gate =="
# A second invocation against a warm cache must execute nothing and
# reproduce the same stdout.
go run ./cmd/tmrepro -run tab4 -cache "$tmpdir/cellcache" >"$tmpdir/c1.txt" 2>/dev/null
go run ./cmd/tmrepro -run tab4 -cache "$tmpdir/cellcache" >"$tmpdir/c2.txt" 2>"$tmpdir/c2.err"
cmp "$tmpdir/c1.txt" "$tmpdir/c2.txt" || {
    echo "cached run differs from executed run" >&2
    exit 1
}
grep -q ' 0 executed' "$tmpdir/c2.err" || {
    echo "second -cache invocation executed cells instead of hitting the cache" >&2
    exit 1
}
# The sanitizer bypasses the cache in every binary: tmlayout's cells go
# through the same session, so a warm cache must not skip -sanitize.
go run ./cmd/tmlayout -cache "$tmpdir/layoutcache" >/dev/null 2>&1
go run ./cmd/tmlayout -cache "$tmpdir/layoutcache" -sanitize -json >"$tmpdir/layoutsan.json" 2>/dev/null
grep -q '"executed": 4' "$tmpdir/layoutsan.json" || {
    echo "tmlayout -sanitize replayed cells from a warm cache instead of executing them" >&2
    exit 1
}

echo "== profiler toolchain gate =="
# tmprof must read a profile artifact back, and a profile diffed against
# the other pool width's artifact must partition both totals exactly.
# tmvet runs again scoped to the profiler packages so a future
# suppression elsewhere can't mask a determinism finding here.
go run ./cmd/tmrepro -run fig1 -jobs 1 -profile "$tmpdir/p1.json" >/dev/null
go run ./cmd/tmrepro -run fig1 -jobs 8 -profile "$tmpdir/p8.json" >/dev/null
go run ./cmd/tmprof top "$tmpdir/p1.json" >"$tmpdir/top.txt"
grep -q 'virtual cycles' "$tmpdir/top.txt" || {
    echo "tmprof top produced no cycle summary" >&2
    exit 1
}
go run ./cmd/tmprof diff "$tmpdir/p1.json" "$tmpdir/p8.json" >"$tmpdir/pdiff.txt"
grep -q 'totals reconcile' "$tmpdir/pdiff.txt" || {
    echo "tmprof diff totals failed to reconcile" >&2
    exit 1
}
go run ./cmd/tmvet ./internal/prof ./cmd/tmprof

echo "== heapscope toolchain gate =="
# tmheap must read the artifact back and diff two allocators' series,
# and tmlayout -heap-geometry must emit static geometry in the same
# schema.
go run ./cmd/tmrepro -run fig1 -heap "$tmpdir/h1.json" >/dev/null
go run ./cmd/tmheap "$tmpdir/h1.json" >"$tmpdir/hsum.txt"
grep -q 'heap telemetry' "$tmpdir/hsum.txt" || {
    echo "tmheap summary carries no telemetry header" >&2
    exit 1
}
go run ./cmd/tmheap diff "$tmpdir/h1.json" >"$tmpdir/hdiff.txt"
grep -q 'blowup' "$tmpdir/hdiff.txt" || {
    echo "tmheap diff produced no blowup row" >&2
    exit 1
}
go run ./cmd/tmlayout -heap-geometry >"$tmpdir/geo.json"
grep -q '"schema": "tmheap/series/v1"' "$tmpdir/geo.json" || {
    echo "tmlayout -heap-geometry emitted the wrong schema" >&2
    exit 1
}
go run ./cmd/tmheap "$tmpdir/geo.json" >/dev/null || {
    echo "tmheap failed to read the -heap-geometry artifact" >&2
    exit 1
}

echo "== observer composition gate =="
# Each observer's purity is proven alone by TestObserverPurity in
# internal/harness (stdout, record minus its own block, artifacts at
# -jobs 1 and 8). Here all of them ride one run through the CLI: it must
# still print exactly what the plain run printed (j1.txt above), and the
# heap and profile artifacts must match the single-observer runs.
go run ./cmd/tmrepro -run fig1 -race-sim -conflict -sanitize \
    -heap "$tmpdir/hall.json" -profile "$tmpdir/pall.json" >"$tmpdir/all.txt"
cmp "$tmpdir/j1.txt" "$tmpdir/all.txt" || {
    echo "tmrepro stdout differs with every observer attached" >&2
    exit 1
}
cmp "$tmpdir/h1.json" "$tmpdir/hall.json" || {
    echo "heap series artifact differs with every observer attached" >&2
    exit 1
}
cmp "$tmpdir/p1.json" "$tmpdir/pall.json" || {
    echo "profile artifact differs with every observer attached" >&2
    exit 1
}

echo "== sanitizer detection gate =="
# A seeded use-after-free must fail loudly under -sanitize and pass
# silently without it — the contrast that proves the checker is both
# armed and byte-transparent.
if go run ./cmd/tmintset -kind linkedlist -alloc tcmalloc -threads 2 \
    -initial 64 -ops 50 -seed-uaf -sanitize >"$tmpdir/uaf.txt" 2>&1; then
    echo "seeded use-after-free passed under -sanitize" >&2
    exit 1
fi
grep -q 'use-after-free' "$tmpdir/uaf.txt" || {
    echo "sanitized seed-uaf run failed without a use-after-free diagnostic" >&2
    exit 1
}
go run ./cmd/tmintset -kind linkedlist -alloc tcmalloc -threads 2 \
    -initial 64 -ops 50 -seed-uaf >/dev/null || {
    echo "seeded use-after-free failed without -sanitize (should pass silently)" >&2
    exit 1
}

echo "== race-checker detection gate =="
# A seeded allocator-metadata race must fail loudly under -race-sim and
# pass silently without it — the contrast that proves the checker is
# both armed and byte-transparent.
if go run ./cmd/tmintset -kind linkedlist -alloc glibc -threads 2 \
    -initial 64 -ops 50 -seed-race -race-sim >"$tmpdir/race.txt" 2>&1; then
    echo "seeded metadata race passed under -race-sim" >&2
    exit 1
fi
grep -q 'metadata' "$tmpdir/race.txt" || {
    echo "checked seed-race run failed without a metadata-race finding" >&2
    exit 1
}
go run ./cmd/tmintset -kind linkedlist -alloc glibc -threads 2 \
    -initial 64 -ops 50 -seed-race >/dev/null || {
    echo "seeded metadata race failed without -race-sim (should pass silently)" >&2
    exit 1
}
# Pooled runs park freed blocks in the STM's recycle lists, never in the
# allocator; the checker must not read their reuse as a metadata race.
for pool in cache pool; do
    go run ./cmd/tmintset -kind linkedlist -alloc glibc -threads 4 \
        -initial 64 -ops 100 -race-sim -pool "$pool" >/dev/null || {
        echo "unseeded -pool $pool run reported races under -race-sim" >&2
        exit 1
    }
done

echo "== conflict-observatory detection gate =="
# A choreographed ORT stripe-aliasing pair must fail loudly under
# -conflict (classified as stripe aliasing) and pass silently without
# it — the contrast that proves the observatory is both armed and
# byte-transparent.
if go run ./cmd/tmintset -kind linkedlist -alloc glibc -threads 2 \
    -initial 64 -ops 50 -seed-alias -conflict >"$tmpdir/alias.txt" 2>&1; then
    echo "seeded stripe aliasing passed under -conflict" >&2
    exit 1
fi
grep -q 'stripe' "$tmpdir/alias.txt" || {
    echo "observed seed-alias run failed without a stripe-aliasing diagnosis" >&2
    exit 1
}
go run ./cmd/tmintset -kind linkedlist -alloc glibc -threads 2 \
    -initial 64 -ops 50 -seed-alias >/dev/null || {
    echo "seeded stripe aliasing failed without -conflict (should pass silently)" >&2
    exit 1
}

echo "== hybrid-TM flag gate =="
# tmintset -hytm runs outside the STM world, so it must refuse (exit 2)
# the STM, robustness and observer flags instead of dropping them.
go build -o "$tmpdir/tmintset" ./cmd/tmintset
rc=0; "$tmpdir/tmintset" -kind hashset -hytm -race-sim >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "tmintset -hytm -race-sim exited $rc, want 2" >&2; exit 1; }

echo "== durability crash-matrix gate =="
# The full crash→recover→verify matrix (4 allocators × 3 commit-phase
# crash points) must come back with every recovery verdict ok — tmcrash
# exits nonzero otherwise. Crash cells never cache, so the verdict is
# re-earned on every run.
go run ./cmd/tmcrash -jobs 1 >"$tmpdir/crash1.txt" || {
    echo "tmcrash matrix failed its recovery gate" >&2
    exit 1
}
grep -q 'tears worst' "$tmpdir/crash1.txt" || {
    echo "tmcrash produced no tear ranking" >&2
    exit 1
}

echo "== recovery determinism gate =="
# Crash points derive from the serialized virtual clock and recovery
# runs on a post-crash solo thread, so a recovery re-run must be
# byte-identical at any pool width.
go run ./cmd/tmcrash -jobs 4 >"$tmpdir/crash4.txt"
go run ./cmd/tmcrash -jobs 8 >"$tmpdir/crash8.txt"
cmp "$tmpdir/crash1.txt" "$tmpdir/crash4.txt" || {
    echo "tmcrash output differs between -jobs 1 and -jobs 4" >&2
    exit 1
}
cmp "$tmpdir/crash1.txt" "$tmpdir/crash8.txt" || {
    echo "tmcrash output differs between -jobs 1 and -jobs 8" >&2
    exit 1
}

echo "== recovery sanitize-composition gate =="
# With -sanitize the recovery sweep additionally cross-checks the
# shadow map against journaled truth (the ShadowBad invariant), and the
# recovered heap must come back shadow-clean; being pure metadata, the
# sanitizer must not move a single output byte either.
go run ./cmd/tmcrash -jobs 8 -sanitize >"$tmpdir/crashsan.txt" || {
    echo "tmcrash matrix failed under -sanitize (recovered heap not shadow-clean)" >&2
    exit 1
}
cmp "$tmpdir/crash1.txt" "$tmpdir/crashsan.txt" || {
    echo "tmcrash output differs with -sanitize" >&2
    exit 1
}

echo "CI OK"

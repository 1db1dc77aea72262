// Package rwsfs reproduces Cole & Ramachandran, "Analysis of Randomized
// Work Stealing with False Sharing" (IPDPS/IPPS 2013, arXiv:1103.4142) as a
// runnable Go system: a deterministic multicore simulator with an
// invalidation-based coherence model, the paper's randomized work-stealing
// scheduler, the full algorithm suite the paper analyzes (matrix multiply in
// three variants, layout conversions, transpose, prefix sums, HBP sorting,
// FFT, list ranking, connected components), closed-form evaluators for every
// bound, and an experiment harness that regenerates each lemma/theorem's
// predicted-vs-measured table.
//
// Entry points:
//
//   - internal/rws: the scheduler and the Ctx fork-join programming model
//   - internal/harness: the E01..E21 experiment registry
//   - internal/serve: the fault-tolerant simulation service layer
//   - cmd/rwsim, cmd/experiments: command-line front ends
//   - cmd/rwsimd: the HTTP/JSON simulation daemon
//   - examples/: runnable walkthroughs
//
// # Steal policies and topology
//
// The paper fixes the stealing discipline to "uniform random victim, one
// task per steal" on a flat machine; both halves are pluggable here so
// experiments can ask how the false-sharing bounds shift under alternative
// disciplines:
//
//   - rws.Config.Policy takes a rws.StealPolicy — Uniform (default,
//     byte-identical to the paper's discipline), Localized (socket-biased
//     victims), StealHalf (top half of the victim's deque per steal),
//     Affinity (prefer victims whose next-stolen task's blocks the thief
//     still caches, per the coherence directory), Hierarchical (probe the
//     thief's own socket, escalating to a remote victim only after a
//     streak of local failures) or LatencyAware (score a few probed
//     candidates by deque size and distance price, steal from the
//     cheapest). Policies are stateless values drawing all randomness
//     from the engine's per-run RNG (the "RNG ownership rule"), which is
//     what keeps parallel experiment sweeps byte-identical to serial runs;
//     engine-side state a policy needs (like the failed-attempt streak) is
//     read through the PolicyView.
//   - machine.Params.Topology partitions processors into sockets; block
//     transfers whose last owner (a per-block directory record) sits in
//     another socket stall for CostMissRemote instead of CostMiss and are
//     counted as RemoteFetches. Topology.CostSteal/CostStealRemote price
//     the steal protocol the same way: every steal attempt is charged the
//     same- or cross-socket latency at probe time (failed remote probes
//     pay too), counted in ProcCounters.RemoteSteals and StealLatency.
//     The flat, unpriced default keeps provenance untracked and every
//     metric unchanged.
//   - Ctx.PlaceLocal is the placement helper: it re-binds a range's blocks
//     to the executing processor (NUMA first-touch) so join/result blocks
//     live on their consumer's socket instead of inheriting the
//     initializer's provenance. E21 and examples/falsesharing measure the
//     cross-socket traffic it removes. Ctx exposes nothing of the schedule
//     (no processor, socket or task accessors), so a race-free kernel's op
//     stream is the same under every schedule.
//
// To add a seventh policy: implement StealPolicy (Name/Victim/Take) in
// internal/rws/policy.go obeying the RNG ownership rule, register it in
// Policies() — CLI flags, the E16/E18 sweeps, the invariant suite and
// FuzzStealPolicy pick it up from there — and pin a golden case in
// golden_test.go (policyGoldenCases), on a priced topology if the policy
// consults distance, so its schedule cannot drift silently.
//
// The policy layer is locked down by three test layers in internal/rws:
// golden determinism cases per policy, a property-based invariant suite
// (go test -run TestPolicyInvariants: spawn conservation, clock
// monotonicity, budget ceilings, steal-cost conservation — charged latency
// == priced attempts × configured costs — and fast-path/lockstep equality
// over randomized configs), and native fuzz targets with checked-in
// corpora — run locally with
//
//	go test ./internal/rws/ -fuzz FuzzDeque -fuzztime 30s -run '^$'
//	go test ./internal/rws/ -fuzz FuzzClockHeap -fuzztime 30s -run '^$'
//	go test ./internal/rws/ -fuzz FuzzStealPolicy -fuzztime 30s -run '^$'
//	go test ./internal/machine/ -fuzz FuzzDirectory -fuzztime 30s -run '^$'
//
// (CI runs all four for 10s plus a -race pass over ./internal/...).
//
// # Simulator hot path
//
// Every timed access of every experiment funnels through
// machine.Machine.Access and the rws engine, so those layers are engineered
// for allocation-free, cache-friendly steady state:
//
//   - internal/cache is only an intrusive array-backed LRU order: recency
//     links are prev/next indices in a flat node slice, free nodes are
//     chained through the same links, and each processor's cache sits
//     inline in the machine. It keeps no block index. A touch of the
//     most-recently-used block is answered before any lookup, and
//     internal/mem computes a block ID by a shift, B being a power of two.
//   - internal/machine keeps coherence state in a per-block directory, the
//     machine's only block table: each block's node in every processor's
//     LRU list, sharer and lost bitsets, busy-until tick and transfer
//     count, in paged dense arrays (pages and node columns carved from
//     arena chunks) that exploit mem.Allocator bump-allocating block IDs
//     densely from zero. An access looks its block's record up once for
//     the hit, the miss and the write's invalidation, and the invalidation
//     broadcast walks only actual sharers instead of scanning all P caches.
//   - internal/rws implements the scheduling protocol once, as resumable
//     steps (work, timed access, fork, join decision, join, finish) under
//     an inline run-ahead engine: the running strand applies its own timed
//     requests directly while its processor keeps the (clock, proc)
//     minimum, executes idle processors' steal attempts and deque pops
//     itself, and stops for one driver loop that resumes the next strand.
//     The minimum comes from a winner tree over one packed key per
//     processor, clock<<16 | proc, so each check after a charge replays
//     one leaf-to-root path of ⌈log2 P⌉ branch-free matches. Two op
//     sources drive the steps: Ctx calls from kernel code on strand
//     coroutines (two coroutine switches per strand interleaving, zero
//     everywhere else), and op cursors over a recorded trace. Once the
//     steal budget is spent on a machine without steal pricing, an idle
//     processor with an empty deque parks: it leaves the scheduler instead
//     of spinning doomed attempts to the end of the run, and the engine
//     charges those attempts in closed form after the run, bit for bit as
//     if they had run. That settles 6.26M of the serial full sweep's 6.62M
//     idle steps, nearly all in E01, E02, E04 and E06. Fork metadata
//     (join cells, spawns, strand coroutines, stolen tasks and their
//     stacks) is recycled through per-engine free lists fed by slab
//     allocations, and ForkN trees fork leaf *ranges* instead of per-node
//     closures, so the steady state allocates nothing.
//   - internal/harness replays race-free kernels: rws.Engine.Record walks a
//     kernel once, serially and depth-first with no scheduler, and every
//     later run of it at that block size interprets the recorded op
//     stream with rws.Engine.Replay — the same protocol steps, scheduler
//     and machine, with no strand coroutines, no kernel code and no
//     simulated values. One function, harness.TraceCache.Run, decides
//     for the sweep and for rwsimd whether a run replays or runs on
//     coroutines, and closes an engine whose run panicked. Its cache keeps
//     traces least recently used out, within the constant 2 MiB
//     harness.TraceBudget, which also limits each recording. The sweep's
//     cache lives for the process, and the full sweep records 31 traces
//     for its 312 replayed runs; each rwsimd server owns one, shared by
//     its workers. conncomp, whose jump step is a determinacy race, is the
//     only sweep kernel left on coroutines.
//   - internal/harness runs every experiment's grid one way: the
//     experiment lists its points (a kernel and an rws.Config), and one
//     helper runs each point once per seed, fanning the whole grid out
//     across host workers (experiments -par) with ordered results, so
//     sweep output is byte-identical to serial. The averaged rows share
//     one seed set and divide by its size.
//
// # Engine reuse (the Reset lifecycle)
//
// The sweeps run thousands of independent simulations, and PR 2's in-run
// pooling left *between-run* construction as the dominant per-run overhead
// (BenchmarkStealHeavy: ~380 KB and ~230 allocs/op, nearly all setup). The
// whole stack therefore supports in-place reinitialization:
//
//   - rws.Engine.Reset(cfg) readies a finished engine for another Run under
//     an arbitrarily different Config (P, policy, topology, pricing,
//     budget). Slabs, free lists, deque ring buffers, the scheduler's
//     tree and the suspended strand coroutines all survive; a reset engine
//     is persistent and must be released with Close when retired.
//   - Each layer has one initialization path: rws.NewEngine, machine.New,
//     cache.New and mem.New build an empty value and call its own Reset,
//     so a fresh engine and a reset one run the same set-up code.
//   - machine.Machine.Reset(params) resets coherence state by *generation
//     stamp*: directory pages carry the generation they were last valid
//     in, a reset bumps the counter in O(1) (marking every page stale by
//     hand when it wraps), and a stale page is re-zeroed lazily on first
//     touch, its node columns going to one free list that zeroes a column
//     only when it hands it out again — no O(arena) zeroing, no
//     reallocation; each cache relinks its recency list. mem.Memory moves
//     its value pages to a free list and re-zeroes them on next
//     materialization; exec.Pool recycles Stack structs while letting
//     regions re-allocate so created/reused stats and addresses match a
//     fresh run exactly.
//   - harness.Runner pools reset engines under the experiment sweeps: every
//     builder draws from the pool, so a full E01–E21 sweep constructs about
//     one engine per worker instead of one per run. A Result holds only the
//     simulated outcome; callers that want per-processor counters or the
//     engine's own bookkeeping read Engine.CopyCounters and Engine.Stats.
//
// Reused runs are bit-for-bit identical to fresh-engine runs — goldens
// (TestGoldenDeterminismReused), a randomized heterogeneous-sequence
// differential (TestEngineReuseMatchesFresh) and FuzzEngineReuse check that
// no state of an earlier run leaks into the next —
// and the steady state allocates 3 times per run (ceiling 10, enforced by
// scripts/bench.sh and CI on BenchmarkStealHeavyReuse/BenchmarkForkJoinReuse).
//
// # Running rwsimd (simulation as a service)
//
// cmd/rwsimd serves the simulator over HTTP/JSON: POST /simulate takes a
// policy-keyed request (workload, size, processors, seed, machine shape,
// steal policy, topology — see serve.Request), GET /workloads lists the
// registered kernels, GET /statz exposes the outcome counters, and GET
// /healthz flips to 503 once the daemon is draining. Engine determinism
// (same normalized request ⇒ byte-equal result) is load-bearing for the
// whole serving layer:
//
//   - one table keyed on the request's canonical Config hash both
//     deduplicates identical concurrent requests (they follow one flight)
//     and serves completed results from an LRU, and a result's runs are
//     marshalled once, by the worker, and written as those bytes by
//     /simulate, the batch stream, the journal, the grid and GET /corpus —
//     the serve tests assert cached, deduped and fresh responses are
//     byte-identical across every registered policy;
//   - admission is a token bucket (-rate/-burst → typed 429s) in front of a
//     bounded work queue (-queue → typed 503s), so overload degrades into
//     fast, typed rejections;
//   - workers replay each request's recorded op stream through the
//     server's trace cache (harness.TraceCache.Run, as the sweep does),
//     recording it on the first request for its (workload, size, block
//     size); conncomp and recordings past the budget run on coroutines,
//     with bit-identical results;
//   - per-request deadlines (deadline_ms, -deadline) cancel at simulator run
//     boundaries via context; a panicking run's engine is closed (a
//     quarantine) and the attempt is retried with backoff on a replacement
//     (-attempts/-backoff);
//   - SIGTERM/SIGINT drains gracefully: admission stops with typed 503s,
//     in-flight requests complete (bounded by -drain-grace), final stats
//     flush to the log;
//   - every request's life is traceable: "trace": true attaches an attempt
//     timeline (queued → dispatched → attempts/panics/backoffs →
//     cache/dedup resolution → typed outcome) to the response envelope
//     without touching the cached payload bytes, GET /tracez retains the
//     last -trace-buffer completed timelines, and GET /batch/{id} rows
//     report attempts and result source (fresh/cache/dedup/journal);
//   - batch jobs are durable: with -journal-dir every spec and row
//     completion is fsync'd to an append-only NDJSON journal whose replay
//     survives arbitrary crash/restart sequences — resume truncates torn
//     final records, atomically rewrites past corrupt lines before
//     appending, compacts finished jobs' logs to spec + one record per
//     terminal row, and ages out idle completed jobs (-journal-max-age) —
//     and doubles as a result corpus: -warm-cache loads journaled rows
//     into the result cache at startup, so a restarted daemon serves its
//     recorded corpus as cache hits (source=journal on the timeline)
//     without recomputing anything. The restart decodes the journal and
//     checks every row's result bytes on all CPUs, each with a one-pass
//     scanner that accepts exactly the bytes json.Marshal writes (the row
//     line's, then the result's; json.Unmarshal decodes any line the
//     first declines), then fills the cache in journal order; a row's
//     bytes are held once, shared by its job and its cache entry.
//
// The serve.FaultInjector hook (wired to the -inject-panic-every /
// -inject-stall-every / -inject-delay-every flags) deterministically
// sabotages chosen requests' first attempts; internal/serve's chaos suite
// uses it to prove, under -race, that a request storm with injected panics,
// stalls and stragglers yields only typed outcomes with nothing lost and
// results bit-identical to fault-free runs.
//
// Semantics are pinned by differential tests against the straightforward
// reference implementations (container/list LRU, map-based coherence), by
// comparing runs with the run-ahead deferral on and off
// (Config.DisableFastPath: the same protocol steps, re-entering the
// scheduler after every request), and by golden determinism tests: same Config.Seed, same Result, before and after the
// rewrites. scripts/bench.sh records the trajectory in BENCH_rws.json and
// fails when a tracked benchmark's median ns/op, alternated with the
// parent commit's build, is more than 25% slower.
//
// ROADMAP.md holds the open work and CHANGES.md the history; bench/README.md
// documents the end-to-end benchmark.
package rwsfs

// Version identifies the reproduction snapshot.
const Version = "1.0.0"

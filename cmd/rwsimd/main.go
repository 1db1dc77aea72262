// Command rwsimd serves the work-stealing false-sharing simulator as a
// fault-tolerant HTTP/JSON daemon.
//
//	rwsimd -addr :8080 -workers 4 -rate 50 -burst 100
//
// Endpoints:
//
//	POST /simulate         policy-keyed simulation request (JSON; see internal/serve.Request)
//	POST /batch            sweep spec → expanded row grid, streamed back as NDJSON
//	GET  /batch            known batch jobs
//	GET  /batch/{id}       per-row status of one batch job
//	GET  /batch/{id}/grid  the job's terminal rows (NDJSON, byte-stable across restarts)
//	GET  /corpus           the node's verified result corpus (NDJSON: header, rows, checksummed trailer)
//	GET  /tracez           ring buffer of the last -trace-buffer completed attempt timelines
//	GET  /healthz          liveness — 503 once draining so balancers stop routing here
//	GET  /statz            stable JSON snapshot: uptime, in-flight gauge, counters
//	GET  /workloads        registered workload names
//
// Workers replay recorded op streams: a request's op stream depends only on
// its workload, size and block size, so the first request for one records
// it by a serial walk of the kernel, and every later run, at any p, seed,
// policy, topology or budget, replays it without building inputs. Every
// run goes through harness.TraceCache.Run, the function that runs the
// experiment sweeps too. The daemon holds the traces in one cache shared
// by its workers, bounded by a constant 2 MiB (harness.TraceBudget; no
// flag sets it), evicting the least recently used; a recording past the
// budget is rejected and its key remembered. conncomp and rejected keys
// run the kernel on coroutines, with bit-identical results. /statz counts
// recordings, recordings_rejected, replays and trace_evictions, with a
// trace_bytes gauge; these are op traces, not the attempt timelines below.
//
// Any /simulate request may set "trace": true to get its attempt timeline —
// queued, dispatched, per-attempt panics and backoffs, cache/dedup
// resolution, typed outcome — attached to the response envelope (the result
// payload bytes are unchanged). GET /batch/{id} reports each row's attempt
// count and result source (fresh, cache, dedup, journal, peer) the same way.
//
// A batch job runs on -batch-parallel lanes, each taking the job's next
// unstarted row, and one committer. With -journal-dir set, the spec is
// fsync'd to an append-only NDJSON journal when the job starts, and the
// committer appends every row finished since its last commit with one write
// and one fsync, and only then streams those rows, so a streamed row is
// always a journaled one; a restarted daemon replays it, serves finished
// rows without recomputing them, and resumes the unfinished remainder — the
// final grid is byte-identical to an uninterrupted run, across arbitrarily
// many crash/restart cycles: resume truncates a torn final record before
// appending, and a journal whose replay stopped at a corrupt line is
// rewritten from its intact prefix (write-temp + fsync + rename) so new
// appends are never stranded behind the corruption. Finished jobs whose logs
// carry waste are compacted down to spec + one record per terminal row.
//
// -warm-cache loads every journaled OK row into the LRU result cache at
// startup, so a restarted daemon answers matching /simulate requests as
// cache hits (timeline detail source=journal) with payload bytes identical
// to the journaled result. -max-batch-jobs caps how many completed jobs stay
// in memory and on the journal: past the cap the oldest completed jobs are
// evicted and their journal files deleted. -journal-max-age bounds the
// journal directory in time: completed jobs (and orphaned journal files)
// idle longer than the age are evicted at startup and periodically;
// unfinished jobs are never aged out.
//
// The corpus travels between nodes: -peers host:port,... makes a starting
// daemon pull GET /corpus from the first reachable sibling — in the
// background, after the listener is up, so warm-up never delays serving —
// and load every verified row into the result cache with source=peer
// provenance. Each imported row must re-canonicalize to its advertised key
// and its result bytes must be exactly what json.Marshal writes for the
// runs they hold (the same check -warm-cache applies), so a corrupt or
// adversarial peer can pollute nothing (rejects land in the
// corpus_rejected_rows counter). Transfers are bounded by -peer-timeout,
// retried with capped exponential backoff, and fail over across peers; when
// every peer is down the daemon simply cold-starts. The export stream is
// checksummed end to end, so truncation and tampering are always detected.
//
// A SIGTERM or SIGINT triggers graceful drain: admission stops with typed
// 503s, in-flight requests and the batch rows a lane took run to completion
// (bounded by -drain-grace) and are journaled; batch rows no lane took stay
// unstarted for the next process. The HTTP listener shuts down and the final
// stats are flushed to the log.
//
// The -inject-* flags wire a serve.FaultInjector for chaos drills: they
// deterministically pick requests (by canonical key) whose first attempt is
// delayed, panicked (its first run is a kernel that panics on a pooled
// engine), or stalled, exercising the retry, quarantine and deadline paths
// against real traffic shapes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rwsfs/internal/serve"
)

func main() {
	// Each flag writes its Config field directly and shows serve's own
	// default, so no default is restated here.
	cfg := serve.DefaultConfig()
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "simulation workers, each with its own engine pool (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "bounded work-queue depth; a full queue sheds load with typed 503s")
	flag.Float64Var(&cfg.Rate, "rate", cfg.Rate, "admission budget in requests/sec (0 = unlimited)")
	flag.IntVar(&cfg.Burst, "burst", cfg.Burst, "admission burst size (defaults to 1 when -rate is set)")
	flag.IntVar(&cfg.CacheEntries, "cache", cfg.CacheEntries, "LRU result-cache entries (-1 disables caching)")
	flag.IntVar(&cfg.MaxAttempts, "attempts", cfg.MaxAttempts, "attempt budget per request around panicking runs")
	flag.DurationVar(&cfg.RetryBackoff, "backoff", cfg.RetryBackoff, "base retry backoff (doubled per retry)")
	flag.DurationVar(&cfg.DefaultDeadline, "deadline", cfg.DefaultDeadline, "default per-request deadline when the request carries none (0 = none)")
	flag.DurationVar(&cfg.DrainGrace, "drain-grace", cfg.DrainGrace, "how long shutdown waits for in-flight requests before hard-cancelling")
	flag.IntVar(&cfg.Limits.MaxN, "max-n", cfg.Limits.MaxN, "largest accepted problem size")
	flag.IntVar(&cfg.Limits.MaxP, "max-p", cfg.Limits.MaxP, "largest accepted simulated processor count")
	flag.IntVar(&cfg.Limits.MaxRuns, "max-runs", cfg.Limits.MaxRuns, "widest accepted seed sweep")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", cfg.MaxBodyBytes, "largest accepted request body in bytes (typed 413 beyond)")

	flag.StringVar(&cfg.JournalDir, "journal-dir", cfg.JournalDir, "durable batch-job journal directory (empty = batch jobs die with the process)")
	flag.BoolVar(&cfg.WarmCache, "warm-cache", cfg.WarmCache, "load journaled row results into the result cache at startup")
	flag.DurationVar(&cfg.JournalMaxAge, "journal-max-age", cfg.JournalMaxAge, "evict completed batch jobs whose journal is idle this long (0 = never)")
	flag.IntVar(&cfg.QuarantineAfter, "quarantine-after", cfg.QuarantineAfter, "circuit-break a request key after it panics on this many distinct engines (-1 = off)")
	flag.IntVar(&cfg.MaxBatchRows, "max-batch-rows", cfg.MaxBatchRows, "largest row grid one batch spec may expand to")
	flag.IntVar(&cfg.MaxBatchJobs, "max-batch-jobs", cfg.MaxBatchJobs, "completed batch jobs retained in memory and on the journal (-1 = unbounded)")
	flag.IntVar(&cfg.BatchParallel, "batch-parallel", cfg.BatchParallel, "lanes per batch job, each computing one row at a time while the job's journal commits in groups (0 = workers)")
	flag.IntVar(&cfg.TraceBuffer, "trace-buffer", cfg.TraceBuffer, "completed attempt timelines retained for GET /tracez (-1 disables the ring)")

	flag.StringVar(&cfg.NodeID, "node-id", cfg.NodeID, "node identity in GET /corpus export headers (empty = random per process)")
	peers := flag.String("peers", "", "comma-separated sibling rwsimd nodes (host:port or URL) whose verified corpus warms the result cache at startup (never delays serving)")
	flag.DurationVar(&cfg.PeerTimeout, "peer-timeout", cfg.PeerTimeout, "per-peer corpus transfer bound, connect and read included")

	injPanic := flag.Int("inject-panic-every", 0, "chaos: panic the first attempt of every Nth request key (0 = off)")
	injStall := flag.Int("inject-stall-every", 0, "chaos: stall the first attempt of every Nth request key (0 = off)")
	injDelay := flag.Int("inject-delay-every", 0, "chaos: delay the first attempt of every Nth request key (0 = off)")
	injDelayBy := flag.Duration("inject-delay", 50*time.Millisecond, "chaos: how long -inject-delay-every delays an attempt")
	flag.Parse()

	cfg.Peers = splitPeers(*peers)
	cfg.Injector = buildInjector(*injPanic, *injStall, *injDelay, *injDelayBy)
	cfg.Logf = log.Printf
	if cfg.Injector != nil {
		log.Printf("rwsimd: CHAOS MODE — fault injection active (panic=1/%d stall=1/%d delay=1/%d by %s)",
			*injPanic, *injStall, *injDelay, *injDelayBy)
	}

	srv := serve.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("rwsimd: listening on %s (workers=%d queue=%d rate=%g cache=%d)",
		*addr, cfg.Workers, cfg.QueueDepth, cfg.Rate, cfg.CacheEntries)

	select {
	case s := <-sig:
		log.Printf("rwsimd: %s — draining", s)
	case err := <-errc:
		log.Fatalf("rwsimd: listener failed: %v", err)
	}

	// Drain first so /healthz flips to 503 and /simulate sheds with typed
	// rejections while the listener winds down in-flight connections.
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainGrace+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("rwsimd: HTTP shutdown: %v", err)
	}
	srv.Close()
	log.Printf("rwsimd: shutdown complete")
}

// splitPeers parses the -peers list, dropping empty segments so trailing or
// doubled commas are harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildInjector turns the -inject-* knobs into a serve.FaultInjector, or nil
// when all are off. Selection hashes the request's canonical key, so a given
// request is deterministically faulty across retries of the drill — but only
// its first attempt (attempt 0) is sabotaged, leaving the retry and deadline
// machinery to dig the request out.
func buildInjector(panicEvery, stallEvery, delayEvery int, delayBy time.Duration) serve.FaultInjector {
	if panicEvery <= 0 && stallEvery <= 0 && delayEvery <= 0 {
		return nil
	}
	return func(worker, attempt int, key string) serve.Fault {
		if attempt != 0 {
			return serve.Fault{}
		}
		h := fnv.New32a()
		fmt.Fprint(h, key)
		n := h.Sum32()
		var f serve.Fault
		if panicEvery > 0 && n%uint32(panicEvery) == 0 {
			f.Panic = true
		}
		if stallEvery > 0 && n%uint32(stallEvery) == 1%uint32(stallEvery) {
			f.Stall = true
		}
		if delayEvery > 0 && n%uint32(delayEvery) == 2%uint32(delayEvery) {
			f.Delay = delayBy
		}
		return f
	}
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/rws"
)

// job is one queued computation. The worker sends exactly one resolved on
// res, which is buffered for it, so a worker finishing after the requester
// gave up never blocks.
type job struct {
	ctx context.Context
	req *Request
	key string
	res chan resolved
	// tr, when non-nil, collects this job's attempt timeline; trace methods
	// are locked and nil-safe.
	tr *trace
}

// errRunPanicked marks an attempt that died to a recovered panic (retryable:
// the poisoned engine was quarantined and the next attempt draws a
// replacement from the pool).
var errRunPanicked = errors.New("serve: run panicked")

// worker owns one shard of the engine fleet: a harness.Runner pool whose
// engines are Reset between requests instead of rebuilt. Requests are
// sharded across workers by queue order; a quarantined engine only ever
// costs its own worker a rebuild. Workers share the server's trace cache.
type worker struct {
	id   int
	s    *Server
	pool harness.Runner
}

// loop consumes jobs until the queue closes. Jobs whose deadline expired
// while queued are answered without simulating.
func (w *worker) loop() {
	defer w.s.workerWG.Done()
	defer w.pool.Close()
	for j := range w.s.queue {
		if j.ctx.Err() != nil {
			j.tr.add(evDispatched, w.id, -1, "expired while queued")
			j.res <- resolved{reject: w.s.errCtxExpired(j.ctx)}
			continue
		}
		j.tr.add(evDispatched, w.id, -1, "")
		w.process(j)
	}
}

// process runs one job with retry-with-backoff around panicking attempts.
// The per-key circuit breaker short-circuits both sides of the retry loop:
// a key that already panicked on QuarantineAfter distinct engines (here or
// on any other worker, this process lifetime) is answered with a typed
// row_quarantined instead of burning attempts poisoning more engines.
func (w *worker) process(j *job) {
	max := w.s.cfg.MaxAttempts
	var reject *apiError
	tried := 0
	for a := 0; a < max; a++ {
		if w.s.breaker.Tripped(j.key) {
			j.tr.add(evQuarantined, w.id, a, fmt.Sprintf("breaker tripped after %d panics", w.s.breaker.Panics(j.key)))
			reject = errQuarantined(w.s.breaker.Panics(j.key))
			break
		}
		if a > 0 {
			w.s.stats.add(&w.s.stats.Retries, 1)
			d := retryBackoff(w.s.cfg.RetryBackoff, a)
			j.tr.add(evBackoff, w.id, a, d.String())
			if !sleepCtx(j.ctx, d) {
				reject = w.s.errCtxExpired(j.ctx)
				break
			}
			j.tr.add(evRetried, w.id, a, "")
		}
		tried++
		j.tr.add(evAttempt, w.id, a, "")
		p, err := w.attempt(j, a)
		if err == nil {
			j.res <- resolved{p: p, attempts: tried}
			return
		}
		if errors.Is(err, errRunPanicked) {
			// Every panicking attempt poisoned (and quarantined) one distinct
			// engine; the breaker counts them across workers and retries.
			j.tr.add(evPanicked, w.id, a, err.Error())
			if w.s.breaker.Record(j.key) {
				j.tr.add(evQuarantined, w.id, a, fmt.Sprintf("breaker tripped after %d panics", w.s.breaker.Panics(j.key)))
				reject = errQuarantined(w.s.breaker.Panics(j.key))
				break
			}
			reject = errInternal(fmt.Sprintf("simulation panicked %d time(s): %v", a+1, err))
			continue // retry on a replacement engine
		}
		// Non-panic attempt errors split three ways: the job context ended
		// (the client's deadline, or the drain hard-stop — errCtxExpired
		// tells them apart), or the run itself failed, which is a typed 500,
		// not the client's 504.
		if j.ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			reject = w.s.errCtxExpired(j.ctx)
		} else {
			reject = errInternal(fmt.Sprintf("run failed: %v", err))
		}
		break
	}
	if reject == nil {
		reject = errInternal("retries exhausted")
	}
	j.res <- resolved{reject: reject, attempts: tried}
}

// Retry backoff is exponential in the attempt ordinal but clamped twice: the
// shift is capped so the multiplier itself cannot overflow, and the product
// is capped at maxRetryBackoff (or the base, if the operator configured a
// base above the cap). The old unclamped `base << (a-1)` went negative past
// attempt ~40 with the default 5ms base, and sleepCtx treats a non-positive
// duration as "no sleep" — high-attempt configs were spinning hot instead of
// backing off.
const (
	maxRetryBackoff = 5 * time.Second
	maxBackoffShift = 16
)

func retryBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	ceil := maxRetryBackoff
	if base > ceil {
		ceil = base
	}
	d := base << uint(shift)
	if d <= 0 || d > ceil {
		return ceil
	}
	return d
}

// attempt executes every run of the request once, on engines checked out of
// this worker's pool. The fault injector is consulted once per attempt.
// Panics — injected or from algorithm code — are recovered per run, the
// engine involved is quarantined, and the attempt reports errRunPanicked so
// process can retry.
func (w *worker) attempt(j *job, attempt int) (*payload, error) {
	var fault Fault
	if inj := w.s.cfg.Injector; inj != nil {
		fault = inj(w.id, attempt, j.key)
	}
	if fault.Delay > 0 && !sleepCtx(j.ctx, fault.Delay) {
		return nil, j.ctx.Err()
	}
	if fault.Stall {
		// A stuck engine never comes back on its own; the request's deadline
		// (or the server's drain hard-stop) is what ends the wait. The stall
		// happens before checkout, so no engine is held hostage.
		<-j.ctx.Done()
		return nil, j.ctx.Err()
	}

	cfg, err := j.req.config()
	k, ok := harness.Workload(j.req.Alg, j.req.N)
	if err != nil || !ok {
		// Unreachable after validation; surface as a panic-class failure.
		return nil, fmt.Errorf("%w: alg %q: %v", errRunPanicked, j.req.Alg, err)
	}

	out := make([]RunSummary, 0, j.req.Runs)
	for i := 0; i < j.req.Runs; i++ {
		// The deadline lands at run boundaries: a started run always
		// completes (determinism forbids tearing one mid-flight), so a
		// cancelled sweep returns promptly after the current run.
		if j.ctx.Err() != nil {
			return nil, j.ctx.Err()
		}
		runCfg := cfg
		runCfg.Seed = cfg.Seed + int64(i)
		rk := k
		if fault.Panic && i == 0 {
			rk = injectedPanic
		}
		sum, err := w.runOne(rk, runCfg)
		if err != nil {
			return nil, err
		}
		out = append(out, sum)
	}
	// The one place runs are marshalled: every surface writes these bytes.
	runs, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return &payload{Key: j.key, Alg: j.req.Alg, Runs: runs, req: wireRequest(*j.req)}, nil
}

// injectedPanic is the kernel Fault.Panic runs in place of an attempt's
// first run: it has no key, so it runs on coroutines, on an engine from the
// worker's pool, and its root panics.
var injectedPanic = harness.Kernel{Make: func(pool *harness.Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
	return pool.Engine(cfg), func(*rws.Ctx) { panic("serve: injected kernel panic") }
}}

// runOne performs a single simulated run through the server's trace cache
// (harness.TraceCache.Run): a keyed kernel replays its trace, recorded on a
// miss, and conncomp and rejected keys run on coroutines. It counts what
// the cache changed, and a run that returned a Result as a simulation. A
// run that panicked, recording or running, had its engine closed by Run,
// never recycled, so the pool replaces it with a fresh build on the next
// checkout: it counts as a panic and a quarantine and returns
// errRunPanicked.
func (w *worker) runOne(k harness.Kernel, cfg rws.Config) (RunSummary, error) {
	res, ch, err := w.s.traces.Run(&w.pool, k, cfg)
	w.s.stats.addTraceChange(ch)
	if err != nil {
		w.s.stats.add(&w.s.stats.Panics, 1)
		w.s.stats.add(&w.s.stats.Quarantined, 1)
		return RunSummary{}, fmt.Errorf("%w: %v", errRunPanicked, err)
	}
	w.s.stats.add(&w.s.stats.Simulations, 1)
	return summarize(cfg.Seed, res), nil
}

// sleepCtx sleeps for d unless ctx ends first; false means interrupted.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Package serve implements rwsimd's serving layer: a fault-tolerant HTTP/
// JSON front end over the deterministic simulator. Requests are policy-keyed
// simulation configurations (canonical Config hash + seed); the daemon
// shards them across per-worker pools of reusable engines and wraps the
// whole path in a robustness layer:
//
//   - token-bucket admission control with typed 429 rejections, and a
//     bounded work queue that sheds load with typed 503s — a request storm
//     degrades into fast rejections instead of melting the host;
//   - per-request deadlines propagated via context.Context into the sweep
//     loop, landing at run boundaries (individual runs always complete, so
//     the runs that did execute stay bit-for-bit deterministic);
//   - one key-resolution path (resolve) for /simulate and batch rows alike,
//     through one table keyed on the canonical Config hash (resultCache):
//     a key is in flight, its followers sharing its leader's computation,
//     or settled in an LRU. Engine determinism (same Config+Seed ⇒
//     byte-equal Result) gives each key one result, so the worker marshals
//     a result's runs once and every surface writes those bytes as they
//     are, and the cache tests assert the byte equality end to end;
//   - replay: a request's op stream is fixed by its workload, size and
//     block size, so a worker runs it through the server's one
//     harness.TraceCache (TraceCache.Run), shared by the workers and
//     bounded by the constant harness.TraceBudget (2 MiB). Run replays the
//     kernel's recorded trace instead of building its inputs and running
//     its code; a miss records it once, by a serial walk on an engine from
//     the worker's own pool, stopping at the budget; conncomp, whose op
//     stream depends on the schedule, and rejected keys run on coroutines.
//     Results are bit-identical either way. /statz counts recordings,
//     rejected recordings, replays, trace evictions and the trace bytes;
//   - panic recovery: Run closes the engine a recording or a run panicked
//     on, so the pool replaces it (a quarantine), and the worker retries
//     the attempt with backoff;
//   - graceful drain: Drain stops admission (typed 503s), in-flight requests
//     finish, Close flushes the final stats.
//
// On top of /simulate sits the durable batch surface (package jobs):
// POST /batch expands a sweep spec into row-level work items and streams
// completed rows back as NDJSON; GET /batch/{id} reports per-row status and
// GET /batch/{id}/grid re-serves the terminal rows. A job runs on
// BatchParallel lanes, each taking the next unstarted row and resolving it
// through the same worker fleet, and on one committer, which journals every
// row the lanes have finished since its last commit with one write and one
// fsync, then publishes those rows in journal order: a row is streamed,
// counted and in the grid only once its line is durable, and no lane waits
// for a fsync. With a journal directory configured, the spec and every row
// completion are in an append-only log: a restarted server resumes
// unfinished jobs, serves journaled rows without recomputing them, and —
// because row keys and expansion order are canonical — produces a final
// grid byte-identical to an uninterrupted run. That identity holds across
// arbitrary crash/restart sequences: resume truncates a torn final record
// before appending, and a journal whose replay stopped at a corrupt line is
// atomically rewritten from its intact prefix before any append, so no
// record is ever stranded behind corruption. A per-row-key circuit breaker quarantines configurations
// that panic across QuarantineAfter distinct engines (typed row_quarantined),
// so one poisoned cell cannot sink the rest of its job. Drain extends to
// batches: rows a lane took finish and are journaled, rows no lane took stay
// unstarted, zero rows lost. Retention keeps a long-lived daemon bounded:
// past MaxBatchJobs, the oldest completed jobs are evicted from the index
// and their journal files deleted (unfinished jobs never are);
// JournalMaxAge adds a time bound with startup + periodic GC, and finished
// jobs' logs are compacted at resume to spec + one record per terminal row.
// The journal doubles as a result corpus: WarmCache loads journaled rows
// into the LRU result cache at startup, so the restarted daemon serves its
// recorded corpus as cache hits with source=journal timeline provenance.
// A warm restart uses every CPU before /healthz answers: Journal.Replay
// decodes the job files concurrently, each row line that json.Marshal wrote
// with a one-pass scanner and any other line with json.Unmarshal (the
// scanner's fallback and fuzz oracle), and prepareJournal expands the
// specs, keys the rows and passes each journaled result through
// canonicalRuns, a one-pass scanner that accepts exactly json.Marshal's
// bytes, in units of at most a few hundred rows. The jobs are then rebuilt
// and the cache filled one row at a time in journal order, so the cache,
// its LRU order, the counters and the log are those of a single pass.
//
// The corpus also travels between nodes. GET /corpus streams the node's
// verified results (its journaled jobs' OK rows plus live cache entries) as
// canonical NDJSON — a header with node identity, one row per entry carrying
// the canonical key, the normalized request and the exact cacheable result
// bytes, and an end trailer with a running checksum so truncation or
// tampering is always detectable. With Peers configured, a fresh node pulls
// that stream from the first reachable sibling at startup (in the background,
// never delaying its own serving), re-verifies every row, inserts it through
// the same sink as WarmCache, and serves the fleet's working set as cache
// hits with source=peer provenance. The warm-up retries with capped
// exponential backoff, fails over across peers, stops inserting once the
// cache is full, and degrades to a cold start when the whole fleet is down.
//
// The FaultInjector hook injects delayed, panicking and stuck attempts —
// plus truncated, corrupted, stalled and erroring corpus exports — so the
// chaos suite can prove all of the above under a request storm. An
// injected panic runs a keyless kernel that panics in place of the
// attempt's first run, so it poisons an engine that really ran it, whether
// or not the key's trace is cached.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/serve/jobs"
)

// Config tunes the daemon; zero values take the documented defaults.
type Config struct {
	// Workers is the number of simulation workers, each owning its own
	// engine pool (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the work queue; a full queue sheds load with typed
	// 503s (default 64).
	QueueDepth int
	// Rate and Burst set the token-bucket admission budget in requests per
	// second; Rate <= 0 disables the limiter.
	Rate  float64
	Burst int
	// CacheEntries bounds the LRU result cache (default 1024). A negative
	// value keeps no results: concurrent identical requests still share one
	// computation, and a later one computes again.
	CacheEntries int
	// MaxAttempts is the per-request attempt budget around panicking runs
	// (default 3: one try, two retries).
	MaxAttempts int
	// RetryBackoff is the base backoff before retry k (doubled per retry,
	// default 5ms).
	RetryBackoff time.Duration
	// DefaultDeadline bounds requests that carry no deadline_ms of their
	// own; 0 means no default deadline.
	DefaultDeadline time.Duration
	// DrainGrace is how long Close waits for in-flight requests before
	// hard-cancelling them (default 30s).
	DrainGrace time.Duration
	// Limits bound what a single request may ask for.
	Limits Limits
	// MaxBodyBytes bounds request bodies (/simulate and /batch alike); an
	// oversized body is rejected with a typed 413 instead of being decoded
	// unboundedly (default 1 MiB).
	MaxBodyBytes int64
	// JournalDir, when non-empty, enables the durable batch-job journal: a
	// batch's spec is fsync'd there when the job starts, and its finished
	// rows in groups, one write and one fsync for every row finished since
	// the job's last commit, each row published only after its group's
	// fsync; a restarted server resumes unfinished jobs from it. Empty
	// disables durability (batch jobs still work, but die with the process).
	JournalDir string
	// WarmCache, with a journal configured, loads every replayed RowOK
	// record into the LRU result cache at startup: row keys are exactly
	// /simulate's canonical SHA-256 keys and the journaled result bytes are
	// exactly the cacheable runs payload, so a restarted daemon serves its
	// recorded corpus as cache hits (timeline cache_hit events carry
	// source=journal provenance) instead of recomputing it. Rows whose
	// bytes fail canonicalRuns are logged and skipped, and inserts stop at
	// the cache's capacity. The replay and the checks run on every CPU;
	// the inserts follow in journal order.
	WarmCache bool
	// JournalMaxAge, when positive, bounds how long a *completed* batch job
	// outlives its last journal append: a startup sweep plus a periodic GC
	// evict completed jobs older than this and delete their journal files
	// (orphaned journal files that back no indexed job age out the same
	// way). Unfinished jobs are never aged out — they are the resume
	// surface. 0 disables age-based GC; MaxBatchJobs still bounds the
	// directory by count.
	JournalMaxAge time.Duration
	// QuarantineAfter is the per-row-key circuit breaker threshold: a
	// configuration that panics on this many distinct engines is answered
	// with a typed row_quarantined instead of burning more retry budget
	// (default 3; negative disables the breaker).
	QuarantineAfter int
	// MaxBatchRows bounds how many rows one batch spec may expand to
	// (default 4096).
	MaxBatchRows int
	// MaxBatchJobs bounds the in-memory batch-job index: when a new job
	// pushes the index past the cap, the oldest completed jobs are evicted
	// and their journal files deleted (their grids were fully served and
	// hold no resume value). Unfinished jobs are never evicted. Default 64;
	// negative disables retention (the index and journal grow without bound).
	MaxBatchJobs int
	// BatchParallel is how many lanes run one batch job: each lane takes the
	// job's next unstarted row, resolves it and hands it to the job's
	// committer without waiting for the journal, so at most this many of the
	// job's rows are computing at once (default: Workers).
	BatchParallel int
	// TraceBuffer is how many completed attempt timelines GET /tracez
	// retains (default 256; negative disables the ring — per-request
	// "trace": true opt-in still works).
	TraceBuffer int
	// NodeID identifies this node in GET /corpus export headers so a fleet
	// operator can tell whose corpus a warm-up pulled; "" means a random id
	// per process.
	NodeID string
	// Peers lists sibling rwsimd nodes ("host:port" or a full URL). When it
	// is non-empty, the node pulls GET /corpus from the first reachable
	// sibling at startup and loads every verified row into the result cache
	// with source=peer provenance. The warm-up runs in the background — it
	// never delays serving — and every imported row passes the full
	// verification gate (the request must re-canonicalize to the advertised
	// key, the result bytes must be exactly json.Marshal's for their runs),
	// so a corrupt or adversarial peer can pollute nothing.
	Peers []string
	// PeerTimeout bounds one peer corpus transfer end to end, connect and
	// read included (default 10s) — a stalled peer costs at most this long
	// before the warm-up retries or fails over.
	PeerTimeout time.Duration
	// PeerAttempts is the per-peer attempt budget during warm-up (default
	// 3); once a peer exhausts it the warm-up fails over to the next peer,
	// and when every peer is down the node degrades to a cold start.
	PeerAttempts int
	// PeerBackoff is the base backoff between per-peer warm-up retries,
	// doubled per retry with the same overflow cap as request retries
	// (default 100ms).
	PeerBackoff time.Duration
	// Injector, when non-nil, injects faults into worker attempts (chaos
	// testing only).
	Injector FaultInjector
	// Logf, when non-nil, receives operational log lines (drain progress,
	// final stats).
	Logf func(format string, args ...any)
	// now overrides the admission clock in tests.
	now func() time.Time
}

// DefaultConfig returns the values New gives a zero Config, except
// Workers and BatchParallel: they stay 0, which New derives from GOMAXPROCS.
func DefaultConfig() Config {
	c := Config{}.withDefaults()
	c.Workers, c.BatchParallel = 0, 0
	return c
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 1024
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	switch {
	case c.QuarantineAfter == 0:
		c.QuarantineAfter = 3
	case c.QuarantineAfter < 0:
		c.QuarantineAfter = 0 // breaker disabled
	}
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = 4096
	}
	switch {
	case c.MaxBatchJobs == 0:
		c.MaxBatchJobs = 64
	case c.MaxBatchJobs < 0:
		c.MaxBatchJobs = 0 // retention disabled
	}
	if c.BatchParallel <= 0 {
		c.BatchParallel = c.Workers
	}
	switch {
	case c.TraceBuffer == 0:
		c.TraceBuffer = 256
	case c.TraceBuffer < 0:
		c.TraceBuffer = 0 // ring disabled
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 10 * time.Second
	}
	if c.PeerAttempts <= 0 {
		c.PeerAttempts = 3
	}
	if c.PeerBackoff <= 0 {
		c.PeerBackoff = 100 * time.Millisecond
	}
	c.Limits = c.Limits.withDefaults()
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Stats is a snapshot of the daemon's counters; every received /simulate
// request ends in exactly one of the outcome counters (OK, Invalid,
// RateLimited, QueueFull, DrainRejected, DeadlineExpired, TooLarge,
// Internal), which is how the chaos suite proves no request is ever lost.
// The batch counters account for the /batch surface separately: BatchRows
// counts rows brought to a terminal state by this process (journal-replayed
// rows are not recomputed and not recounted).
type Stats struct {
	Received        int64 `json:"received"`
	OK              int64 `json:"ok"`
	Invalid         int64 `json:"invalid"`
	RateLimited     int64 `json:"rate_limited"`
	QueueFull       int64 `json:"queue_full"`
	DrainRejected   int64 `json:"drain_rejected"`
	DeadlineExpired int64 `json:"deadline_expired"`
	TooLarge        int64 `json:"body_too_large"`
	Internal        int64 `json:"internal"`

	CacheHits   int64 `json:"cache_hits"`
	CacheWarmed int64 `json:"cache_warmed"`
	Dedups      int64 `json:"dedups"`
	// Simulations counts runs that returned a Result. A run that panicked
	// counts once in Panics and once in Quarantined: its engine is closed.
	Simulations int64 `json:"simulations"`
	Panics      int64 `json:"panics"`
	Retries     int64 `json:"retries"`
	Quarantined int64 `json:"quarantined"`

	BatchJobs       int64 `json:"batch_jobs"`
	BatchRows       int64 `json:"batch_rows"`
	RowsQuarantined int64 `json:"rows_quarantined"`
	// JournalCommits counts the groups of batch rows journaled with one
	// write and one fsync, so BatchRows over JournalCommits is the rows per
	// fsync when every row is journaled.
	JournalCommits int64 `json:"journal_commits"`

	// Fleet corpus sharing: rows streamed out of GET /corpus, rows imported
	// from / rejected by the peer warm-up verification gate, warm-up rows
	// skipped because the cache was full (journal and peer warm-up alike),
	// and failed peer transfer attempts.
	CorpusExported int64 `json:"corpus_exported_rows"`
	CorpusImported int64 `json:"corpus_imported_rows"`
	CorpusRejected int64 `json:"corpus_rejected_rows"`
	WarmSkipped    int64 `json:"warm_skipped_rows"`
	PeerFailures   int64 `json:"peer_warm_failures"`

	// Op traces — the recorded kernel op streams workers replay, not the
	// attempt timelines of "trace": true and /tracez: recordings made on a
	// trace cache miss, the recordings rejected among them, runs replayed
	// from a cached trace (Simulations counts them too), and traces evicted
	// to keep the cache within harness.TraceBudget. TraceBytes is a gauge:
	// the bytes the cache holds, a remembered rejected key counting one
	// 48 KiB chunk.
	Recordings         int64 `json:"recordings"`
	RecordingsRejected int64 `json:"recordings_rejected"`
	Replays            int64 `json:"replays"`
	TraceEvictions     int64 `json:"trace_evictions"`
	TraceBytes         int64 `json:"trace_bytes"`
}

// add bumps one counter; all counter access is atomic.
func (st *Stats) add(f *int64, n int64) { atomic.AddInt64(f, n) }

// addTraceChange counts what one trace cache run changed, and its replay.
func (st *Stats) addTraceChange(ch harness.TraceChange) {
	if ch.Recorded {
		st.add(&st.Recordings, 1)
	}
	if ch.Rejected {
		st.add(&st.RecordingsRejected, 1)
	}
	if ch.Replayed {
		st.add(&st.Replays, 1)
	}
	st.add(&st.TraceEvictions, ch.Evicted)
	st.add(&st.TraceBytes, ch.Bytes)
}

// snapshot copies the counters atomically. It walks the struct's fields, so
// a new counter can never be left out; every field must be an int64.
func (st *Stats) snapshot() Stats {
	var out Stats
	src, dst := reflect.ValueOf(st).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < src.NumField(); i++ {
		dst.Field(i).SetInt(atomic.LoadInt64(src.Field(i).Addr().Interface().(*int64)))
	}
	return out
}

// Server is the rwsimd daemon: an http.Handler plus the worker fleet behind
// it. Construct with New, serve via any http.Server, and shut down with
// Drain (stop admitting) followed by Close (wait for in-flight work, stop
// workers, flush stats).
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   chan *job
	bucket  *tokenBucket
	cache   *resultCache
	breaker *jobs.Breaker
	tracer  *tracer
	traces  harness.TraceCache // op traces, shared by the workers
	stats   Stats

	start    time.Time
	inFlight atomic.Int64

	// nodeID identifies this node in corpus export headers; corpusExports
	// numbers exports so the fault injector can build per-export chaos
	// schedules. warmDone closes when the peer warm-up goroutine finishes
	// (immediately when warm-up is disabled) — tests and operators can wait
	// on it without polling.
	nodeID        string
	corpusExports atomic.Int64
	warmDone      chan struct{}

	// journal, when non-nil, is the durable batch-job log; batches indexes
	// every known job (live, finished, and journal-replayed) by id.
	journal    *jobs.Journal
	batchMu    sync.Mutex
	batches    map[string]*batchEntry
	batchOrder []string

	// baseCtx outlives any single request: shared computations run under it
	// (plus the request deadline) so one client disconnecting cannot kill a
	// result other requests are waiting on. Close cancels it after the drain
	// grace to hard-stop wedged work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	drainMu   sync.RWMutex
	draining  bool
	handlerWG sync.WaitGroup
	workerWG  sync.WaitGroup
	closeOnce sync.Once
}

// New builds the daemon, starts its workers, and — when JournalDir is set —
// replays the batch-job journal, resuming any job that a previous process
// left unfinished.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		queue:   make(chan *job, cfg.QueueDepth),
		bucket:  newTokenBucket(cfg.Rate, cfg.Burst, cfg.now),
		cache:   newResultCache(cfg.CacheEntries),
		breaker: jobs.NewBreaker(cfg.QuarantineAfter),
		tracer:  newTracerRing(cfg.TraceBuffer),
		batches: make(map[string]*batchEntry),
		start:   time.Now(),
	}
	s.nodeID = cfg.NodeID
	if s.nodeID == "" {
		if id, err := newJobID(); err == nil {
			s.nodeID = "node-" + id
		} else {
			s.nodeID = "node-unknown"
		}
	}
	s.warmDone = make(chan struct{})
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /batch", s.handleBatchSubmit)
	s.mux.HandleFunc("GET /batch", s.handleBatchList)
	s.mux.HandleFunc("GET /batch/{id}", s.handleBatchStatus)
	s.mux.HandleFunc("GET /batch/{id}/grid", s.handleBatchGrid)
	s.mux.HandleFunc("GET /corpus", s.handleCorpus)
	s.mux.HandleFunc("GET /tracez", s.handleTracez)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	s.mux.HandleFunc("GET /workloads", s.handleWorkloads)
	if cfg.JournalDir != "" {
		jr, err := jobs.OpenJournal(cfg.JournalDir)
		if err != nil {
			cfg.Logf("serve: batch journal DISABLED (jobs will not survive restarts): %v", err)
		} else {
			jr.Logf = cfg.Logf
			s.journal = jr
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{id: i, s: s}
		s.workerWG.Add(1)
		go w.loop()
	}
	s.resumeJournaledJobs()
	// GC runs after resume so an unfinished job's journal is indexed (and
	// therefore protected) before the sweep looks for aged-out files.
	s.gcJournals()
	if s.journal != nil && cfg.JournalMaxAge > 0 {
		s.workerWG.Add(1)
		go s.gcLoop()
	}
	// Peer warm-up runs last and fully in the background: the server is
	// already serving (a dead fleet must never prevent a node from coming
	// up), and the goroutine rides workerWG so Close's baseCancel →
	// workerWG.Wait sequence stops it deterministically.
	if len(cfg.Peers) > 0 {
		s.workerWG.Add(1)
		go s.warmFromPeers()
	} else {
		close(s.warmDone)
	}
	return s
}

// gcLoop re-runs the age-based journal GC periodically until the server's
// base context is cancelled (Close). The interval tracks JournalMaxAge so
// an expired job is collected within roughly half the age bound, clamped so
// tiny ages cannot busy-loop and huge ages still sweep every minute.
func (s *Server) gcLoop() {
	defer s.workerWG.Done()
	interval := s.cfg.JournalMaxAge / 2
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.gcJournals()
		case <-s.baseCtx.Done():
			return
		}
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting new requests: /simulate answers typed 503s and
// /healthz reports draining (so load balancers stop routing here), while
// requests already in flight run to completion. Safe to call repeatedly.
func (s *Server) Drain() {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		s.cfg.Logf("serve: draining — admission stopped, waiting for in-flight requests")
	}
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Close drains, waits for in-flight requests (up to DrainGrace, then
// hard-cancels the stragglers), stops the workers, releases every pooled
// engine, and flushes the final stats. Safe to call once; subsequent calls
// are no-ops.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.Drain()
		done := make(chan struct{})
		go func() {
			s.handlerWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(s.cfg.DrainGrace):
			s.cfg.Logf("serve: drain grace %s expired; hard-cancelling stragglers", s.cfg.DrainGrace)
			s.baseCancel()
			<-done
		}
		s.baseCancel()
		close(s.queue)
		s.workerWG.Wait()
		st := s.stats.snapshot()
		b, _ := json.Marshal(st)
		s.cfg.Logf("serve: drained; final stats %s", b)
	})
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats { return s.stats.snapshot() }

// admitHandler registers an in-flight handler unless the server is
// draining. The registration happens under the drain lock, so Close's
// handlerWG.Wait cannot miss a handler that slipped past the check. Every
// successful admit must be paired with exitHandler.
func (s *Server) admitHandler() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.handlerWG.Add(1)
	s.inFlight.Add(1)
	return true
}

// exitHandler releases an admitHandler registration.
func (s *Server) exitHandler() {
	s.inFlight.Add(-1)
	s.handlerWG.Done()
}

// decodeBody decodes a bounded JSON request body into v: bodies over
// MaxBodyBytes are rejected with a typed 413 instead of being decoded
// unboundedly, everything else malformed with a typed 400.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errTooLarge(s.cfg.MaxBodyBytes)
		}
		return errInvalid(fmt.Sprintf("bad request body: %v", err))
	}
	return nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.stats.add(&s.stats.Received, 1)
	// Every received request gets a timeline when the ring is on, created
	// before any rejection can happen, so /tracez accounts for the whole
	// ledger — the terminal outcome event of each timeline is exactly the
	// counter the request landed in.
	tr := s.tracer.start(kindSimulate)
	if !s.admitHandler() {
		s.rejectTraced(w, errDraining(), tr, false)
		return
	}
	defer s.exitHandler()
	start := time.Now()

	var req Request
	if apiErr := s.decodeBody(w, r, &req); apiErr != nil {
		s.rejectTraced(w, apiErr, tr, false)
		return
	}
	req.normalize()
	if tr == nil && req.Trace {
		// Ring disabled but this request opted in: trace it anyway; the
		// finished timeline rides the response and is never retained.
		tr = newTrace(kindSimulate)
	}
	if err := req.validate(s.cfg.Limits); err != nil {
		s.rejectTraced(w, errInvalid(err.Error()), tr, req.Trace)
		return
	}
	key := req.Key()
	tr.setKey(key)
	// The shared computation runs under the server's lifetime context plus
	// this request's deadline — NOT the HTTP request context, so a
	// disconnecting leader cannot kill a result its followers await. A
	// follower waits under its own client's context and deadline.
	work, cancelWork := s.withDeadline(s.baseCtx, &req)
	defer cancelWork()
	wait, cancelWait := s.withDeadline(r.Context(), &req)
	defer cancelWait()
	s.respond(w, s.resolve(work, wait, &req, key, tr, admitShed), start, tr, req.Trace)
}

// withDeadline bounds ctx by the request's deadline_ms, or by DefaultDeadline
// when the request carries none.
func (s *Server) withDeadline(ctx context.Context, req *Request) (context.Context, context.CancelFunc) {
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// errCtxExpired types a context-expiry rejection: a deadline that actually
// fired is the client's 504, everything else that cancelled work while the
// server is shutting down is the drain hard-stop and gets the typed 503, so
// the client is never blamed for the server's own shutdown.
func (s *Server) errCtxExpired(ctx context.Context) *apiError {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return errDeadline()
	}
	if s.baseCtx.Err() != nil {
		return errDraining()
	}
	return errDeadline()
}

// admission is how resolve admits a key that needs computing.
type admission int

const (
	// admitShed is /simulate's: spend an admission token and shed with a
	// typed 503 when the work queue is full.
	admitShed admission = iota
	// admitBlock is a batch row's: the batch was admitted as a whole, so the
	// row spends no token, blocks on the queue behind live traffic, and
	// retries the outcomes it inherits from another request's flight.
	admitBlock
)

// resolved is the outcome of resolving one key: the payload or the typed
// rejection, plus provenance — where the bytes came from (source*) and how
// many worker attempts they took.
type resolved struct {
	p        *payload
	reject   *apiError
	source   string
	attempts int
}

// resolve is the one path from a canonical key to its result, shared by
// /simulate and batch rows. One lookup in the result table answers it: a
// settled result is a cache hit; an open flight is followed; otherwise the
// caller leads a new flight, admits the key to the worker queue, and
// settles the flight with the outcome, so a later caller finds either the
// flight or the result and never recomputes. work bounds the leader's
// computation; wait bounds a follower.
//
// A follower shares the leader's outcome, with one exception in admitBlock
// mode: rate_limited, queue_full, deadline and draining describe the
// leader's request, never the key, so a batch row that inherits one retries
// the flight under its own context. It gives up on its own deadline or when
// the server stops; only then can such an outcome escape to the caller.
func (s *Server) resolve(work, wait context.Context, req *Request, key string, tr *trace, mode admission) resolved {
	backoff := time.Millisecond
	for {
		p, f, lead := s.cache.lookup(key)
		if p != nil {
			s.stats.add(&s.stats.CacheHits, 1)
			// Entries warmed from the journal or a peer name their source on
			// the timeline; this process's own results name none.
			source, detail := sourceCache, ""
			if p.warmSrc != "" {
				source, detail = p.warmSrc, "source="+p.warmSrc
			}
			tr.event(evCacheHit, detail)
			hit := *p // shallow copy: Runs is shared and immutable
			hit.Cached = true
			return resolved{p: &hit, source: source}
		}
		if lead {
			r := s.lead(work, req, key, tr, mode)
			s.cache.settle(f, r.p, r.reject)
			return r
		}
		s.stats.add(&s.stats.Dedups, 1)
		tr.event(evDedupFollower, "awaiting in-flight leader")
		select {
		case <-f.done:
		case <-wait.Done():
			return resolved{reject: s.errCtxExpired(wait)}
		}
		if f.reject == nil {
			return resolved{p: f.p, source: sourceDedup}
		}
		if mode == admitShed || !f.reject.inherited() || s.stopDispatch() {
			return resolved{reject: f.reject}
		}
		if !sleepCtx(wait, backoff) {
			return resolved{reject: s.errCtxExpired(wait)}
		}
		backoff = min(2*backoff, 64*time.Millisecond)
	}
}

// lead is the flight leader's half of resolve: admission, then the worker
// queue.
func (s *Server) lead(ctx context.Context, req *Request, key string, tr *trace, mode admission) resolved {
	j := &job{ctx: ctx, req: req, key: key, res: make(chan resolved, 1), tr: tr}
	if mode == admitShed {
		if !s.bucket.Take() {
			return resolved{reject: errRateLimited()}
		}
		select {
		case s.queue <- j:
		default:
			return resolved{reject: errQueueFull()}
		}
	} else {
		select {
		case s.queue <- j:
		case <-ctx.Done():
			return resolved{reject: s.errCtxExpired(ctx)}
		}
	}
	tr.event(evQueued, "")
	select {
	case r := <-j.res:
		if r.reject == nil {
			r.source = sourceFresh
		}
		return r
	case <-ctx.Done():
		// The worker observes the same context and answers into the
		// buffered channel on its own schedule.
		return resolved{reject: s.errCtxExpired(ctx)}
	}
}

// respond writes the success or rejection for one request, sealing its
// timeline with the matching outcome. The timeline attaches to the response
// envelope only — never the payload — so traced, untraced, cached and
// deduped responses all carry byte-identical result bytes.
func (s *Server) respond(w http.ResponseWriter, r resolved, start time.Time, tr *trace, attach bool) {
	if r.reject != nil {
		s.rejectTraced(w, r.reject, tr, attach)
		return
	}
	s.stats.add(&s.stats.OK, 1)
	tl := tr.finish("ok")
	s.tracer.push(tl)
	resp := Response{
		payload:   *r.p,
		Dedup:     r.source == sourceDedup,
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	if attach {
		resp.Trace = tl
	}
	writeJSON(w, http.StatusOK, resp)
}

// rejectTraced writes a typed rejection, bumps its outcome counter and seals
// the trace with the rejection's code as its terminal outcome (keeping
// /tracez in lock-step with the ledger), attaching the timeline to the error
// body when the request opted in.
func (s *Server) rejectTraced(w http.ResponseWriter, e *apiError, tr *trace, attach bool) {
	s.bumpOutcome(e)
	tl := tr.finish(e.Code)
	s.tracer.push(tl)
	body := errorBody{Error: *e}
	if attach {
		body.Trace = tl
	}
	writeJSON(w, e.Status, body)
}

// bumpOutcome lands a rejection in its single ledger counter.
func (s *Server) bumpOutcome(e *apiError) {
	switch e.Code {
	case codeInvalid:
		s.stats.add(&s.stats.Invalid, 1)
	case codeRateLimited:
		s.stats.add(&s.stats.RateLimited, 1)
	case codeQueueFull:
		s.stats.add(&s.stats.QueueFull, 1)
	case codeDraining:
		s.stats.add(&s.stats.DrainRejected, 1)
	case codeDeadline:
		s.stats.add(&s.stats.DeadlineExpired, 1)
	case codeTooLarge:
		s.stats.add(&s.stats.TooLarge, 1)
	default:
		// codeInternal and codeQuarantined both land in Internal: the ledger
		// cares that the request ended in exactly one 500-class outcome, the
		// typed body carries the distinction.
		s.stats.add(&s.stats.Internal, 1)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statzBody is the stable /statz schema: service identity, uptime, the
// live in-flight gauge and drain state, plus the counters nested under
// their own key. The serve tests pin the key set — removing or renaming a
// field is a breaking change to monitoring, so it fails a test first.
type statzBody struct {
	Service  string `json:"service"`
	UptimeMS int64  `json:"uptime_ms"`
	InFlight int64  `json:"in_flight"`
	Draining bool   `json:"draining"`
	Counters Stats  `json:"counters"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statzBody{
		Service:  "rwsimd",
		UptimeMS: time.Since(s.start).Milliseconds(),
		InFlight: s.inFlight.Load(),
		Draining: s.Draining(),
		Counters: s.Stats(),
	})
}

// tracezBody is the GET /tracez schema: the ring capacity and the retained
// completed timelines, newest first.
type tracezBody struct {
	Capacity int         `json:"capacity"`
	Traces   []*Timeline `json:"traces"`
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, tracezBody{
		Capacity: len(s.tracer.buf),
		Traces:   s.tracer.snapshot(),
	})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"workloads": harness.Workloads()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

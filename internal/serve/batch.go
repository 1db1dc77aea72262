package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rwsfs/internal/serve/jobs"
)

// batchEntry couples a batch job's state machine with its expanded rows
// and (when durability is on) its journal log.
type batchEntry struct {
	job  *jobs.Job
	rows []Request // index-aligned with the job's rows
	log  *jobs.JobLog

	// meta is per-row serving provenance (attempt counts, result source),
	// index-aligned with rows and surfaced on GET /batch/{id}. It is
	// serving-side bookkeeping only: never journaled, never part of the
	// grid bytes.
	metaMu sync.Mutex
	meta   []rowMeta
}

// rowMeta records how one row's bytes were obtained: how many worker
// attempts it took, and whether the result came from a fresh computation,
// the result cache, a deduped in-flight leader, or a journal replay.
type rowMeta struct {
	Attempts int    `json:"attempts"`
	Source   string `json:"source,omitempty"`
}

// Row result provenance values.
const (
	sourceFresh   = "fresh"   // computed by this process's worker fleet
	sourceCache   = "cache"   // served from the LRU result cache
	sourceDedup   = "dedup"   // shared an in-flight leader's computation
	sourceJournal = "journal" // replayed from the batch journal at startup
	sourcePeer    = "peer"    // imported from a fleet sibling's corpus
)

// setMeta records one row's provenance; the slice is allocated lazily so
// batchEntry literals (tests construct them directly) need no constructor.
func (e *batchEntry) setMeta(i int, m rowMeta) {
	e.metaMu.Lock()
	defer e.metaMu.Unlock()
	if e.meta == nil {
		e.meta = make([]rowMeta, len(e.rows))
	}
	if i >= 0 && i < len(e.meta) {
		e.meta[i] = m
	}
}

// metaOf returns one row's provenance (zero value while the row is still
// unstarted or running).
func (e *batchEntry) metaOf(i int) rowMeta {
	e.metaMu.Lock()
	defer e.metaMu.Unlock()
	if i < 0 || i >= len(e.meta) {
		return rowMeta{}
	}
	return e.meta[i]
}

// newJobID returns a fresh random job id (16 hex chars).
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// rowRequest builds the normalized Request of one grid cell; the row's
// canonical key is Request.Key() — the same SHA-256 keying /simulate,
// the result cache and the single-flight group use.
func rowRequest(spec *jobs.Spec, c jobs.Cell) Request {
	r := Request{
		Alg: c.Alg, N: c.N, P: c.P, Seed: c.Seed, Runs: spec.Runs,
		BlockWords: spec.BlockWords, CacheWords: spec.CacheWords,
		CostMiss: spec.CostMiss, CostSteal: spec.CostSteal,
		CostFailSteal: spec.CostFailSteal,
		Policy:        c.Policy, Sockets: c.Sockets,
		CostMissRemote: spec.CostMissRemote, StealCost: spec.StealCost,
		StealCostRemote: spec.StealCostRemote,
		DeadlineMS:      spec.RowDeadlineMS,
	}
	if spec.Budget != nil {
		b := *spec.Budget
		r.Budget = &b
	}
	r.normalize()
	return r
}

// expandRows normalizes and validates a spec and materializes its rows.
// Row validation reuses the /simulate limits, so a batch cannot smuggle in
// work a single request would be rejected for.
func expandRows(spec *jobs.Spec, lim Limits, maxRows int) ([]Request, error) {
	cells, err := expandCells(spec, maxRows)
	if err != nil {
		return nil, err
	}
	rows := make([]Request, len(cells))
	if err := fillRows(spec, cells, rows, 0, len(rows), lim); err != nil {
		return nil, err
	}
	return rows, nil
}

// expandCells normalizes and validates a spec and lists its grid cells.
func expandCells(spec *jobs.Spec, maxRows int) ([]jobs.Cell, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n := spec.RowCount(); n > maxRows {
		return nil, fmt.Errorf("batch expands to %d rows, limit %d", n, maxRows)
	}
	return spec.Expand(), nil
}

// fillRows builds and validates rows[lo:hi] from the same cells and returns
// the first invalid row's error.
func fillRows(spec *jobs.Spec, cells []jobs.Cell, rows []Request, lo, hi int, lim Limits) error {
	for i := lo; i < hi; i++ {
		c := cells[i]
		rows[i] = rowRequest(spec, c)
		if err := rows[i].validate(lim); err != nil {
			return fmt.Errorf("row %d (alg=%s n=%d p=%d policy=%s sockets=%d seed=%d): %v",
				i, c.Alg, c.N, c.P, c.Policy, c.Sockets, c.Seed, err)
		}
	}
	return nil
}

func rowKeys(rows []Request) []string {
	keys := make([]string, len(rows))
	for i := range rows {
		keys[i] = rows[i].Key()
	}
	return keys
}

// journaledJob is one replayed job made ready to apply: its spec expanded,
// as expandRows would, into rows and their keys, and, when gated, the
// outcome of canonicalRuns for each journal row.
type journaledJob struct {
	spec jobs.Spec // normalized
	rows []Request
	keys []string
	err  error // the spec no longer expands
	// gated is index-aligned with the job's row records. A journal row
	// (see prepareJournal) that passed the gate holds its payload; one that
	// failed is rejected. Other records hold neither.
	gated []gatedRow
}

type gatedRow struct {
	p        *payload
	rejected bool
}

// prepareUnit is the most rows or records one step of prepareJournal
// takes, so that a large job splits across the CPUs too.
const prepareUnit = 256

// prepareJournal readies replayed jobs for resume and for the /corpus
// export, on up to GOMAXPROCS goroutines: it expands each spec into rows and
// keys and, when gate is set, passes each journal row through
// storedPayload. A journal row is a RowOK record whose index lies in the
// re-expanded grid and whose key equals the key the expansion computed —
// the trust rule ApplyReplayed applies; records are checked against those
// keys, never re-normalized and re-keyed. The result, index-aligned with
// replayed, is what a job-by-job, row-by-row pass would compute; callers
// then apply it in journal order.
func (s *Server) prepareJournal(replayed []jobs.ReplayedJob, gate bool) []journaledJob {
	out := make([]journaledJob, len(replayed))
	cells := make([][]jobs.Cell, len(replayed))
	jobs.ForEach(len(out), func(i int) {
		pj := &out[i]
		pj.spec = replayed[i].Spec
		cells[i], pj.err = expandCells(&pj.spec, s.cfg.MaxBatchRows)
		pj.rows = make([]Request, len(cells[i]))
		pj.keys = make([]string, len(cells[i]))
	})
	// Units are listed job by job and row by row, so the first failing
	// unit of a job holds the error expandRows would have returned.
	errs := forEachUnit(len(out), func(i int) int { return len(cells[i]) }, func(i, lo, hi int) error {
		pj := &out[i]
		if err := fillRows(&pj.spec, cells[i], pj.rows, lo, hi, s.cfg.Limits); err != nil {
			return err
		}
		for r := lo; r < hi; r++ {
			pj.keys[r] = pj.rows[r].Key()
		}
		return nil
	})
	for _, e := range errs {
		if e.err != nil && out[e.job].err == nil {
			out[e.job].err = e.err
		}
	}
	if !gate {
		return out
	}
	for i := range out {
		if out[i].err == nil {
			out[i].gated = make([]gatedRow, len(replayed[i].Rows))
		}
	}
	forEachUnit(len(out), func(i int) int { return len(out[i].gated) }, func(i, lo, hi int) error {
		pj := &out[i]
		for r := lo; r < hi; r++ {
			rec := &replayed[i].Rows[r]
			if rec.Status != jobs.RowOK || rec.Index < 0 || rec.Index >= len(pj.rows) || rec.Key != pj.keys[rec.Index] {
				continue
			}
			p, err := storedPayload(corpusRow{Type: "row", Key: rec.Key, Request: wireRequest(pj.rows[rec.Index]), Result: rec.Result}, sourceJournal)
			pj.gated[r] = gatedRow{p: p, rejected: err != nil}
		}
		return nil
	})
	return out
}

// unitErr is the error of one forEachUnit unit of job.
type unitErr struct {
	job int
	err error
}

// forEachUnit splits [0, size(job)) of each of n jobs into units of at most
// prepareUnit items, calls f on each through jobs.ForEach, and returns the
// units' errors job by job, in item order.
func forEachUnit(n int, size func(job int) int, f func(job, lo, hi int) error) []unitErr {
	type unit struct{ job, lo, hi int }
	var units []unit
	for i := 0; i < n; i++ {
		for lo, m := 0, size(i); lo < m; lo += prepareUnit {
			units = append(units, unit{i, lo, min(lo+prepareUnit, m)})
		}
	}
	errs := make([]unitErr, len(units))
	jobs.ForEach(len(units), func(k int) {
		u := units[k]
		errs[k] = unitErr{u.job, f(u.job, u.lo, u.hi)}
	})
	return errs
}

// registerBatch indexes a job under its id and applies retention: if the
// index now exceeds MaxBatchJobs, the oldest completed jobs are evicted and
// their journal files removed, so a long-lived daemon's memory and journal
// directory are bounded by the cap plus whatever is still unfinished
// (unfinished jobs are never evicted — they are the resume surface).
func (s *Server) registerBatch(e *batchEntry) {
	s.batchMu.Lock()
	s.batches[e.job.ID] = e
	s.batchOrder = append(s.batchOrder, e.job.ID)
	evicted := s.evictBatchesLocked()
	s.batchMu.Unlock()
	for _, id := range evicted {
		if s.journal != nil {
			if err := s.journal.Remove(id); err != nil {
				s.cfg.Logf("serve: batch %s: evicted but journal removal failed: %v", id, err)
			}
		}
		s.cfg.Logf("serve: batch %s evicted (retention cap %d)", id, s.cfg.MaxBatchJobs)
	}
}

// evictBatchesLocked trims the job index to MaxBatchJobs, dropping the
// oldest done jobs first, and returns the evicted ids (whose journal files
// the caller deletes outside the lock). Jobs still running or interrupted
// are kept regardless of the cap.
func (s *Server) evictBatchesLocked() []string {
	limit := s.cfg.MaxBatchJobs
	if limit <= 0 || len(s.batchOrder) <= limit {
		return nil
	}
	excess := len(s.batchOrder) - limit
	var evicted []string
	kept := s.batchOrder[:0]
	for _, id := range s.batchOrder {
		if e := s.batches[id]; excess > 0 && e != nil && e.job.Done() {
			delete(s.batches, id)
			evicted = append(evicted, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.batchOrder = kept
	return evicted
}

func (s *Server) batch(id string) (*batchEntry, bool) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	e, ok := s.batches[id]
	return e, ok
}

// resumeJournaledJobs rebuilds every journaled job at startup: the spec is
// re-expanded (deterministically, so row indexes and keys line up), the
// journal's terminal rows are applied — those are served as-is, never
// recomputed — and jobs with rows still missing get a runner to finish
// them. With WarmCache on, the job's journal rows that pass the gate go
// through the warm-up sink into the LRU result cache on the way through.
// The expansion and the gate run first, for every job at once, on every CPU
// (prepareJournal); everything else runs job by job and row by row in
// journal order, so the cache, its LRU order, the counters and the log
// read as they would from one pass.
// Journals whose replay stopped at a corrupt line are rewritten from their
// intact prefix before any append (appends landing after the corruption
// would be invisible to every future replay), and finished jobs whose logs
// carry waste — duplicates, ignored records, a corrupt tail — are compacted
// down to spec + terminal rows.
func (s *Server) resumeJournaledJobs() {
	if s.journal == nil {
		return
	}
	replayed, err := s.journal.Replay()
	if err != nil {
		s.cfg.Logf("serve: journal replay failed (jobs not resumed): %v", err)
		return
	}
	prepared := s.prepareJournal(replayed, s.cfg.WarmCache)
	for n, rj := range replayed {
		pj := &prepared[n]
		if pj.err != nil {
			s.cfg.Logf("serve: journal job %s: spec no longer expands (%v); leaving journal untouched", rj.ID, pj.err)
			continue
		}
		job := jobs.NewJob(rj.ID, pj.spec, pj.keys)
		applied := job.ApplyReplayed(rj.Rows)
		e := &batchEntry{job: job, rows: pj.rows}
		for i := range pj.rows {
			if job.StatusOf(i).Terminal() {
				e.setMeta(i, rowMeta{Source: sourceJournal})
			}
		}
		for r, g := range pj.gated {
			switch {
			case g.p != nil:
				s.warm(g.p)
			case g.rejected:
				s.cfg.Logf("serve: warm-cache: job %s row %s: %v; skipped", rj.ID, rj.Rows[r].Key, errNotCanonical)
			}
		}
		rtr := s.tracer.start(kindBatchResume)
		rtr.setKey(rj.ID)
		rtr.event(evJournalReplay, fmt.Sprintf("%d/%d rows from journal", applied, job.Rows()))
		s.tracer.push(rtr.finish("resumed"))
		if job.Done() {
			// The job will never append again; if its log holds anything
			// beyond spec + one record per row, compact it down.
			if rj.Corrupt || applied < len(rj.Rows) {
				if n, err := s.journal.Compact(rj.ID); err != nil {
					s.cfg.Logf("serve: journal job %s: compaction failed: %v", rj.ID, err)
				} else {
					s.cfg.Logf("serve: journal job %s: compacted (%d bytes reclaimed)", rj.ID, n)
				}
			}
			s.registerBatch(e)
			s.cfg.Logf("serve: journal job %s complete (%d rows, all from journal)", rj.ID, job.Rows())
			continue
		}
		if rj.Corrupt {
			// Blind-appending after a corrupt line would journal every
			// recomputed row into a dead zone no replay can reach; cut the
			// corruption out first. If the repair fails, the job is kept
			// read-only rather than resumed into silent data loss.
			if err := s.journal.Rewrite(rj); err != nil {
				s.cfg.Logf("serve: journal job %s: corrupt-line repair failed (%v); job NOT resumed", rj.ID, err)
				s.registerBatch(e)
				job.Interrupt()
				continue
			}
			s.cfg.Logf("serve: journal job %s: rewrote journal past a corrupt line (%d intact rows kept)", rj.ID, applied)
		}
		log, err := s.journal.Reopen(rj.ID)
		if err != nil {
			// Resume without appending would recompute the same rows again on
			// every restart; surface loudly and keep the job read-only.
			s.cfg.Logf("serve: journal job %s: reopen failed (%v); job NOT resumed", rj.ID, err)
			s.registerBatch(e)
			job.Interrupt()
			continue
		}
		e.log = log
		s.registerBatch(e)
		s.handlerWG.Add(1)
		go s.runBatch(e)
		s.cfg.Logf("serve: resuming job %s: %d/%d rows from journal, %d to compute",
			rj.ID, applied, job.Rows(), job.Rows()-applied)
	}
}

// gcJournals applies the age bound to the journal directory: completed jobs
// whose journal has not been appended to for longer than JournalMaxAge are
// evicted from the index and their files removed, and orphaned journal
// files backing no indexed job (unreadable specs skipped at replay, files
// from before a crash mid-eviction) age out the same way. Unfinished jobs
// are never touched — they are the resume surface. Runs once at startup
// (after resume, so unfinished journals are indexed and protected) and then
// periodically from gcLoop.
func (s *Server) gcJournals() {
	if s.journal == nil || s.cfg.JournalMaxAge <= 0 {
		return
	}
	cutoff := time.Now().Add(-s.cfg.JournalMaxAge)
	entries, err := s.journal.Entries()
	if err != nil {
		s.cfg.Logf("serve: journal gc: %v", err)
		return
	}
	for _, ent := range entries {
		if ent.ModTime.After(cutoff) {
			continue
		}
		s.batchMu.Lock()
		e, indexed := s.batches[ent.ID]
		if indexed && !e.job.Done() {
			s.batchMu.Unlock()
			continue
		}
		if indexed {
			delete(s.batches, ent.ID)
			kept := s.batchOrder[:0]
			for _, id := range s.batchOrder {
				if id != ent.ID {
					kept = append(kept, id)
				}
			}
			s.batchOrder = kept
		}
		s.batchMu.Unlock()
		if err := s.journal.Remove(ent.ID); err != nil {
			s.cfg.Logf("serve: journal gc: job %s: %v", ent.ID, err)
			continue
		}
		what := "orphaned journal"
		if indexed {
			what = "completed job"
		}
		s.cfg.Logf("serve: journal gc: %s %s aged out (idle since %s, max age %s)",
			what, ent.ID, ent.ModTime.Format(time.RFC3339), s.cfg.JournalMaxAge)
	}
}

// handleBatchSubmit accepts a sweep spec, expands it into rows, durably
// journals the spec, starts the row fan-out, and streams completed rows
// back as NDJSON (a job header line first, one RowRecord line per row in
// completion order, a trailer last). Disconnecting mid-stream does not
// stop the job: rows keep completing into the journal, and the client can
// re-read them via GET /batch/{id}/grid.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.admitHandler() {
		writeBatchReject(w, errDraining())
		return
	}
	defer s.exitHandler()

	var spec jobs.Spec
	if apiErr := s.decodeBody(w, r, &spec); apiErr != nil {
		writeBatchReject(w, apiErr)
		return
	}
	rows, err := expandRows(&spec, s.cfg.Limits, s.cfg.MaxBatchRows)
	if err != nil {
		writeBatchReject(w, errInvalid(err.Error()))
		return
	}
	// One admission token per batch: the grid was bounded above, and rows
	// inside a batch are queued behind live traffic rather than rejected.
	if !s.bucket.Take() {
		writeBatchReject(w, errRateLimited())
		return
	}
	id, err := newJobID()
	if err != nil {
		writeBatchReject(w, errInternal(err.Error()))
		return
	}
	job := jobs.NewJob(id, spec, rowKeys(rows))
	e := &batchEntry{job: job, rows: rows}
	if s.journal != nil {
		log, err := s.journal.Create(id, &spec)
		if err != nil {
			writeBatchReject(w, errInternal(fmt.Sprintf("journal: %v", err)))
			return
		}
		e.log = log
	}
	s.registerBatch(e)
	s.stats.add(&s.stats.BatchJobs, 1)
	s.handlerWG.Add(1)
	go s.runBatch(e)
	s.streamBatch(w, r, e)
}

// batchHeader opens the NDJSON stream.
type batchHeader struct {
	Type string `json:"type"` // "job"
	Job  string `json:"job"`
	Rows int    `json:"rows"`
}

// batchTrailer closes the NDJSON stream.
type batchTrailer struct {
	Type   string                 `json:"type"` // "end"
	Job    string                 `json:"job"`
	Status string                 `json:"status"`
	Counts map[jobs.RowStatus]int `json:"counts"`
}

func jobStatus(j *jobs.Job) string {
	switch {
	case j.Done():
		return "done"
	case j.Interrupted():
		return "interrupted"
	default:
		return "running"
	}
}

// streamBatch writes the NDJSON row stream for one job.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, e *batchEntry) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	enc := json.NewEncoder(w)
	_ = enc.Encode(batchHeader{Type: "job", Job: e.job.ID, Rows: e.job.Rows()})
	flush()

	rowsCh, cancel := e.job.Subscribe()
	defer cancel()
	delivered := 0
	total := e.job.Rows()
	for delivered < total {
		select {
		case rec := <-rowsCh:
			_ = enc.Encode(rec)
			flush()
			delivered++
		case <-e.job.QuiescedCh():
			// Done or interrupted: everything that will ever arrive is
			// already buffered (the runner quiesces only after its last
			// Finish). Drain it, then write the trailer.
			for {
				select {
				case rec := <-rowsCh:
					_ = enc.Encode(rec)
					delivered++
					continue
				default:
				}
				break
			}
			_ = enc.Encode(batchTrailer{Type: "end", Job: e.job.ID,
				Status: jobStatus(e.job), Counts: e.job.Counts()})
			flush()
			return
		case <-r.Context().Done():
			return // client gone; the job and its journal carry on
		}
	}
	_ = enc.Encode(batchTrailer{Type: "end", Job: e.job.ID,
		Status: jobStatus(e.job), Counts: e.job.Counts()})
	flush()
}

// runBatch fans a job's unfinished rows over the worker fleet, at most
// BatchParallel in flight, until the grid is complete or the server
// drains. On drain, rows already dispatched finish (inside the drain
// grace) and are journaled; rows not yet dispatched stay unstarted with no
// journal record — exactly the set a restart recomputes. Zero rows are
// lost either way.
func (s *Server) runBatch(e *batchEntry) {
	defer s.handlerWG.Done() // registered by the caller, outside the in-flight gauge
	job := e.job
	sem := make(chan struct{}, s.cfg.BatchParallel)
	var wg sync.WaitGroup
	for i := range e.rows {
		if job.StatusOf(i).Terminal() {
			continue // replayed from the journal; never recomputed
		}
		if s.stopDispatch() {
			break
		}
		sem <- struct{}{}
		if s.stopDispatch() {
			<-sem
			break
		}
		if !job.Start(i) {
			<-sem
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			s.runRow(e, i)
		}(i)
	}
	wg.Wait()
	if e.log != nil {
		e.log.Close()
	}
	if job.Done() {
		s.cfg.Logf("serve: batch %s done: %v", job.ID, job.Counts())
	} else {
		job.Interrupt()
		s.cfg.Logf("serve: batch %s checkpointed at drain: %v", job.ID, job.Counts())
	}
}

// stopDispatch reports whether the runner should stop handing out rows:
// the server is draining (graceful) or hard-cancelled (crash-like).
func (s *Server) stopDispatch() bool {
	return s.Draining() || s.baseCtx.Err() != nil
}

// runRow brings one row to a terminal state: compute, journal (fsync),
// then publish. If the server was draining or hard-cancelled while the row
// was in flight, a cancellation outcome checkpoints the row back to
// unstarted instead — it holds no journal record and is recomputed on
// restart, never recorded as a spurious failure.
func (s *Server) runRow(e *batchEntry, i int) {
	req := &e.rows[i]
	key := e.job.Key(i)
	tr := s.tracer.start(kindBatchRow)
	tr.setKey(key)
	ctx, cancel := s.withDeadline(s.baseCtx, req)
	defer cancel()

	res := s.resolve(ctx, ctx, req, key, tr, admitBlock)
	reject := res.reject
	if reject != nil && reject.inherited() && s.stopDispatch() {
		// A transient serving outcome, never a row's result: resolve only
		// surfaces one when the server is stopping, so checkpoint the row back
		// to unstarted — no journal record, and a resumed job recomputes it
		// instead of serving a spurious failure.
		e.job.Revert(i)
		s.tracer.push(tr.finish("reverted"))
		return
	}

	rec := jobs.RowRecord{Type: "row", Index: i, Key: key}
	switch {
	case reject == nil:
		runs, err := json.Marshal(res.p.Runs)
		if err != nil {
			rec.Status, rec.Error = jobs.RowFailed, fmt.Sprintf("marshal result: %v", err)
		} else {
			rec.Status, rec.Result = jobs.RowOK, runs
		}
	case reject.Code == codeQuarantined:
		rec.Status, rec.Error = jobs.RowQuarantined, reject.Message
		s.stats.add(&s.stats.RowsQuarantined, 1)
	case reject.Code == codeDeadline:
		rec.Status, rec.Error = jobs.RowDeadline, reject.Message
	default:
		rec.Status, rec.Error = jobs.RowFailed, reject.Message
	}
	if e.log != nil {
		if err := e.log.AppendRow(rec); err != nil {
			// The row still completes in memory; durability for it is lost.
			s.cfg.Logf("serve: batch %s row %d: journal append failed (row will recompute after a restart): %v",
				e.job.ID, i, err)
		}
	}
	s.stats.add(&s.stats.BatchRows, 1)
	e.setMeta(i, rowMeta{Attempts: res.attempts, Source: res.source})
	s.tracer.push(tr.finish(string(rec.Status)))
	e.job.Finish(rec)
}

// writeBatchReject writes a typed rejection for the batch surface. Unlike
// rejectTraced it does not touch the /simulate outcome ledger (Received is
// only bumped there).
func writeBatchReject(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, errorBody{Error: *e})
}

// batchStatus is the GET /batch/{id} body.
type batchStatus struct {
	Job    string                 `json:"job"`
	Status string                 `json:"status"`
	Rows   int                    `json:"rows"`
	Counts map[jobs.RowStatus]int `json:"counts"`
	Grid   []batchRowStatus       `json:"grid"`
}

type batchRowStatus struct {
	Index  int            `json:"index"`
	Key    string         `json:"key"`
	Status jobs.RowStatus `json:"status"`
	// Attempts and Source are serving provenance: how many worker attempts
	// the row took and where its bytes came from ("fresh", "cache", "dedup",
	// "journal", "peer"). Metadata only — the journaled grid bytes never
	// carry them.
	Attempts int    `json:"attempts"`
	Source   string `json:"source,omitempty"`
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	e, ok := s.batch(r.PathValue("id"))
	if !ok {
		writeBatchReject(w, errNotFound(fmt.Sprintf("unknown batch job %q", r.PathValue("id"))))
		return
	}
	sts := e.job.Statuses()
	grid := make([]batchRowStatus, len(sts))
	for i, st := range sts {
		m := e.metaOf(i)
		grid[i] = batchRowStatus{Index: i, Key: e.job.Key(i), Status: st,
			Attempts: m.Attempts, Source: m.Source}
	}
	writeJSON(w, http.StatusOK, batchStatus{
		Job: e.job.ID, Status: jobStatus(e.job), Rows: e.job.Rows(),
		Counts: e.job.Counts(), Grid: grid,
	})
}

// handleBatchGrid streams the job's terminal rows in index order as NDJSON
// — for a done job, the complete grid. Each line is the journaled
// RowRecord verbatim, so the grid of a resumed job is byte-identical to an
// uninterrupted run's; the kill-restart chaos test pins exactly that.
func (s *Server) handleBatchGrid(w http.ResponseWriter, r *http.Request) {
	e, ok := s.batch(r.PathValue("id"))
	if !ok {
		writeBatchReject(w, errNotFound(fmt.Sprintf("unknown batch job %q", r.PathValue("id"))))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, rec := range e.job.TerminalRecords() {
		_ = enc.Encode(rec)
	}
}

// batchListEntry is one row of the GET /batch listing.
type batchListEntry struct {
	Job    string `json:"job"`
	Status string `json:"status"`
	Rows   int    `json:"rows"`
}

func (s *Server) handleBatchList(w http.ResponseWriter, r *http.Request) {
	s.batchMu.Lock()
	order := append([]string(nil), s.batchOrder...)
	s.batchMu.Unlock()
	out := make([]batchListEntry, 0, len(order))
	for _, id := range order {
		if e, ok := s.batch(id); ok {
			out = append(out, batchListEntry{Job: id, Status: jobStatus(e.job), Rows: e.job.Rows()})
		}
	}
	writeJSON(w, http.StatusOK, map[string][]batchListEntry{"jobs": out})
}

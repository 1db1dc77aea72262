package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rwsfs/internal/serve/jobs"
)

// tearJournal appends a partial (newline-less) record fragment to a job's
// journal file — the exact on-disk state a crash mid-append leaves behind.
func tearJournal(t *testing.T, dir, id, fragment string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, id+".ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(fragment); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// replayDir replays a journal directory out-of-band and returns its single
// job.
func replayDir(t *testing.T, dir string) jobs.ReplayedJob {
	t.Helper()
	jr, err := jobs.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := jr.Replay()
	if err != nil || len(replayed) != 1 {
		t.Fatalf("replay: %v (%d jobs)", err, len(replayed))
	}
	return replayed[0]
}

// TestBatchTornTailDoubleCrashResume is the end-to-end regression for the
// torn-tail resume bug: crash mid-row-write, resume and append more rows,
// crash mid-write again, resume again. Before the fix, the first resumed
// append concatenated onto the torn fragment, producing a corrupt line that
// made the SECOND replay silently discard every row journaled after the
// first crash — the final process recomputed work it already had durable.
// The contract: every journaled row survives every crash, the last resume
// recomputes exactly the unjournaled remainder, and the final grid is
// byte-identical to an uninterrupted run.
func TestBatchTornTailDoubleCrashResume(t *testing.T) {
	const (
		spec  = `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`
		total = 16
	)
	dir := t.TempDir()
	slow := func(int, int, string) Fault { return Fault{Delay: 20 * time.Millisecond} }

	kill := func(s *Server, id string, minOK int) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			e, ok := s.batch(id)
			if ok && e.job.Counts()[jobs.RowOK] >= minOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job never reached %d ok rows", minOK)
			}
			time.Sleep(5 * time.Millisecond)
		}
		s.Drain()
		s.baseCancel()
		s.Close()
	}

	// Process A: crash after a few rows, torn record on the tail.
	a := New(Config{Workers: 2, BatchParallel: 2, JournalDir: dir,
		DrainGrace: 5 * time.Second, Injector: slow})
	go postBatch(a, spec)
	id := onlyJobID(t, a)
	kill(a, id, 3)
	jA := len(replayDir(t, dir).Rows)
	if jA < 3 || jA >= total {
		t.Fatalf("first crash journaled %d rows, want a strict midpoint", jA)
	}
	tearJournal(t, dir, id, `{"type":"row","index":99,"key":"torn-a","st`)

	// Process B: resume over the torn tail, journal more rows, crash again
	// with another torn record.
	b := New(Config{Workers: 2, BatchParallel: 2, JournalDir: dir,
		DrainGrace: 5 * time.Second, Injector: slow})
	kill(b, id, jA+3)
	rjB := replayDir(t, dir)
	if rjB.Corrupt {
		t.Fatal("resume appended into a torn tail: journal corrupt after second crash")
	}
	jB := len(rjB.Rows)
	if jB <= jA || jB > total {
		t.Fatalf("second crash journaled %d rows, want > %d (post-resume appends lost)", jB, jA)
	}
	for _, rec := range rjB.Rows {
		if rec.Status != jobs.RowOK {
			t.Fatalf("journal holds a non-ok row: %+v", rec)
		}
	}
	tearJournal(t, dir, id, `{"type":"row","index":99,"key":"torn-b"`)
	t.Logf("crash 1: %d rows journaled; crash 2: %d", jA, jB)

	// Process C: finishes the job. It must recompute exactly the rows the
	// two crashed processes never journaled — zero journaled rows redone.
	c := New(Config{Workers: 2, JournalDir: dir})
	defer c.Close()
	job := waitBatchDone(t, c, id)
	if job.Interrupted() {
		t.Fatal("resumed job reports interrupted after completing")
	}
	if st := c.Stats(); st.Simulations != int64(total-jB) {
		t.Fatalf("final resume recomputed journaled rows: want %d simulations, got %d",
			total-jB, st.Simulations)
	}

	// Byte-identity with an uninterrupted run.
	ref := newTestServer(t, Config{Workers: 2})
	refSp := parseStream(t, postBatch(ref, spec).Body.Bytes())
	if refSp.trailer.Status != "done" {
		t.Fatalf("reference run did not finish: %+v", refSp.trailer)
	}
	if got, want := gridBody(t, c, id), gridBody(t, ref, refSp.header.Job); !bytes.Equal(got, want) {
		t.Fatalf("double-crash grid differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestBatchResumeRepairsCorruptJournal pins the dead-zone bugfix end to end:
// a corrupt complete line mid-journal stops replay, and the resume path must
// rewrite the log from its intact prefix BEFORE appending — otherwise every
// recomputed row lands after the corruption, invisible to all future
// replays, and each restart recomputes the same rows forever.
func TestBatchResumeRepairsCorruptJournal(t *testing.T) {
	const spec = `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2,3,4,5,6]}`
	dir := t.TempDir()
	a := New(Config{Workers: 2, JournalDir: dir})
	sp := parseStream(t, postBatch(a, spec).Body.Bytes())
	if sp.trailer.Status != "done" {
		t.Fatalf("job did not finish: %+v", sp.trailer)
	}
	id := sp.header.Job
	wantGrid := gridBody(t, a, id)
	a.Close()

	// Corrupt the third line (spec + one intact row keep their bytes).
	path := filepath.Join(dir, id+".ndjson")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal too short to corrupt: %d lines", len(lines))
	}
	lines[2] = strings.Repeat("X", len(lines[2])-1) + "\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if rj := replayDir(t, dir); !rj.Corrupt || len(rj.Rows) != 1 {
		t.Fatalf("corruption setup wrong: corrupt=%v rows=%d", rj.Corrupt, len(rj.Rows))
	}

	// Process B repairs, resumes, completes.
	b := New(Config{Workers: 2, JournalDir: dir})
	job := waitBatchDone(t, b, id)
	if job.Interrupted() {
		t.Fatal("repaired job reports interrupted")
	}
	if st := b.Stats(); st.Simulations != 5 {
		t.Fatalf("repair must recompute exactly the 5 lost rows, got %d simulations", st.Simulations)
	}
	if got := gridBody(t, b, id); !bytes.Equal(got, wantGrid) {
		t.Fatalf("repaired grid differs from original:\n%s\nvs\n%s", got, wantGrid)
	}
	b.Close()

	// The journal is clean again: spec + one line per row, all replayable —
	// nothing was appended into a dead zone.
	rj := replayDir(t, dir)
	if rj.Corrupt {
		t.Fatal("journal still corrupt after repair")
	}
	if len(rj.Rows) != 6 {
		t.Fatalf("repaired journal replays %d rows, want 6", len(rj.Rows))
	}
	raw, _ = os.ReadFile(path)
	if got := strings.Count(string(raw), "\n"); got != 7 {
		t.Fatalf("repaired journal has %d lines, want 7 (spec + 6 rows)", got)
	}

	// Process C serves the whole job from the journal: zero recomputation,
	// same bytes — the repair is convergent, not a recompute-every-boot loop.
	c := New(Config{Workers: 2, JournalDir: dir})
	defer c.Close()
	waitBatchDone(t, c, id)
	if st := c.Stats(); st.Simulations != 0 {
		t.Fatalf("post-repair restart recomputed rows: %+v", st)
	}
	if got := gridBody(t, c, id); !bytes.Equal(got, wantGrid) {
		t.Fatalf("post-repair grid differs from original:\n%s\nvs\n%s", got, wantGrid)
	}
}

// TestWarmCacheServesJournaledRows pins the warm-up contract: a restarted
// daemon with WarmCache on answers a /simulate matching a journaled row as
// a cache hit — no queue, no dispatch, payload bytes equal to the journaled
// result — with source=journal provenance on the timeline, and batch rows
// hitting the warmed cache report journal provenance too.
func TestWarmCacheServesJournaledRows(t *testing.T) {
	const spec = `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2]}`
	dir := t.TempDir()
	a := New(Config{Workers: 2, JournalDir: dir})
	sp := parseStream(t, postBatch(a, spec).Body.Bytes())
	if sp.trailer.Status != "done" || len(sp.rows) != 2 {
		t.Fatalf("corpus job did not finish: %+v", sp.trailer)
	}
	a.Close()
	rj := replayDir(t, dir)

	b := New(Config{Workers: 2, JournalDir: dir, WarmCache: true})
	defer b.Close()
	if st := b.Stats(); st.CacheWarmed != 2 {
		t.Fatalf("want CacheWarmed=2, got %+v", st)
	}

	// Seed 1 is row index 0 of the expanded grid.
	w := mustOK(t, b, `{"alg":"prefix","n":64,"p":4,"seed":1,"trace":true}`)
	if !w.Cached {
		t.Fatal("warmed request not served as a cache hit")
	}
	// Journal rows are in completion order; find the grid's row 0 (seed 1).
	var row0 *jobs.RowRecord
	for i, rec := range rj.Rows {
		if rec.Index == 0 {
			row0 = &rj.Rows[i]
		}
	}
	if row0 == nil {
		t.Fatalf("journal missing row 0: %+v", rj.Rows)
	}
	if !bytes.Equal(w.Runs, row0.Result) {
		t.Fatalf("warmed payload differs from journaled result:\n%s\nvs\n%s", w.Runs, row0.Result)
	}
	if w.Key != row0.Key {
		t.Fatalf("warmed key %s != journaled key %s", w.Key, row0.Key)
	}
	if st := b.Stats(); st.Simulations != 0 || st.CacheHits != 1 {
		t.Fatalf("warmed hit must not compute: %+v", st)
	}
	if w.Trace == nil {
		t.Fatal("traced request lost its timeline")
	}
	sawHit := false
	for _, ev := range w.Trace.Events {
		switch ev.Type {
		case evCacheHit:
			sawHit = true
			if ev.Detail != "source=journal" {
				t.Fatalf("cache_hit detail = %q, want source=journal", ev.Detail)
			}
		case evQueued, evDispatched:
			t.Fatalf("warmed hit dispatched fresh work: %v", ev)
		}
	}
	if !sawHit {
		t.Fatalf("timeline missing cache_hit: %+v", w.Trace.Events)
	}

	// A new batch over the same cells is served entirely from the warmed
	// cache, and its provenance says where the results came from.
	sp2 := parseStream(t, postBatch(b, spec).Body.Bytes())
	waitBatchDone(t, b, sp2.header.Job)
	var status struct {
		Grid []batchRowStatus `json:"grid"`
	}
	if err := json.Unmarshal(get(b, "/batch/"+sp2.header.Job).Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	for _, row := range status.Grid {
		if row.Source != sourceJournal || row.Attempts != 0 {
			t.Fatalf("warmed batch row %d provenance = %q/%d, want %q/0",
				row.Index, row.Source, row.Attempts, sourceJournal)
		}
	}
	if st := b.Stats(); st.Simulations != 0 {
		t.Fatalf("warmed batch recomputed rows: %+v", st)
	}
}

// TestWarmCacheOffByDefault: without the flag, a restart keeps the old
// behavior — the journal serves batch endpoints, the result cache starts
// cold.
func TestWarmCacheOffByDefault(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{Workers: 2, JournalDir: dir})
	sp := parseStream(t, postBatch(a, `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1]}`).Body.Bytes())
	if sp.trailer.Status != "done" {
		t.Fatalf("corpus job did not finish: %+v", sp.trailer)
	}
	a.Close()

	b := New(Config{Workers: 2, JournalDir: dir})
	defer b.Close()
	if st := b.Stats(); st.CacheWarmed != 0 {
		t.Fatalf("cache warmed without the flag: %+v", st)
	}
	w := mustOK(t, b, `{"alg":"prefix","n":64,"p":4,"seed":1}`)
	if w.Cached {
		t.Fatal("cold restart served a cache hit")
	}
}

// TestJournalMaxAgeGC pins the startup age bound: completed jobs and orphan
// journal files idle past JournalMaxAge are evicted when the server comes
// up; unfinished jobs are never aged out, no matter how old — they are the
// resume surface.
func TestJournalMaxAgeGC(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{Workers: 2, JournalDir: dir})
	sp := parseStream(t, postBatch(a, `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1]}`).Body.Bytes())
	if sp.trailer.Status != "done" {
		t.Fatalf("job did not finish: %+v", sp.trailer)
	}
	doneID := sp.header.Job
	a.Close()

	// An unfinished journal (spec only, rows never computed) and an orphan
	// file no replay can read.
	jr, err := jobs.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	unfinished := &jobs.Spec{Algs: []string{"prefix"}, Ns: []int{64}, Ps: []int{4}, Seeds: []int64{77}}
	unfinished.Normalize()
	ulog, err := jr.Create("unfinished-job", unfinished)
	if err != nil {
		t.Fatal(err)
	}
	ulog.Close()
	orphan := filepath.Join(dir, "orphan.ndjson")
	if err := os.WriteFile(orphan, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Backdate everything past the age bound.
	old := time.Now().Add(-2 * time.Hour)
	for _, name := range []string{doneID + ".ndjson", "unfinished-job.ndjson", "orphan.ndjson"} {
		if err := os.Chtimes(filepath.Join(dir, name), old, old); err != nil {
			t.Fatal(err)
		}
	}

	b := New(Config{Workers: 2, JournalDir: dir, JournalMaxAge: time.Hour,
		Injector: func(int, int, string) Fault { return Fault{Delay: 20 * time.Millisecond} }})
	defer b.Close()
	// Startup GC runs synchronously inside New, after resume.
	if rr := get(b, "/batch/"+doneID); rr.Code != http.StatusNotFound {
		t.Fatalf("aged-out completed job still served: %d", rr.Code)
	}
	if _, err := os.Stat(filepath.Join(dir, doneID+".ndjson")); !os.IsNotExist(err) {
		t.Fatalf("aged-out journal file survives: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan journal file survives: %v", err)
	}
	// The equally-old unfinished job is protected and runs to completion.
	if rr := get(b, "/batch/unfinished-job"); rr.Code != http.StatusOK {
		t.Fatalf("unfinished job evicted by age GC: %d", rr.Code)
	}
	job := waitBatchDone(t, b, "unfinished-job")
	if got := job.Counts()[jobs.RowOK]; got != 1 {
		t.Fatalf("resumed unfinished job: %d ok rows, want 1", got)
	}
}

// TestJournalMaxAgeGCPeriodic: a job that completes while the server runs
// ages out from the background loop, without a restart.
func TestJournalMaxAgeGCPeriodic(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 2, JournalDir: dir, JournalMaxAge: 150 * time.Millisecond})
	defer s.Close()
	sp := parseStream(t, postBatch(s, `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1]}`).Body.Bytes())
	if sp.trailer.Status != "done" {
		t.Fatalf("job did not finish: %+v", sp.trailer)
	}
	id := sp.header.Job
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, statErr := os.Stat(filepath.Join(dir, id+".ndjson"))
		if get(s, "/batch/"+id).Code == http.StatusNotFound && os.IsNotExist(statErr) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("completed job %s never aged out", id)
}

// TestWarmCacheParallelMatchesJournalOrder: a warm restart prepares its
// rows on every CPU, yet what it leaves behind is what one pass over
// jobs.Journal.Replay's output, in directory and line order, computes:
// cache_warmed, warm_skipped_rows, the resident keys in LRU order and the
// warm-up log lines, at GOMAXPROCS 1 and 4 alike, over a journal of five
// jobs of 300 rows, whose middle job holds one non-canonical row, into a
// cache smaller than the corpus. The rows carry keys in the fmt.Sprintf
// rendering (sprintfKey), the form journals on disk hold, so they must
// resume. GET /corpus must then stream the bytes the export builds with
// the round-trip gate: journal rows that pass it, then the cache, by key.
func TestWarmCacheParallelMatchesJournalOrder(t *testing.T) {
	const (
		nJobs    = 5
		capacity = 1000
		badJob   = 2
		badRow   = 7
	)
	lim := Limits{}.withDefaults()
	rng := rand.New(rand.NewSource(29))
	src := t.TempDir()
	jr, err := jobs.OpenJournal(src)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < nJobs; j++ {
		spec := jobs.Spec{Algs: []string{"prefix", "fft"}, Ns: []int{64}, Ps: []int{4}}
		for s := 0; s < 150; s++ {
			spec.Seeds = append(spec.Seeds, int64(j*1000+s))
		}
		bad := -1
		if j == badJob {
			bad = badRow
		}
		journalSynthetic(t, jr, fmt.Sprintf("job%d", j), spec, rng, bad)
	}

	// One pass in directory and line order, with AddIfSpace's rule.
	replayed, err := jr.Replay()
	if err != nil || len(replayed) != nJobs {
		t.Fatalf("replay: %v (%d jobs)", err, len(replayed))
	}
	var (
		warmed, skipped int64
		lru, warmLogs   []string
	)
	for _, rj := range replayed {
		spec := rj.Spec
		rows, err := expandRows(&spec, lim, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rj.Rows {
			if rec.Status != jobs.RowOK || rec.Key != sprintfKey(&rows[rec.Index]) {
				t.Fatalf("job %s row %d: not a journal row", rj.ID, rec.Index)
			}
			if _, ok := roundTripRuns(rec.Result); !ok {
				warmLogs = append(warmLogs, fmt.Sprintf("serve: warm-cache: job %s row %s: result bytes not canonical; skipped", rj.ID, rec.Key))
				continue
			}
			if len(lru) == capacity {
				skipped++
				continue
			}
			lru = append([]string{rec.Key}, lru...)
			warmed++
		}
	}
	if len(warmLogs) != 1 || skipped == 0 {
		t.Fatalf("the journal must hold one non-canonical row and outgrow the cache: %d, %d skipped", len(warmLogs), skipped)
	}

	var logsAt1 []string
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var logs []string
			prev := runtime.GOMAXPROCS(procs)
			s := newTestServer(t, Config{JournalDir: dir, WarmCache: true, CacheEntries: capacity, NodeID: "node-test",
				Logf: func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					logs = append(logs, fmt.Sprintf(format, args...))
				}})
			runtime.GOMAXPROCS(prev)
			mu.Lock()
			startup := slices.Clone(logs)
			mu.Unlock()

			if st := s.Stats(); st.CacheWarmed != warmed || st.WarmSkipped != skipped {
				t.Fatalf("cache_warmed %d, warm_skipped_rows %d; one pass gives %d, %d", st.CacheWarmed, st.WarmSkipped, warmed, skipped)
			}
			var resident []string
			for _, p := range s.cache.Snapshot() {
				resident = append(resident, p.Key)
			}
			if !slices.Equal(resident, lru) {
				t.Fatalf("resident keys differ from one pass's LRU order (%d vs %d keys)", len(resident), len(lru))
			}
			var gotWarm []string
			for _, l := range startup {
				if strings.HasPrefix(l, "serve: warm-cache:") {
					gotWarm = append(gotWarm, l)
				}
			}
			if !slices.Equal(gotWarm, warmLogs) {
				t.Fatalf("warm-up log lines %q, want %q", gotWarm, warmLogs)
			}
			if procs == 1 {
				logsAt1 = startup
			} else if !slices.Equal(startup, logsAt1) {
				t.Fatalf("start-up log differs from GOMAXPROCS=1's:\n%s\nvs\n%s", strings.Join(startup, "\n"), strings.Join(logsAt1, "\n"))
			}

			if got, want := corpusBody(t, s), roundTripCorpus(t, s, replayed); !bytes.Equal(got, want) {
				t.Fatalf("GET /corpus differs from the round-trip export (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// journalSynthetic journals every row of spec as job id, in a random order,
// each with random runs under its sprintfKey key, and the runs of row bad
// (when in range) in bytes that are valid JSON but not json.Marshal's.
func journalSynthetic(t *testing.T, jr *jobs.Journal, id string, spec jobs.Spec, rng *rand.Rand, bad int) {
	t.Helper()
	rows, err := expandRows(&spec, Limits{}.withDefaults(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	log, err := jr.Create(id, &spec)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, i := range rng.Perm(len(rows)) { // rows finish in any order
		runs := make([]RunSummary, 1+rng.Intn(2))
		for r := range runs {
			runs[r] = RunSummary{Seed: rows[i].Seed + int64(r), Makespan: rng.Int63(), Steals: -rng.Int63n(5),
				CacheMisses: math.MaxInt64, BlockMisses: math.MinInt64}
		}
		if i == bad {
			runs[0].Steals = 0
		}
		result := mustJSON(t, runs)
		if i == bad {
			// Valid JSON, so the journal keeps it, but not json.Marshal's.
			result = bytes.Replace(result, []byte(`"steals":0`), []byte(`"steals":-0`), 1)
		}
		if err := log.AppendRow(jobs.RowRecord{Index: i, Key: sprintfKey(&rows[i]), Status: jobs.RowOK, Result: result}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalResumeSpecNoLongerExpands: a journaled job whose rows this
// node's limits now refuse is left alone, and the reason logged is the
// first refused row's, as expandRows reports it, though the rows are
// checked in parallel units and the first refused row (p = 8, row 300)
// sits in the job's second unit, behind a unit of accepted rows.
func TestJournalResumeSpecNoLongerExpands(t *testing.T) {
	dir := t.TempDir()
	jr, err := jobs.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := jobs.Spec{Algs: []string{"prefix"}, Ns: []int{64}, Ps: []int{4, 8, 16}}
	for s := 0; s < 300; s++ {
		spec.Seeds = append(spec.Seeds, int64(s))
	}
	journalSynthetic(t, jr, "narrowed", spec, rand.New(rand.NewSource(29)), -1)
	lim := Limits{MaxP: 4}.withDefaults()
	_, wantErr := expandRows(&spec, lim, 4096)
	if wantErr == nil || !strings.HasPrefix(wantErr.Error(), "row 300 ") {
		t.Fatalf("expandRows under MaxP 4: %v; want row 300 refused", wantErr)
	}

	var mu sync.Mutex
	var logs []string
	prev := runtime.GOMAXPROCS(4)
	s := newTestServer(t, Config{JournalDir: dir, WarmCache: true, Limits: lim,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
	runtime.GOMAXPROCS(prev)
	want := fmt.Sprintf("serve: journal job narrowed: spec no longer expands (%v); leaving journal untouched", wantErr)
	mu.Lock()
	found := slices.Contains(logs, want)
	mu.Unlock()
	if !found {
		t.Fatalf("log lacks %q:\n%s", want, strings.Join(logs, "\n"))
	}
	if st := s.Stats(); st.CacheWarmed != 0 || st.WarmSkipped != 0 {
		t.Fatalf("rows of a job that no longer expands were warmed: %+v", st)
	}
	if rr := get(s, "/batch/narrowed"); rr.Code != http.StatusNotFound {
		t.Fatalf("GET /batch/narrowed = %d, want 404", rr.Code)
	}
}

// roundTripCorpus is the /corpus stream as the export built it with the
// round-trip gate: each journal row whose result bytes pass roundTripRuns,
// then every cache entry, by key, sorted.
func roundTripCorpus(t *testing.T, s *Server, replayed []jobs.ReplayedJob) []byte {
	t.Helper()
	byKey := make(map[string]corpusRow)
	for _, rj := range replayed {
		spec := rj.Spec
		rows, err := expandRows(&spec, s.cfg.Limits, s.cfg.MaxBatchRows)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rj.Rows {
			if _, ok := roundTripRuns(rec.Result); ok && rec.Status == jobs.RowOK && rec.Key == rows[rec.Index].Key() {
				byKey[rec.Key] = corpusRow{Type: "row", Key: rec.Key, Request: wireRequest(rows[rec.Index]), Result: rec.Result}
			}
		}
	}
	for _, p := range s.cache.Snapshot() {
		byKey[p.Key] = corpusRow{Type: "row", Key: p.Key, Request: wireRequest(p.req), Result: mustJSON(t, p.Runs)}
	}
	keys := slices.Sorted(maps.Keys(byKey))
	var out, rowLines []byte
	out = append(mustJSON(t, corpusHeader{Type: "header", Node: s.nodeID, Rows: len(keys)}), '\n')
	for _, k := range keys {
		rowLines = append(append(rowLines, mustJSON(t, byKey[k])...), '\n')
	}
	sum := sha256.Sum256(rowLines)
	out = append(out, rowLines...)
	return append(append(out, mustJSON(t, corpusTrailer{Type: "end", Rows: len(keys), Checksum: hex.EncodeToString(sum[:])})...), '\n')
}

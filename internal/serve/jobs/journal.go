package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RowStatus is the terminal (journaled) or live state of one batch row.
type RowStatus string

const (
	// RowUnstarted rows have no journal record; they are exactly the rows a
	// resumed job recomputes.
	RowUnstarted RowStatus = "unstarted"
	// RowRunning rows are in flight; a drain checkpoints them back to
	// unstarted unless they finish inside the grace.
	RowRunning RowStatus = "running"
	// RowOK rows completed with a result.
	RowOK RowStatus = "ok"
	// RowFailed rows exhausted their retry budget on non-quarantine failures.
	RowFailed RowStatus = "failed"
	// RowDeadline rows ran out of their per-row deadline.
	RowDeadline RowStatus = "deadline"
	// RowQuarantined rows tripped the per-key circuit breaker: the
	// configuration panicked on K distinct engines and is fenced off instead
	// of burning the rest of the job's budget.
	RowQuarantined RowStatus = "row_quarantined"
)

// Terminal reports whether the status is final (journaled, never recomputed).
func (s RowStatus) Terminal() bool {
	switch s {
	case RowOK, RowFailed, RowDeadline, RowQuarantined:
		return true
	}
	return false
}

// RowRecord is one journaled row completion. The same shape is the wire
// format of the /batch NDJSON stream and the /batch/{id}/grid rows, so the
// bytes a client streams, the bytes the journal holds, and the bytes the
// grid serves after a resume are all the same bytes.
type RowRecord struct {
	Type   string          `json:"type"` // always "row"
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Status RowStatus       `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// specRecord opens each job file.
type specRecord struct {
	Type string          `json:"type"` // always "spec"
	Job  string          `json:"job"`
	Spec json.RawMessage `json:"spec"`
}

// record is the decode-side envelope covering both record shapes.
type record struct {
	Type string          `json:"type"`
	Job  string          `json:"job,omitempty"`
	Spec json.RawMessage `json:"spec,omitempty"`

	Index  int             `json:"index,omitempty"`
	Key    string          `json:"key,omitempty"`
	Status RowStatus       `json:"status,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

const journalExt = ".ndjson"

// Journal is a directory of append-only per-job NDJSON logs. Every record
// is fsync'd as it is appended, so a job survives a process hard-kill: on
// restart, Replay rebuilds each job's spec and its finished rows, and only
// the rows without a record are recomputed.
type Journal struct {
	dir string
	// Logf receives replay warnings (torn tails, unreadable files); nil
	// discards them.
	Logf func(format string, args ...any)
}

// OpenJournal opens (creating if needed) the journal directory and sweeps
// any orphaned rewrite temp files: a crash between Rewrite's write-temp and
// its rename strands a ".ndjson.tmp" file that Replay and Entries skip but
// nothing would ever remove, leaking directory space forever.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("jobs: empty journal dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: journal dir: %w", err)
	}
	j := &Journal{dir: dir}
	j.sweepTempFiles()
	return j, nil
}

// journalTmpExt is the suffix Rewrite's temp files carry. It does not end in
// journalExt's bare suffix, so Replay/Entries never mistake a half-written
// rewrite for a job log.
const journalTmpExt = journalExt + ".tmp"

// sweepTempFiles removes temp files a crashed Rewrite/Compact left behind.
// Safe at open time: rewrites only happen through this Journal after it is
// constructed, so any temp file present now is an orphan by definition.
func (j *Journal) sweepTempFiles() {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		j.logf("jobs: journal temp sweep: %v", err)
		return
	}
	removed := false
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), journalTmpExt) {
			continue
		}
		if err := os.Remove(filepath.Join(j.dir, e.Name())); err != nil {
			j.logf("jobs: journal temp sweep: %v", err)
			continue
		}
		removed = true
		j.logf("jobs: removed orphaned journal temp file %s", e.Name())
	}
	if removed {
		if err := syncDir(j.dir); err != nil {
			j.logf("jobs: journal temp sweep: dir sync: %v", err)
		}
	}
}

func (j *Journal) logf(format string, args ...any) {
	if j.Logf != nil {
		j.Logf(format, args...)
	}
}

func (j *Journal) path(id string) string { return filepath.Join(j.dir, id+journalExt) }

// Create opens a fresh log for job id and durably writes its spec record
// (record fsync'd, then the directory entry fsync'd) before returning.
func (j *Journal) Create(id string, spec *Spec) (*JobLog, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("jobs: marshal spec: %w", err)
	}
	f, err := os.OpenFile(j.path(id), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: create journal: %w", err)
	}
	l := &JobLog{f: f}
	if err := l.append(specRecord{Type: "spec", Job: id, Spec: raw}); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(j.dir); err != nil {
		j.logf("jobs: journal dir sync: %v", err)
	}
	return l, nil
}

// Remove deletes job id's journal file — the retention path for a completed
// job evicted from the serving layer's index. Removing a file that is
// already gone is not an error. The directory entry is fsync'd like Create's:
// without it, a crash right after the eviction could resurrect the deleted
// journal on restart, and the evicted job would reappear from the dead.
func (j *Journal) Remove(id string) error {
	if err := os.Remove(j.path(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("jobs: remove journal: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		return fmt.Errorf("jobs: remove journal: dir sync: %w", err)
	}
	return nil
}

// Reopen opens an existing job's log for appending (resume path), first
// truncating any torn final record. A crash mid-append leaves a partial line
// with no trailing newline; opening with plain O_APPEND and writing would
// concatenate the next record onto that partial line, producing a corrupt
// line no future replay can parse — and because replay stops at the first
// corrupt line, every record appended after it would be silently invisible
// to every subsequent resume. Scanning to the last complete newline and
// truncating the tail keeps the log parseable end to end across arbitrary
// crash/resume sequences.
//
// Reopen does not repair a corrupt line that already carries its newline
// (replay cannot tell such a record's bytes from a short valid one); callers
// resuming a journal whose replay reported Corrupt must Rewrite first.
func (j *Journal) Reopen(id string) (*JobLog, error) {
	f, err := os.OpenFile(j.path(id), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: reopen journal: %w", err)
	}
	torn, err := truncateTornTail(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: reopen journal: %w", err)
	}
	if torn > 0 {
		j.logf("jobs: journal %s: truncated %d-byte torn final record before resuming appends", id, torn)
	}
	return &JobLog{f: f}, nil
}

// truncateTornTail cuts f back to its last complete newline-terminated
// record and fsyncs the truncation, returning how many torn bytes were
// dropped. Records are written newline-last in a single write, so any bytes
// past the final newline belong to a record whose fsync never returned.
func truncateTornTail(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	buf := make([]byte, 4096)
	pos := size
	for pos > 0 {
		n := int64(len(buf))
		if n > pos {
			n = pos
		}
		if _, err := f.ReadAt(buf[:n], pos-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end := pos - n + int64(i) + 1
			if end == size {
				return 0, nil
			}
			if err := f.Truncate(end); err != nil {
				return 0, err
			}
			return size - end, f.Sync()
		}
		pos -= n
	}
	if size == 0 {
		return 0, nil
	}
	// No newline at all: the whole file is one torn record.
	if err := f.Truncate(0); err != nil {
		return 0, err
	}
	return size, f.Sync()
}

// syncDir fsyncs a directory so a freshly created journal file's dirent is
// durable too.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReplayedJob is one job reconstructed from its journal: the spec that
// opened the log plus every intact row record, in append order.
type ReplayedJob struct {
	ID   string
	Spec Spec
	Rows []RowRecord
	// SpecRaw is the spec record's raw JSON, preserved so Rewrite can emit
	// the original spec bytes instead of a re-marshal.
	SpecRaw json.RawMessage
	// Corrupt reports that replay stopped at a complete-but-unparseable line
	// before the end of the file. Any records past that line exist on disk
	// but are invisible to every replay — and so would be any record
	// appended after them. A corrupt journal must be Rewritten from its
	// intact replayed prefix before new records are appended.
	Corrupt bool
}

// Replay scans the journal directory and reconstructs every job. A torn
// final line (the record a crash interrupted mid-write) is discarded;
// anything after a corrupt line is treated as suspect and ignored, so a
// replayed row is always one that was fully fsync'd. Files whose spec
// record is unreadable are skipped with a warning — the serving layer
// recomputes from scratch rather than trusting a broken log.
//
// The files are decoded on up to GOMAXPROCS goroutines (ForEach). The jobs
// come back in directory order, and each file's warnings reach Logf once
// every file is decoded, file by file in that order and each file's in line
// order: the same calls, in the same order, as a decode of one file after
// another.
func (j *Journal) Replay() ([]ReplayedJob, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: read journal dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, journalExt) {
			names = append(names, name)
		}
	}
	type logCall struct {
		format string
		args   []any
	}
	type replayed struct {
		job  ReplayedJob
		err  error
		logs []logCall
	}
	res := make([]replayed, len(names))
	ForEach(len(names), func(i int) {
		r := &res[i]
		r.job, r.err = j.replayOne(strings.TrimSuffix(names[i], journalExt), func(format string, args ...any) {
			r.logs = append(r.logs, logCall{format, args})
		})
	})
	var out []ReplayedJob
	for i, r := range res {
		for _, c := range r.logs {
			j.logf(c.format, c.args...)
		}
		if r.err != nil {
			j.logf("jobs: skipping journal %s: %v", names[i], r.err)
			continue
		}
		out = append(out, r.job)
	}
	return out, nil
}

// ForEach calls f(i) for every i in [0, n) on up to GOMAXPROCS goroutines,
// and returns once every call has. Replay decodes its files through it, and
// the serving layer's warm-up prepares its units of rows.
func ForEach(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// replayOne decodes job id's file, sending its warnings to logf.
func (j *Journal) replayOne(id string, logf func(format string, args ...any)) (ReplayedJob, error) {
	f, err := os.Open(j.path(id))
	if err != nil {
		return ReplayedJob{}, err
	}
	defer f.Close()

	job := ReplayedJob{ID: id}
	r := bufio.NewReader(f)
	first := true
	for lineNo := 1; ; lineNo++ {
		line, err := r.ReadBytes('\n')
		if err != nil {
			// A line without a trailing newline is a torn tail: the crash hit
			// mid-write, before the fsync could have returned. Discard it.
			if err == io.EOF {
				if len(line) > 0 {
					logf("jobs: journal %s: discarding torn final record", id)
				}
				break
			}
			return ReplayedJob{}, err
		}
		var rec record
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			// Anything after a bad line is suspect, so stop here and keep
			// what replayed. The complete (newline-terminated) bad line is
			// real corruption, not a torn tail: mark the job so the resume
			// path rewrites the log before appending — appends landing after
			// the corrupt line would be invisible to every future replay.
			logf("jobs: journal %s: stopping replay at corrupt line %d: %v", id, lineNo, uerr)
			job.Corrupt = true
			break
		}
		if first {
			if rec.Type != "spec" {
				return ReplayedJob{}, fmt.Errorf("first record is %q, want spec", rec.Type)
			}
			if err := json.Unmarshal(rec.Spec, &job.Spec); err != nil {
				return ReplayedJob{}, fmt.Errorf("unreadable spec: %w", err)
			}
			job.SpecRaw = rec.Spec
			job.Spec.Normalize()
			first = false
			continue
		}
		if rec.Type != "row" || !rec.Status.Terminal() {
			logf("jobs: journal %s: ignoring unexpected %q record at line %d", id, rec.Type, lineNo)
			continue
		}
		job.Rows = append(job.Rows, RowRecord{
			Type: "row", Index: rec.Index, Key: rec.Key,
			Status: rec.Status, Result: rec.Result, Error: rec.Error,
		})
	}
	if first {
		return ReplayedJob{}, errors.New("empty journal (no spec record)")
	}
	return job, nil
}

// dedupRows keeps the first record per row index, in journal order — the
// same first-write-wins rule Job.ApplyReplayed applies, so a rewritten
// journal replays to the identical row set.
func dedupRows(rows []RowRecord) []RowRecord {
	seen := make(map[int]bool, len(rows))
	out := rows[:0:0]
	for _, rec := range rows {
		if seen[rec.Index] {
			continue
		}
		seen[rec.Index] = true
		out = append(out, rec)
	}
	return out
}

// Rewrite atomically replaces job id's log with its minimal replayable
// content: the spec record plus exactly one record per terminal row (first
// record wins for duplicated indexes). The new file is written to a
// temporary name, fsync'd, renamed over the old log, and the directory
// entry fsync'd — a crash at any point leaves either the old intact log or
// the new one, never a half-rewritten file. This is both the corrupt-line
// repair the resume path runs before appending and the compaction
// primitive behind Compact.
func (j *Journal) Rewrite(rj ReplayedJob) error {
	raw := rj.SpecRaw
	if raw == nil {
		var err error
		if raw, err = json.Marshal(&rj.Spec); err != nil {
			return fmt.Errorf("jobs: rewrite journal: marshal spec: %w", err)
		}
	}
	tmp := j.path(rj.ID) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: rewrite journal: %w", err)
	}
	w := bufio.NewWriter(f)
	writeLine := func(rec any) error {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		_, err = w.Write(b)
		return err
	}
	err = writeLine(specRecord{Type: "spec", Job: rj.ID, Spec: raw})
	for _, rec := range dedupRows(rj.Rows) {
		if err != nil {
			break
		}
		rec.Type = "row"
		err = writeLine(rec)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: rewrite journal: %w", err)
	}
	if err := os.Rename(tmp, j.path(rj.ID)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: rewrite journal: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		return fmt.Errorf("jobs: rewrite journal: dir sync: %w", err)
	}
	return nil
}

// Compact rewrites job id's log down to its spec plus one record per
// terminal row, dropping duplicate and ignored records, torn tails and
// corrupt lines accumulated across crash/resume cycles. Compacting is
// idempotent — a compacted log replays to exactly the rows the original
// did — and returns how many bytes it reclaimed.
func (j *Journal) Compact(id string) (reclaimed int64, err error) {
	before, err := os.Stat(j.path(id))
	if err != nil {
		return 0, fmt.Errorf("jobs: compact journal: %w", err)
	}
	rj, err := j.replayOne(id, j.logf)
	if err != nil {
		return 0, fmt.Errorf("jobs: compact journal %s: %w", id, err)
	}
	if err := j.Rewrite(rj); err != nil {
		return 0, err
	}
	after, err := os.Stat(j.path(id))
	if err != nil {
		return 0, fmt.Errorf("jobs: compact journal: %w", err)
	}
	return before.Size() - after.Size(), nil
}

// JournalEntry describes one on-disk journal file, for retention and GC
// decisions in the serving layer.
type JournalEntry struct {
	ID      string
	Size    int64
	ModTime time.Time
}

// Entries lists the journal directory's job files (compaction temp files
// and foreign files excluded). ModTime is the time of the last append —
// for a finished job, effectively its completion time.
func (j *Journal) Entries() ([]JournalEntry, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: read journal dir: %w", err)
	}
	var out []JournalEntry
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, journalExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with a removal
		}
		out = append(out, JournalEntry{
			ID:      strings.TrimSuffix(name, journalExt),
			Size:    info.Size(),
			ModTime: info.ModTime(),
		})
	}
	return out, nil
}

// JobLog is the append side of one job's journal. Appends are serialized
// and fsync'd: when AppendRow returns nil, the row is durable.
type JobLog struct {
	mu sync.Mutex
	f  *os.File
}

// AppendRow durably appends one terminal row record. The line written is
// exactly json.Marshal(rec) — the same bytes the /batch stream and the
// grid endpoint emit for the row, which is what makes a resumed job's
// final grid byte-identical to an uninterrupted run's.
func (l *JobLog) AppendRow(rec RowRecord) error {
	if !rec.Status.Terminal() {
		return fmt.Errorf("jobs: refusing to journal non-terminal status %q", rec.Status)
	}
	rec.Type = "row"
	return l.append(rec)
}

func (l *JobLog) append(rec any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: marshal record: %w", err)
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("jobs: journal closed")
	}
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("jobs: journal write: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("jobs: journal fsync: %w", err)
	}
	return nil
}

// Close closes the log file. Safe to call more than once.
func (l *JobLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

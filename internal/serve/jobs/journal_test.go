package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func testSpec() *Spec {
	s := &Spec{Algs: []string{"prefix"}, Ns: []int{64}, Ps: []int{2}, Seeds: []int64{1, 2}}
	s.Normalize()
	return s
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	log, err := j.Create("job1", spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := []RowRecord{
		{Index: 0, Key: "k0", Status: RowOK, Result: json.RawMessage(`[{"seed":1}]`)},
		{Index: 1, Key: "k1", Status: RowQuarantined, Error: "panicked 3 time(s)"},
	}
	for _, r := range rows {
		if err := log.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}

	re, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 1 || re[0].ID != "job1" {
		t.Fatalf("replay: %+v", re)
	}
	if len(re[0].Rows) != 2 {
		t.Fatalf("replayed %d rows, want 2", len(re[0].Rows))
	}
	for i, r := range re[0].Rows {
		want := rows[i]
		want.Type = "row"
		got := r
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("row %d: replayed %s want %s", i, gb, wb)
		}
	}
	if re[0].Spec.RowCount() != spec.RowCount() {
		t.Fatalf("spec did not survive replay: %+v", re[0].Spec)
	}
}

// TestJournalRowBytesStable pins that the journal line for a row is exactly
// json.Marshal(RowRecord) — the same bytes the stream and grid endpoints
// emit, which is what makes resumed grids byte-identical.
func TestJournalRowBytesStable(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, err := j.Create("job1", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	rec := RowRecord{Type: "row", Index: 3, Key: "kk", Status: RowOK,
		Result: json.RawMessage(`[{"seed":9,"makespan":12}]`)}
	if err := log.AppendRow(rec); err != nil {
		t.Fatal(err)
	}
	log.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "job1"+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want spec+row lines, got %d: %q", len(lines), raw)
	}
	want, _ := json.Marshal(rec)
	if lines[1] != string(want) {
		t.Fatalf("journal line differs from RowRecord marshal:\n%s\nvs\n%s", lines[1], want)
	}
}

// TestJournalTornTail: a crash mid-write leaves a final line without its
// newline; replay must discard exactly that record and keep the rest.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, err := j.Create("job1", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK})
	log.Close()
	path := filepath.Join(dir, "job1"+journalExt)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"row","index":1,"key":"k1","sta`) // torn mid-record
	f.Close()

	re, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 1 || len(re[0].Rows) != 1 || re[0].Rows[0].Index != 0 {
		t.Fatalf("torn tail not discarded cleanly: %+v", re)
	}
}

// TestJournalCorruptLineStopsReplay: anything after a corrupt (complete but
// unparseable) line is suspect; replay keeps only the prefix.
func TestJournalCorruptLineStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, _ := j.Create("job1", testSpec())
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK})
	log.Close()
	path := filepath.Join(dir, "job1"+journalExt)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("NOT JSON\n")
	f.WriteString(`{"type":"row","index":1,"key":"k1","status":"ok"}` + "\n")
	f.Close()

	re, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 1 || len(re[0].Rows) != 1 {
		t.Fatalf("replay did not stop at corrupt line: %+v", re)
	}
}

// TestJournalSkipsUnreadableSpec: a job file whose spec record is broken is
// skipped entirely (recompute from scratch beats trusting a broken log),
// without sinking the other jobs in the directory.
func TestJournalSkipsUnreadableSpec(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, _ := j.Create("good", testSpec())
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK})
	log.Close()
	if err := os.WriteFile(filepath.Join(dir, "bad"+journalExt),
		[]byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "empty"+journalExt), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var warnings int
	j.Logf = func(string, ...any) { warnings++ }
	re, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 1 || re[0].ID != "good" {
		t.Fatalf("want only the good job, got %+v", re)
	}
	if warnings == 0 {
		t.Fatal("broken journals skipped silently")
	}
}

// TestJournalReopenAppend: the resume path appends to an existing log and
// replay sees old and new rows.
func TestJournalReopenAppend(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, _ := j.Create("job1", testSpec())
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK})
	log.Close()

	log2, err := j.Reopen("job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.AppendRow(RowRecord{Index: 1, Key: "k1", Status: RowOK}); err != nil {
		t.Fatal(err)
	}
	log2.Close()

	re, _ := j.Replay()
	if len(re) != 1 || len(re[0].Rows) != 2 {
		t.Fatalf("reopen-append lost rows: %+v", re)
	}
	if err := log2.AppendRow(RowRecord{Index: 2, Key: "k2", Status: RowOK}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestJournalReopenTruncatesTornTail is the headline regression test for
// the torn-tail resume bug: a crash mid-append leaves a partial final line,
// and Reopen used to blind-append onto it — fusing the partial record and
// the first post-resume record into one corrupt line that stopped the NEXT
// replay, silently discarding every row journaled after the first crash.
// The test runs the double-crash sequence: torn tail → resume + append →
// torn tail again → resume; the final replay must see every appended row.
func TestJournalReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, _ := j.Create("job1", testSpec())
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK})
	log.Close()
	path := filepath.Join(dir, "job1"+journalExt)

	tear := func(fragment string) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(fragment); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// Crash 1: a row record torn mid-write.
	tear(`{"type":"row","index":1,"key":"k1","sta`)

	log2, err := j.Reopen("job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.AppendRow(RowRecord{Index: 1, Key: "k1", Status: RowOK}); err != nil {
		t.Fatal(err)
	}
	if err := log2.AppendRow(RowRecord{Index: 2, Key: "k2", Status: RowOK}); err != nil {
		t.Fatal(err)
	}
	log2.Close()

	// Crash 2: torn again, mid-way through another record.
	tear(`{"type":"row","index":3,`)

	log3, err := j.Reopen("job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := log3.AppendRow(RowRecord{Index: 3, Key: "k3", Status: RowOK}); err != nil {
		t.Fatal(err)
	}
	log3.Close()

	re, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(re))
	}
	if re[0].Corrupt {
		t.Fatal("double-crash resume left the journal corrupt")
	}
	if got := len(re[0].Rows); got != 4 {
		t.Fatalf("replayed %d rows, want 4 (post-crash appends stranded): %+v", got, re[0].Rows)
	}
	for i, r := range re[0].Rows {
		if r.Index != i {
			t.Fatalf("row %d replayed with index %d", i, r.Index)
		}
	}
}

// TestJournalReopenTruncatesWholeTornFile: a journal torn before its first
// newline (crash during the very first spec write) truncates to empty.
func TestJournalReopenTruncatesWholeTornFile(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	path := filepath.Join(dir, "torn"+journalExt)
	if err := os.WriteFile(path, []byte(`{"type":"spec","job":"torn"`), 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := j.Reopen("torn")
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("whole-file torn record not truncated: %d bytes remain", st.Size())
	}
}

// TestJournalCorruptRewriteThenAppend pins the dead-zone bugfix: appending
// after a corrupt complete line journals rows no replay can ever see.
// The resume protocol — Rewrite the intact replayed prefix, then Reopen and
// append — must leave every appended row visible to the next replay.
func TestJournalCorruptRewriteThenAppend(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, _ := j.Create("job1", testSpec())
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK,
		Result: json.RawMessage(`[{"seed":1}]`)})
	log.Close()
	path := filepath.Join(dir, "job1"+journalExt)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("CORRUPT BUT COMPLETE\n")
	f.WriteString(`{"type":"row","index":1,"key":"dead","status":"ok"}` + "\n")
	f.Close()

	re, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 1 || !re[0].Corrupt {
		t.Fatalf("corrupt journal not flagged: %+v", re)
	}
	if len(re[0].Rows) != 1 {
		t.Fatalf("intact prefix = %d rows, want 1", len(re[0].Rows))
	}

	// The resume protocol: repair first, then append.
	if err := j.Rewrite(re[0]); err != nil {
		t.Fatal(err)
	}
	log2, err := j.Reopen("job1")
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.AppendRow(RowRecord{Index: 1, Key: "k1", Status: RowOK}); err != nil {
		t.Fatal(err)
	}
	log2.Close()

	re2, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(re2) != 1 || re2[0].Corrupt {
		t.Fatalf("rewritten journal still corrupt: %+v", re2)
	}
	if got := len(re2[0].Rows); got != 2 {
		t.Fatalf("post-repair append invisible to replay: %d rows, want 2", got)
	}
	if re2[0].Rows[1].Key != "k1" {
		t.Fatalf("replayed dead-zone record instead of the repaired append: %+v", re2[0].Rows[1])
	}
	// The intact prefix row survives byte-identically.
	if string(re2[0].Rows[0].Result) != `[{"seed":1}]` {
		t.Fatalf("prefix row result changed: %s", re2[0].Rows[0].Result)
	}
}

// TestJournalCompact: duplicates, ignored records, a corrupt line and a torn
// tail all compact away, leaving spec + one line per terminal row; compaction
// is a replay fixpoint and idempotent.
func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, _ := j.Create("job1", testSpec())
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK,
		Result: json.RawMessage(`[{"seed":1}]`)})
	log.AppendRow(RowRecord{Index: 1, Key: "k1", Status: RowFailed, Error: "boom"})
	// Duplicate for index 0 (a resumed run that recomputed before replaying —
	// first record must win) and an ignored foreign record.
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowFailed, Error: "late duplicate"})
	log.Close()
	path := filepath.Join(dir, "job1"+journalExt)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"type":"checkpoint"}` + "\n")
	f.WriteString(`{"type":"row","index":1,"key":"k1","torn`) // torn tail
	f.Close()

	before, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}

	reclaimed, err := j.Compact("job1")
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= 0 {
		t.Fatalf("compaction reclaimed %d bytes, want > 0", reclaimed)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 3 { // spec + 2 distinct terminal rows
		t.Fatalf("compacted journal has %d lines, want 3:\n%s", len(lines), raw)
	}

	after, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Corrupt {
		t.Fatal("compacted journal replays corrupt")
	}
	wantRows := dedupRows(before[0].Rows)
	if len(after[0].Rows) != len(wantRows) {
		t.Fatalf("replay-after-compact = %d rows, replay-before (deduped) = %d",
			len(after[0].Rows), len(wantRows))
	}
	for i := range wantRows {
		gb, _ := json.Marshal(after[0].Rows[i])
		wb, _ := json.Marshal(wantRows[i])
		if !bytes.Equal(gb, wb) {
			t.Fatalf("row %d changed across compaction:\n%s\nvs\n%s", i, gb, wb)
		}
	}
	if after[0].Rows[0].Status != RowOK {
		t.Fatalf("first-write-wins violated: index 0 compacted to %q", after[0].Rows[0].Status)
	}

	// Idempotent: compacting a compacted log reclaims nothing and changes
	// nothing.
	reclaimed2, err := j.Compact("job1")
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed2 != 0 {
		t.Fatalf("second compaction reclaimed %d bytes, want 0", reclaimed2)
	}
}

// TestJournalRemoveDurable: Remove fsyncs the directory entry (same
// durability rule as Create) and tolerates an already-missing file, so a
// retention eviction can't resurrect on restart and the path is idempotent.
func TestJournalRemoveDurable(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, _ := j.Create("job1", testSpec())
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK})
	log.Close()

	if err := j.Remove("job1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job1"+journalExt)); !os.IsNotExist(err) {
		t.Fatalf("journal file survives Remove: %v", err)
	}
	// A fresh Journal handle over the same directory (a restarted process)
	// must not see the job.
	j2, _ := OpenJournal(dir)
	re, err := j2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 0 {
		t.Fatalf("removed job resurrected on replay: %+v", re)
	}
	if err := j.Remove("job1"); err != nil {
		t.Fatalf("removing an already-removed job: %v", err)
	}
}

// TestJournalEntries: Entries lists job files only — temp files from an
// interrupted rewrite and foreign files are invisible.
func TestJournalEntries(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, _ := j.Create("job1", testSpec())
	log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK})
	log.Close()
	os.WriteFile(filepath.Join(dir, "job2"+journalExt+".tmp"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644)

	ents, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].ID != "job1" {
		t.Fatalf("entries = %+v, want exactly job1", ents)
	}
	if ents[0].Size <= 0 || ents[0].ModTime.IsZero() {
		t.Fatalf("entry missing size/mtime: %+v", ents[0])
	}
}

func TestJournalRejectsNonTerminal(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir)
	log, _ := j.Create("job1", testSpec())
	defer log.Close()
	if err := log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowRunning}); err == nil {
		t.Fatal("journaled a non-terminal status")
	}
}

// TestOpenJournalSweepsTempFiles: a crash between Rewrite's write-temp and
// rename strands a .ndjson.tmp file that replay skips but nothing would ever
// remove — OpenJournal GCs them, without touching real journals or foreign
// files.
func TestOpenJournalSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := j.Create("job1", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRow(RowRecord{Index: 0, Key: "k0", Status: RowOK,
		Result: json.RawMessage(`[{"seed":1}]`)}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	orphan := filepath.Join(dir, "job1.ndjson.tmp")
	if err := os.WriteFile(orphan, []byte("half-written rewrite"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "notes.tmp") // not a journal temp file
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived the sweep: %v", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("sweep removed a non-journal file: %v", err)
	}
	replayed, err := j.Replay()
	if err != nil || len(replayed) != 1 || len(replayed[0].Rows) != 1 {
		t.Fatalf("journal damaged by sweep: %v (%d jobs)", err, len(replayed))
	}
}

// TestJournalReplayParallelOrder: Replay decodes its files on several
// goroutines, yet returns the jobs in directory order with each file's rows
// in line order, and logs what a decode of one file after another logs:
// file by file, and within a file line by line. Files cycle through an
// ignored record then a torn tail, a corrupt line, and a missing spec.
func TestJournalReplayParallelOrder(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	j.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	var wantIDs, wantLogs []string
	wantRows := map[string][]int{}
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("job%02d", i)
		path := filepath.Join(dir, id+journalExt)
		if i%4 == 3 {
			if err := os.WriteFile(path, []byte(`{"type":"row","index":0,"key":"k","status":"ok"}`+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			wantLogs = append(wantLogs, fmt.Sprintf(`jobs: skipping journal %s: first record is "row", want spec`, id+journalExt))
			continue
		}
		log, err := j.Create(id, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3+i; r++ {
			if err := log.AppendRow(RowRecord{Index: (r * 7) % (3 + i), Key: fmt.Sprint("k", r), Status: RowOK, Result: json.RawMessage(`[]`)}); err != nil {
				t.Fatal(err)
			}
			wantRows[id] = append(wantRows[id], (r*7)%(3+i))
		}
		log.Close()
		var tail string
		switch i % 4 {
		case 0:
			tail = `{"type":"row","index":1,"key":"k","status":"running"}` + "\n" + `{"type":"row","index":2`
			wantLogs = append(wantLogs,
				fmt.Sprintf(`jobs: journal %s: ignoring unexpected "row" record at line %d`, id, 5+i),
				fmt.Sprintf("jobs: journal %s: discarding torn final record", id))
		case 1:
			tail = "garbage\n"
			wantLogs = append(wantLogs, fmt.Sprintf("jobs: journal %s: stopping replay at corrupt line %d: ", id, 5+i))
		}
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(tail)
		f.Close()
		wantIDs = append(wantIDs, id)
	}

	prev := runtime.GOMAXPROCS(4)
	replayed, err := j.Replay()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, rj := range replayed {
		ids = append(ids, rj.ID)
		var rows []int
		for _, rec := range rj.Rows {
			rows = append(rows, rec.Index)
		}
		if !slices.Equal(rows, wantRows[rj.ID]) {
			t.Fatalf("job %s replayed rows %v, want %v", rj.ID, rows, wantRows[rj.ID])
		}
	}
	if !slices.Equal(ids, wantIDs) {
		t.Fatalf("replayed jobs %v, want %v", ids, wantIDs)
	}
	if len(logs) != len(wantLogs) {
		t.Fatalf("logged %d lines, want %d:\n%s", len(logs), len(wantLogs), strings.Join(logs, "\n"))
	}
	for i := range logs {
		if !strings.HasPrefix(logs[i], wantLogs[i]) {
			t.Fatalf("log line %d = %q, want %q", i, logs[i], wantLogs[i])
		}
	}
}

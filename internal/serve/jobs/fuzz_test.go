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
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fuzzSeedJournal is a small valid journal: spec + two terminal rows.
const fuzzSeedJournal = `{"type":"spec","job":"fz","spec":{"algs":["prefix"],"ns":[64],"ps":[2],"seeds":[1,2]}}
{"type":"row","index":0,"key":"k0","status":"ok","result":[{"seed":1,"makespan":7}]}
{"type":"row","index":1,"key":"k1","status":"failed","error":"boom"}
`

// FuzzJournalReplay feeds arbitrary bytes through the full journal recovery
// pipeline — Replay, Compact, Reopen + append — and checks the invariants
// the serving layer's crash-safety rests on:
//
//  1. Replay never panics and never errors on arbitrary file content (bad
//     files are skipped, not fatal).
//  2. A replayed row is always a record that was fully written: rows + spec
//     can never exceed the file's complete (newline-terminated) line count,
//     and every replayed status is Terminal.
//  3. Compaction is a replay fixpoint: replay-after-Compact equals the
//     deduped replay-before, byte for byte, and is never Corrupt.
//  4. The resume protocol never strands appends: after Compact (the repair
//     Rewrite) and Reopen, an appended record is visible to the next Replay.
//  5. The row scanner changes nothing: Replay returns the same jobs, rows,
//     SpecRaw and Corrupt flag, and logs the same warnings in the same
//     order, as unmarshalReplayOne, which decodes every line with
//     json.Unmarshal.
//
// The checked-in corpus adds a benchmark-shaped job and a file that mixes
// rows the scanner takes with rows it leaves to the decode before a corrupt
// line.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(fuzzSeedJournal))
	f.Add([]byte(fuzzSeedJournal + `{"type":"row","index":2,"key":"k2","st`))                                        // torn tail
	f.Add([]byte(fuzzSeedJournal + "NOT JSON\n{\"type\":\"row\",\"index\":3,\"key\":\"dead\",\"status\":\"ok\"}\n")) // corrupt line + dead zone
	f.Add([]byte(`{"type":"spec","job":"fz","spec":{"algs":["prefix"],"ns":[64],"ps":[2],"seeds":[1]}}` + "\n" +
		`{"type":"row","index":0,"key":"dup","status":"ok"}` + "\n" +
		`{"type":"row","index":0,"key":"dup","status":"failed","error":"late"}` + "\n" +
		`{"type":"checkpoint"}` + "\n")) // duplicates + ignored record
	f.Add([]byte{})
	f.Add([]byte("garbage with no newline"))
	f.Add([]byte("\n\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "fz"+journalExt), data, 0o644); err != nil {
			t.Fatal(err)
		}

		var logs []string
		j.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
		re, err := j.Replay()
		j.Logf = nil
		if err != nil {
			t.Fatalf("Replay errored on arbitrary bytes: %v", err)
		}

		// Invariant 5: Replay equals the decode of every line, warnings
		// included.
		var wantLogs []string
		logf := func(format string, args ...any) { wantLogs = append(wantLogs, fmt.Sprintf(format, args...)) }
		var wantJobs []ReplayedJob
		if oj, err := unmarshalReplayOne(j, "fz", logf); err != nil {
			logf("jobs: skipping journal %s: %v", "fz"+journalExt, err)
		} else {
			wantJobs = append(wantJobs, oj)
		}
		if !reflect.DeepEqual(re, wantJobs) {
			t.Fatalf("Replay = %+v, decoding every line gives %+v", re, wantJobs)
		}
		if !slices.Equal(logs, wantLogs) {
			t.Fatalf("Replay logged %q, decoding every line logs %q", logs, wantLogs)
		}
		if len(re) == 0 {
			return // unreadable spec: file skipped, nothing more to check
		}
		rj := re[0]

		// Invariant 2: only fully-written records replay.
		complete := strings.Count(string(data), "\n")
		if len(rj.Rows)+1 > complete {
			t.Fatalf("replayed %d rows + spec from %d complete lines", len(rj.Rows), complete)
		}
		for _, r := range rj.Rows {
			if !r.Status.Terminal() {
				t.Fatalf("replayed non-terminal row: %+v", r)
			}
		}

		// Invariant 3: compaction is a replay fixpoint.
		if _, err := j.Compact("fz"); err != nil {
			t.Fatalf("Compact failed on a replayable journal: %v", err)
		}
		re2, err := j.Replay()
		if err != nil || len(re2) != 1 {
			t.Fatalf("replay after Compact: %v (%d jobs)", err, len(re2))
		}
		if re2[0].Corrupt {
			t.Fatal("journal still Corrupt after Compact")
		}
		want := dedupRows(rj.Rows)
		if len(re2[0].Rows) != len(want) {
			t.Fatalf("replay-after-Compact = %d rows, deduped replay-before = %d",
				len(re2[0].Rows), len(want))
		}
		for i := range want {
			gb, _ := json.Marshal(re2[0].Rows[i])
			wb, _ := json.Marshal(want[i])
			if !bytes.Equal(gb, wb) {
				t.Fatalf("row %d changed across Compact:\n%s\nvs\n%s", i, gb, wb)
			}
		}

		// Invariant 4: the resume protocol never strands an append.
		log, err := j.Reopen("fz")
		if err != nil {
			t.Fatalf("Reopen after Compact: %v", err)
		}
		sentinel := RowRecord{Index: 1 << 30, Key: "sentinel-xyzzy", Status: RowFailed, Error: "x"}
		if err := log.AppendRow(sentinel); err != nil {
			t.Fatalf("append after Compact+Reopen: %v", err)
		}
		log.Close()
		re3, err := j.Replay()
		if err != nil || len(re3) != 1 {
			t.Fatalf("replay after append: %v (%d jobs)", err, len(re3))
		}
		rows := re3[0].Rows
		if len(rows) == 0 || rows[len(rows)-1].Key != sentinel.Key {
			t.Fatalf("post-resume append stranded: last row %+v", rows)
		}
	})
}

// unmarshalReplayOne is replayOne as it was before scanRow, decoding every
// line with json.Unmarshal: FuzzJournalReplay's oracle for Replay.
func unmarshalReplayOne(j *Journal, id string, logf func(format string, args ...any)) (ReplayedJob, error) {
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

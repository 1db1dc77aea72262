package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

		re, err := j.Replay()
		if err != nil {
			t.Fatalf("Replay errored on arbitrary bytes: %v", err)
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

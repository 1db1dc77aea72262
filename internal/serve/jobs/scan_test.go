package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzJournalRow holds scanRow to json.Unmarshal, its fallback: for any line
// the scanner accepts, Unmarshal into record must succeed and give the same
// record, every field and the result bytes included, and the line must be
// exactly what json.Marshal writes for that RowRecord, plus the newline. The
// checked-in seeds cover benchmark-shaped rows, int64 extremes, null and
// empty results, errors plain and escaped, escaped and non-ASCII keys,
// non-canonical and overflowing indexes, reordered, duplicated, upper-case
// and unknown fields, whitespace, a \r\n ending, a non-terminal status, a
// truncated row and bytes after the closing brace.
func FuzzJournalRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := scanRow(line)
		if !ok {
			return
		}
		var want record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("scanRow accepts %q, which json.Unmarshal refuses: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanRow(%q) = %+v, json.Unmarshal gives %+v", line, got, want)
		}
		if cap(got.Result) != len(got.Result) {
			t.Fatalf("scanRow(%q) returns a result with room to append into the line", line)
		}
		canon, err := json.Marshal(RowRecord{Type: got.Type, Index: got.Index, Key: got.Key,
			Status: got.Status, Result: got.Result, Error: got.Error})
		if err != nil || !bytes.Equal(append(canon, '\n'), line) {
			t.Fatalf("scanRow accepts %q, but json.Marshal writes %q (%v)", line, canon, err)
		}
	})
}

// run has the shape of the serving layer's RunSummary, which this package
// does not import: 15 int64 fields, as a journaled result holds them.
type run struct {
	Seed                 int64 `json:"seed"`
	Makespan             int64 `json:"makespan"`
	WorkTicks            int64 `json:"work_ticks"`
	Steals               int64 `json:"steals"`
	FailedSteals         int64 `json:"failed_steals"`
	Spawns               int64 `json:"spawns"`
	Usurpations          int64 `json:"usurpations"`
	CacheMisses          int64 `json:"cache_misses"`
	BlockMisses          int64 `json:"block_misses"`
	BlockWaitTicks       int64 `json:"block_wait_ticks"`
	BlockTransfers       int64 `json:"block_transfers"`
	MaxTransfersPerBlock int64 `json:"max_transfers_per_block"`
	RemoteFetches        int64 `json:"remote_fetches"`
	RemoteSteals         int64 `json:"remote_steals"`
	StealLatency         int64 `json:"steal_latency"`
}

// TestScanRowAcceptsAppendedRows: the fast path fires on what the journal
// writes. Both oracles pass when the scanner accepts nothing, so this test
// appends 2,000 random terminal rows through JobLog.AppendRow, with results
// of zero to three runs (null and [] included, int64 extremes among the
// values) and plain error strings, and holds scanRow to accept every line
// and return the appended record.
func TestScanRowAcceptsAppendedRows(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	log, err := j.Create("scan", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	edges := []int64{0, 1, -1, 9, 10, -10, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	statuses := []RowStatus{RowOK, RowFailed, RowDeadline, RowQuarantined}
	var errBytes []byte // printable ASCII that json.Marshal writes unescaped
	for c := byte(' '); c <= '~'; c++ {
		if !strings.ContainsRune(`"\<>&`, rune(c)) {
			errBytes = append(errBytes, c)
		}
	}
	want := make([]RowRecord, 2000)
	for i := range want {
		rec := RowRecord{Type: "row", Index: i, Status: statuses[rng.Intn(len(statuses))]}
		if rng.Intn(8) == 0 {
			rec.Index = int(edges[rng.Intn(len(edges))])
		}
		key := sha256.Sum256([]byte(fmt.Sprint(i)))
		rec.Key = hex.EncodeToString(key[:])
		if rec.Status == RowOK {
			var runs []run // nil marshals as null
			if n := rng.Intn(5) - 1; n >= 0 {
				runs = make([]run, n)
			}
			for r := range runs {
				v := reflect.ValueOf(&runs[r]).Elem()
				for f := 0; f < v.NumField(); f++ {
					n := rng.Int63() >> rng.Intn(63)
					if rng.Intn(3) == 0 {
						n = edges[rng.Intn(len(edges))]
					} else if rng.Intn(2) == 0 {
						n = -n
					}
					v.Field(f).SetInt(n)
				}
			}
			if rec.Result, err = json.Marshal(runs); err != nil {
				t.Fatal(err)
			}
		} else {
			e := make([]byte, rng.Intn(24))
			for k := range e {
				e[k] = errBytes[rng.Intn(len(errBytes))]
			}
			rec.Error = string(e)
		}
		if err := log.AppendRow(rec); err != nil {
			t.Fatal(err)
		}
		want[i] = rec
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(j.path("scan"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) != len(want)+2 { // the spec line, the rows, and "" after the last newline
		t.Fatalf("journal has %d lines, want %d", len(lines)-1, len(want)+1)
	}
	for i, rec := range want {
		got, ok := scanRow(lines[i+1])
		if !ok {
			t.Fatalf("scanRow declines appended row %d: %s", i, lines[i+1])
		}
		if !reflect.DeepEqual(got, record{Type: rec.Type, Index: rec.Index, Key: rec.Key,
			Status: rec.Status, Result: rec.Result, Error: rec.Error}) {
			t.Fatalf("scanRow(%s) = %+v, appended %+v", lines[i+1], got, rec)
		}
	}
}

// BenchmarkJournalReplay times Replay over a journal shaped like the one
// bench/run.sh's batch_journal workload leaves behind (13 files, 12,352
// rows): 12 jobs of 1,024 rows and one of 64, every row OK with one 15-field
// run under a SHA-256 key. The files are written once, with os.WriteFile of
// json.Marshal'd records, since AppendRow's fsync per row would dominate.
// ns/row is the replay time per journaled row, at the test's GOMAXPROCS.
func BenchmarkJournalReplay(b *testing.B) {
	dir := b.TempDir()
	rows := 0
	for job := range 13 {
		spec := Spec{Algs: []string{"prefix", "fft", "sort-col", "listrank"}, Ns: []int{512}, Ps: []int{4, 8},
			Policies: []string{"uniform", "hierarchical"}, Sockets: []int{2}, Runs: 1}
		perCell := 64
		if job == 12 {
			perCell = 4
		}
		for s := range perCell {
			spec.Seeds = append(spec.Seeds, int64(1<<32+job*perCell+s))
		}
		id := fmt.Sprintf("%016x", job)
		raw, err := json.Marshal(&spec)
		if err != nil {
			b.Fatal(err)
		}
		line, err := json.Marshal(specRecord{Type: "spec", Job: id, Spec: raw})
		if err != nil {
			b.Fatal(err)
		}
		data := append(line, '\n')
		for i := range spec.RowCount() {
			key := sha256.Sum256(fmt.Appendf(nil, "%s/%d", id, i))
			r := run{Seed: spec.Seeds[i%perCell], Makespan: 1751, WorkTicks: 2424, Steals: 29, FailedSteals: 81,
				Spawns: 254, Usurpations: 25, CacheMisses: 186, BlockMisses: 109, BlockWaitTicks: 247,
				BlockTransfers: 295, MaxTransfersPerBlock: 21, RemoteFetches: 161}
			result, err := json.Marshal([]run{r})
			if err != nil {
				b.Fatal(err)
			}
			line, err := json.Marshal(RowRecord{Type: "row", Index: i, Key: hex.EncodeToString(key[:]), Status: RowOK, Result: result})
			if err != nil {
				b.Fatal(err)
			}
			data = append(append(data, line...), '\n')
			rows++
		}
		if err := os.WriteFile(filepath.Join(dir, id+journalExt), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	j, err := OpenJournal(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := j.Replay()
		if err != nil || len(re) != 13 {
			b.Fatalf("replayed %d jobs: %v", len(re), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"rwsfs/internal/harness"
	"rwsfs/internal/serve/jobs"
)

// Every surface that writes a result's runs must write what json.Marshal
// gives for them as a []RunSummary inside that surface's envelope. The
// types below are those envelopes with the runs as the slice; the test
// holds the served bytes to what they marshal to, with the runs computed
// in process.

// structResponse is a /simulate success body. The timeline rides as raw
// bytes taken from the response: it is masked from the comparison.
type structResponse struct {
	Key       string          `json:"key"`
	Alg       string          `json:"alg"`
	Cached    bool            `json:"cached"`
	Runs      []RunSummary    `json:"runs"`
	Dedup     bool            `json:"dedup,omitempty"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Trace     json.RawMessage `json:"trace,omitempty"`
}

// structGridRow is a /batch/{id}/grid line (and a journal and stream line).
type structGridRow struct {
	Type   string         `json:"type"`
	Index  int            `json:"index"`
	Key    string         `json:"key"`
	Status jobs.RowStatus `json:"status"`
	Result []RunSummary   `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// structCorpusRow is a /corpus row line.
type structCorpusRow struct {
	Type    string       `json:"type"`
	Key     string       `json:"key"`
	Request Request      `json:"request"`
	Result  []RunSummary `json:"result"`
}

// encodeLine encodes v as writeJSON and the NDJSON surfaces do.
func encodeLine(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestResultBytesMatchStructEncoding pins every surface that writes a
// result's runs to the bytes of the struct encoding above: fresh, cached,
// multi-run and traced /simulate bodies (elapsed_ms and the timeline
// masked), a batch grid, and the /corpus rows of both the journal and the
// cache.
func TestResultBytesMatchStructEncoding(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, JournalDir: t.TempDir()})
	var pool harness.Runner
	defer pool.Close()
	corpus := make(map[string][]byte) // key → expected /corpus row line
	expect := func(req Request) []RunSummary {
		runs := inProcess(t, &pool, req)
		corpus[req.Key()] = encodeLine(t, structCorpusRow{Type: "row", Key: req.Key(), Request: wireRequest(req), Result: runs})
		return runs
	}

	cases := []struct {
		name, body string
		cached     bool
	}{
		{"fresh", `{"alg":"prefix","n":64,"p":4,"seed":11}`, false},
		{"cached", `{"alg":"prefix","n":64,"p":4,"seed":11}`, true},
		{"runs 3, hierarchical, two sockets", `{"alg":"fft","n":256,"p":8,"seed":3,"runs":3,"policy":"hierarchical","sockets":2,"cost_miss_remote":40,"steal_cost":5,"steal_cost_remote":30}`, false},
		{"traced", `{"alg":"transpose","n":32,"p":4,"seed":5,"trace":true}`, false},
	}
	for _, c := range cases {
		rr := post(s, c.body)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: want 200, got %d: %s", c.name, rr.Code, rr.Body.String())
		}
		var req Request
		if err := json.Unmarshal([]byte(c.body), &req); err != nil {
			t.Fatal(err)
		}
		req.normalize()
		var masked structResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &masked); err != nil {
			t.Fatal(err)
		}
		if req.Trace != (masked.Trace != nil) {
			t.Fatalf("%s: timeline present %v, want %v", c.name, masked.Trace != nil, req.Trace)
		}
		want := encodeLine(t, structResponse{Key: req.Key(), Alg: req.Alg, Cached: c.cached, Runs: expect(req),
			ElapsedMS: masked.ElapsedMS, Trace: masked.Trace})
		if !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("%s: body differs from the []RunSummary encoding:\n%s\nvs\n%s", c.name, rr.Body.Bytes(), want)
		}
	}

	spec := jobs.Spec{Algs: []string{"prefix"}, Ns: []int{64}, Ps: []int{2}, Seeds: []int64{21, 22}}
	sp := parseStream(t, postBatch(s, string(mustJSON(t, spec))).Body.Bytes())
	rows, err := expandRows(&spec, s.cfg.Limits, s.cfg.MaxBatchRows)
	if err != nil {
		t.Fatal(err)
	}
	var grid []byte
	for i := range rows {
		grid = append(grid, encodeLine(t, structGridRow{Type: "row", Index: i, Key: rows[i].Key(), Status: jobs.RowOK, Result: expect(rows[i])})...)
	}
	if got := gridBody(t, s, sp.header.Job); !bytes.Equal(got, grid) {
		t.Fatalf("grid differs from the []RunSummary encoding:\n%s\nvs\n%s", got, grid)
	}

	n := 0
	for _, ln := range bytes.SplitAfter(corpusBody(t, s), []byte("\n")) {
		var row corpusRow
		if json.Unmarshal(ln, &row); row.Type != "row" {
			continue
		}
		if !bytes.Equal(ln, corpus[row.Key]) {
			t.Fatalf("corpus row differs from the []RunSummary encoding:\n%s\nvs\n%s", ln, corpus[row.Key])
		}
		n++
	}
	if n != len(corpus) {
		t.Fatalf("corpus exported %d rows, want %d", n, len(corpus))
	}
}

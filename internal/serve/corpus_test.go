package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"rwsfs/internal/serve/jobs"
)

// corpusBody fetches GET /corpus and returns the raw NDJSON stream.
func corpusBody(t *testing.T, s *Server) []byte {
	t.Helper()
	rr := get(s, "/corpus")
	if rr.Code != http.StatusOK {
		t.Fatalf("corpus: want 200, got %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("corpus: want NDJSON content type, got %q", ct)
	}
	return rr.Body.Bytes()
}

// waitWarm blocks until the server's peer warm-up goroutine has finished
// (success, failover exhaustion, or abort).
func waitWarm(t *testing.T, s *Server) {
	t.Helper()
	select {
	case <-s.warmDone:
	case <-time.After(30 * time.Second):
		t.Fatal("peer warm-up never finished")
	}
}

// peerAddr converts an httptest server URL into the bare host:port form the
// -peers flag documents, exercising the scheme-defaulting path.
func peerAddr(ts *httptest.Server) string {
	return strings.TrimPrefix(ts.URL, "http://")
}

// collectImport runs importCorpusStream over raw bytes with a sink that
// re-verifies every delivered payload independently — nothing unverified may
// ever reach a sink, no matter how mangled the stream.
func collectImport(t *testing.T, data []byte, lim Limits) (corpusImportStats, []*payload, error) {
	t.Helper()
	var got []*payload
	st, err := importCorpusStream(bytes.NewReader(data), lim, func(p *payload) bool {
		req := p.req
		if verr := req.validate(lim); verr != nil {
			t.Fatalf("sink received invalid request: %v", verr)
		}
		if req.Key() != p.Key {
			t.Fatalf("sink received key %s that does not re-canonicalize (%s)", p.Key, req.Key())
		}
		got = append(got, p)
		return true
	})
	return st, got, err
}

// TestCorpusExportRoundTrip pins the export wire contract: journal-backed
// rows and live cache entries stream out deduplicated and sorted, the
// header carries the node identity, the trailer checksum verifies, and the
// whole stream re-imports cleanly with byte-identical result payloads.
func TestCorpusExportRoundTrip(t *testing.T) {
	const spec = `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2]}`
	dir := t.TempDir()
	a := newTestServer(t, Config{Workers: 2, JournalDir: dir, NodeID: "nodeA"})
	sp := parseStream(t, postBatch(a, spec).Body.Bytes())
	if sp.trailer.Status != "done" || len(sp.rows) != 2 {
		t.Fatalf("corpus batch did not finish: %+v", sp.trailer)
	}
	// One cache-only entry on top of the two journaled rows.
	mustOK(t, a, baseReq)

	export := corpusBody(t, a)
	var hdr corpusHeader
	if err := json.Unmarshal(bytes.SplitN(export, []byte("\n"), 2)[0], &hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	if hdr.Type != "header" || hdr.Node != "nodeA" || hdr.Rows != 3 {
		t.Fatalf("bad header: %+v", hdr)
	}
	st, got, err := collectImport(t, export, a.cfg.Limits)
	if err != nil {
		t.Fatalf("clean export did not re-import: %v", err)
	}
	if st.Imported != 3 || st.Rejected != 0 || st.Skipped != 0 {
		t.Fatalf("round trip stats: %+v", st)
	}
	if as := a.Stats(); as.CorpusExported != 3 {
		t.Fatalf("want corpus_exported_rows=3, got %+v", as)
	}
	// Journaled rows re-import with byte-identical result payloads.
	rj := replayDir(t, dir)
	byKey := make(map[string]*payload, len(got))
	for _, p := range got {
		byKey[p.Key] = p
	}
	for _, rec := range rj.Rows {
		p, ok := byKey[rec.Key]
		if !ok {
			t.Fatalf("journaled row %s missing from export", rec.Key)
		}
		runs, merr := json.Marshal(p.Runs)
		if merr != nil || !bytes.Equal(runs, rec.Result) {
			t.Fatalf("imported payload differs from journal:\n%s\nvs\n%s", runs, rec.Result)
		}
		if p.warmSrc != sourcePeer {
			t.Fatalf("imported payload provenance = %q, want %q", p.warmSrc, sourcePeer)
		}
	}

	// Export keys are sorted — the stream is deterministic.
	var keys []string
	for _, ln := range bytes.Split(bytes.TrimRight(export, "\n"), []byte("\n")) {
		var row corpusRow
		if json.Unmarshal(ln, &row); row.Type == "row" {
			keys = append(keys, row.Key)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("export keys not sorted: %v", keys)
		}
	}

	// A cold restart over the same journal still exports the journal-backed
	// rows — the corpus survives the cache.
	a.Close()
	c := newTestServer(t, Config{Workers: 2, JournalDir: dir})
	st2, _, err := collectImport(t, corpusBody(t, c), c.cfg.Limits)
	if err != nil || st2.Imported != 2 {
		t.Fatalf("journal-only export: %+v err=%v", st2, err)
	}
}

// TestCorpusImportTruncationVsCorruption pins the importer's error taxonomy:
// a stream that stops early is truncation (retryable as-is), a stream whose
// bytes cannot be trusted is corruption — never both, never unclassified,
// and never a panic.
func TestCorpusImportTruncationVsCorruption(t *testing.T) {
	a := newTestServer(t, Config{Workers: 2})
	for seed := 1; seed <= 3; seed++ {
		mustOK(t, a, fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":%d}`, seed))
	}
	export := corpusBody(t, a)
	lines := bytes.SplitAfter(bytes.TrimRight(export, "\n"), []byte("\n"))
	// SplitAfter leaves the last element without a newline; restore it.
	lines[len(lines)-1] = append(lines[len(lines)-1], '\n')
	if len(lines) != 5 { // header, 3 rows, trailer
		t.Fatalf("unexpected export shape: %d lines", len(lines))
	}
	join := func(ls ...[]byte) []byte { return bytes.Join(ls, nil) }
	garbledRow := bytes.Repeat([]byte{'X'}, len(lines[2])-1)
	garbledRow = append(garbledRow, '\n')

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty stream", nil, errCorpusTruncated},
		{"header only", join(lines[0]), errCorpusTruncated},
		{"missing trailer", join(lines[0], lines[1], lines[2], lines[3]), errCorpusTruncated},
		{"cut mid-line", export[:len(export)-20], errCorpusTruncated},
		{"garbled row", join(lines[0], lines[1], garbledRow, lines[3], lines[4]), errCorpusCorrupt},
		{"garbled trailer", join(lines[0], lines[1], lines[2], lines[3], garbledRow), errCorpusCorrupt},
		{"row dropped from count", join(lines[0], lines[1], lines[3], lines[4]), errCorpusCorrupt},
		{"data after trailer", append(append([]byte{}, export...), []byte("junk\n")...), errCorpusCorrupt},
		{"row before header", join(lines[1], lines[0], lines[2], lines[3], lines[4]), errCorpusCorrupt},
		{"duplicate header", join(lines[0], lines[0], lines[1], lines[2], lines[3], lines[4]), errCorpusCorrupt},
		{"unknown record type", join(lines[0], []byte(`{"type":"wat"}`+"\n")), errCorpusCorrupt},
	}
	for _, tc := range cases {
		_, _, err := collectImport(t, tc.data, a.cfg.Limits)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: want %v, got %v", tc.name, tc.want, err)
		}
		if errors.Is(err, errCorpusTruncated) && errors.Is(err, errCorpusCorrupt) {
			t.Errorf("%s: error classified as both truncated and corrupt: %v", tc.name, err)
		}
	}

	// Rows verified before a truncation point stay imported: the partial
	// transfer is not wasted, just untrusted past the cut.
	st, _, err := collectImport(t, join(lines[0], lines[1], lines[2]), a.cfg.Limits)
	if !errors.Is(err, errCorpusTruncated) || st.Imported != 2 {
		t.Fatalf("partial import before truncation: %+v err=%v", st, err)
	}
}

// TestPeerWarmFleetEndToEnd is the acceptance drill: node A completes a
// batch, node B starts with Peers=A and serves A's keys as cache
// hits with source=peer timelines, zero simulations, payload bytes identical
// to A's journal.
func TestPeerWarmFleetEndToEnd(t *testing.T) {
	const spec = `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2]}`
	dir := t.TempDir()
	a := newTestServer(t, Config{Workers: 2, JournalDir: dir, NodeID: "nodeA"})
	sp := parseStream(t, postBatch(a, spec).Body.Bytes())
	if sp.trailer.Status != "done" {
		t.Fatalf("node A batch did not finish: %+v", sp.trailer)
	}
	ts := httptest.NewServer(a)
	defer ts.Close()
	rj := replayDir(t, dir)

	b := newTestServer(t, Config{Workers: 2, Peers: []string{peerAddr(ts)}})
	waitWarm(t, b)
	if st := b.Stats(); st.CorpusImported != 2 || st.CorpusRejected != 0 || st.PeerFailures != 0 {
		t.Fatalf("warm-up stats: %+v", st)
	}

	// Seed 1 is row index 0 of A's grid; B serves it as a peer-warmed hit.
	w := mustOK(t, b, `{"alg":"prefix","n":64,"p":4,"seed":1,"trace":true}`)
	if !w.Cached {
		t.Fatal("peer-warmed request not served as a cache hit")
	}
	var row0 *jobs.RowRecord
	for i := range rj.Rows {
		if rj.Rows[i].Index == 0 {
			row0 = &rj.Rows[i]
		}
	}
	if row0 == nil {
		t.Fatalf("journal missing row 0: %+v", rj.Rows)
	}
	if !bytes.Equal(w.Runs, row0.Result) {
		t.Fatalf("peer-warmed payload differs from A's journal:\n%s\nvs\n%s", w.Runs, row0.Result)
	}
	if w.Key != row0.Key {
		t.Fatalf("peer-warmed key %s != journaled key %s", w.Key, row0.Key)
	}
	if st := b.Stats(); st.Simulations != 0 || st.CacheHits != 1 {
		t.Fatalf("peer-warmed hit must not compute: %+v", st)
	}
	if w.Trace == nil {
		t.Fatal("traced request lost its timeline")
	}
	sawHit := false
	for _, ev := range w.Trace.Events {
		switch ev.Type {
		case evCacheHit:
			sawHit = true
			if ev.Detail != "source=peer" {
				t.Fatalf("cache_hit detail = %q, want source=peer", ev.Detail)
			}
		case evQueued, evDispatched:
			t.Fatalf("peer-warmed hit dispatched fresh work: %v", ev)
		}
	}
	if !sawHit {
		t.Fatalf("timeline missing cache_hit: %+v", w.Trace.Events)
	}

	// A batch on B over the same cells is served entirely from the imported
	// corpus, with peer provenance on every row.
	sp2 := parseStream(t, postBatch(b, spec).Body.Bytes())
	waitBatchDone(t, b, sp2.header.Job)
	var status struct {
		Grid []batchRowStatus `json:"grid"`
	}
	if err := json.Unmarshal(get(b, "/batch/"+sp2.header.Job).Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	for _, row := range status.Grid {
		if row.Source != sourcePeer || row.Attempts != 0 {
			t.Fatalf("peer-warmed batch row %d provenance = %q/%d, want %q/0",
				row.Index, row.Source, row.Attempts, sourcePeer)
		}
	}
	if st := b.Stats(); st.Simulations != 0 {
		t.Fatalf("peer-warmed batch recomputed rows: %+v", st)
	}
}

// TestPeerWarmFailoverAndColdStart: a dead first peer burns its attempt
// budget and the warm-up fails over to the live sibling; with every peer
// dead, the node degrades to a cold start and still serves traffic.
func TestPeerWarmFailoverAndColdStart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens here any more: connection refused

	a := newTestServer(t, Config{Workers: 2})
	mustOK(t, a, `{"alg":"prefix","n":64,"p":4,"seed":1}`)
	mustOK(t, a, `{"alg":"prefix","n":64,"p":4,"seed":2}`)
	ts := httptest.NewServer(a)
	defer ts.Close()

	b := newTestServer(t, Config{Workers: 2,
		Peers: []string{deadAddr, peerAddr(ts)}, PeerAttempts: 2, PeerBackoff: time.Millisecond})
	waitWarm(t, b)
	if st := b.Stats(); st.PeerFailures != 2 || st.CorpusImported != 2 {
		t.Fatalf("failover stats: %+v", st)
	}

	c := newTestServer(t, Config{Workers: 2,
		Peers: []string{deadAddr}, PeerAttempts: 2, PeerBackoff: time.Millisecond})
	waitWarm(t, c)
	if st := c.Stats(); st.CorpusImported != 0 || st.PeerFailures != 2 {
		t.Fatalf("cold-start stats: %+v", st)
	}
	mustOK(t, c, baseReq) // a dead fleet never prevents serving
	if st := c.Stats(); st.Simulations != 1 {
		t.Fatalf("cold start should compute fresh: %+v", st)
	}
}

// TestPeerWarmChaosDrill exercises the peer path against every injected
// export failure in sequence — 5xx, truncation, corrupt row, stall — before
// a clean transfer: the warm-up retries through all of them, admits zero
// unverified rows, and ends up serving A's exact bytes.
func TestPeerWarmChaosDrill(t *testing.T) {
	inject := func(worker, attempt int, key string) Fault {
		if key != corpusFaultKey {
			return Fault{}
		}
		switch attempt {
		case 0:
			return Fault{CorpusError: true}
		case 1:
			return Fault{CorpusTruncateAfter: 2}
		case 2:
			return Fault{CorpusCorruptRow: 2}
		case 3:
			return Fault{CorpusStall: true}
		default:
			return Fault{}
		}
	}
	a := newTestServer(t, Config{Workers: 2, Injector: inject})
	want := make(map[int]json.RawMessage)
	for seed := 1; seed <= 4; seed++ {
		w := mustOK(t, a, fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":%d}`, seed))
		want[seed] = w.Runs
	}
	ts := httptest.NewServer(a)
	defer ts.Close()

	b := newTestServer(t, Config{Workers: 2, Peers: []string{peerAddr(ts)},
		PeerAttempts: 6, PeerBackoff: time.Millisecond, PeerTimeout: 500 * time.Millisecond})
	waitWarm(t, b)

	st := b.Stats()
	if st.PeerFailures != 4 {
		t.Fatalf("want 4 failed attempts (5xx, truncate, corrupt, stall), got %+v", st)
	}
	if st.CorpusImported < 4 {
		t.Fatalf("clean final transfer should import all rows: %+v", st)
	}
	// Zero bad rows admitted: the cache holds exactly A's four keys, and
	// each serves byte-identical runs without simulating.
	if n := b.cache.Len(); n != 4 {
		t.Fatalf("cache holds %d entries, want exactly 4 (no junk admitted)", n)
	}
	for seed := 1; seed <= 4; seed++ {
		w := mustOK(t, b, fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":%d}`, seed))
		if !w.Cached || !bytes.Equal(w.Runs, want[seed]) {
			t.Fatalf("seed %d: cached=%v, bytes equal=%v", seed, w.Cached, bytes.Equal(w.Runs, want[seed]))
		}
	}
	if st := b.Stats(); st.Simulations != 0 {
		t.Fatalf("chaos-warmed node recomputed rows: %+v", st)
	}
}

// TestPeerWarmAdversarialRowsRejected: a peer that streams a well-formed,
// correctly checksummed corpus containing tampered rows (wrong key,
// non-canonical result bytes) pollutes nothing — the verification gate
// rejects exactly the tampered rows and admits the rest.
func TestPeerWarmAdversarialRowsRejected(t *testing.T) {
	a := newTestServer(t, Config{Workers: 2})
	for seed := 1; seed <= 3; seed++ {
		mustOK(t, a, fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":%d}`, seed))
	}
	export := corpusBody(t, a)
	lines := bytes.Split(bytes.TrimRight(export, "\n"), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("unexpected export shape: %d lines", len(lines))
	}
	reencode := func(row corpusRow) []byte {
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	var tampered [3][]byte
	for i := 0; i < 3; i++ {
		var row corpusRow
		if err := json.Unmarshal(lines[i+1], &row); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 1: // forged key
			row.Key = strings.Repeat("ab", 32)
		case 2: // non-canonical result bytes: an unknown field decodes fine
			// but json.Marshal never writes it, so the gate refuses it
			row.Result = json.RawMessage(strings.Replace(string(row.Result), "{", `{"zzz":0,`, 1))
		}
		tampered[i] = reencode(row)
	}
	sum := sha256.New()
	for _, ln := range tampered {
		sum.Write(ln)
	}
	var stream bytes.Buffer
	fmt.Fprintf(&stream, "%s\n", mustJSON(t, corpusHeader{Type: "header", Node: "evil", Rows: 3}))
	for _, ln := range tampered {
		stream.Write(ln)
	}
	fmt.Fprintf(&stream, "%s\n", mustJSON(t, corpusTrailer{Type: "end", Rows: 3,
		Checksum: hex.EncodeToString(sum.Sum(nil))}))

	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(stream.Bytes())
	}))
	defer evil.Close()

	b := newTestServer(t, Config{Workers: 2, Peers: []string{peerAddr(evil)}})
	waitWarm(t, b)
	st := b.Stats()
	if st.CorpusImported != 1 || st.CorpusRejected != 2 || st.PeerFailures != 0 {
		t.Fatalf("adversarial stats: %+v (want 1 imported, 2 rejected, 0 failures)", st)
	}
	if n := b.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want exactly the 1 intact row", n)
	}
}

// TestClosePeerWarmStopsCleanly covers the gcLoop + warm-up shutdown
// interaction: Close during an in-flight peer transfer must return promptly
// (no leaked goroutine — workerWG would hang) and must not insert rows after
// teardown begins. The race detector guards the rest.
func TestClosePeerWarmStopsCleanly(t *testing.T) {
	a := newTestServer(t, Config{Workers: 2})
	for seed := 1; seed <= 6; seed++ {
		mustOK(t, a, fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":%d}`, seed))
	}
	export := corpusBody(t, a)
	lines := bytes.SplitAfter(bytes.TrimRight(export, "\n"), []byte("\n"))
	lines[len(lines)-1] = append(lines[len(lines)-1], '\n')

	// A slow peer dribbling one line per 50ms keeps the transfer in flight
	// long enough for Close to land mid-stream.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, _ := w.(http.Flusher)
		for _, ln := range lines {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(50 * time.Millisecond):
			}
			if _, err := w.Write(ln); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}))
	defer slow.Close()

	b := New(Config{Workers: 2, Peers: []string{peerAddr(slow)},
		PeerAttempts: 1, JournalDir: t.TempDir(), JournalMaxAge: 50 * time.Millisecond,
		DrainGrace: 2 * time.Second})
	// Wait until the import is demonstrably mid-stream (at least one row in).
	deadline := time.Now().Add(10 * time.Second)
	for b.cache.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if b.cache.Len() == 0 {
		t.Fatal("warm-up never started importing")
	}

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(15 * time.Second):
		t.Fatal("Close hung during in-flight peer warm-up (leaked goroutine?)")
	}
	select {
	case <-b.warmDone:
	default:
		t.Fatal("warm-up goroutine still alive after Close")
	}
	frozen := b.cache.Len()
	time.Sleep(200 * time.Millisecond)
	if got := b.cache.Len(); got != frozen {
		t.Fatalf("cache grew after Close: %d -> %d", frozen, got)
	}
}

// TestWarmCacheCapacitySkips: journal warm-up stops inserting at cache
// capacity instead of churning evictions, and accounts the skips: the
// cache holds the first two journaled rows, in line order, the later one
// most recently used.
func TestWarmCacheCapacitySkips(t *testing.T) {
	const spec = `{"algs":["prefix"],"ns":[64],"ps":[4],"seeds":[1,2,3]}`
	dir := t.TempDir()
	a := newTestServer(t, Config{Workers: 2, JournalDir: dir})
	if sp := parseStream(t, postBatch(a, spec).Body.Bytes()); sp.trailer.Status != "done" {
		t.Fatalf("corpus batch did not finish: %+v", sp.trailer)
	}
	a.Close()

	b := newTestServer(t, Config{Workers: 2, JournalDir: dir, WarmCache: true, CacheEntries: 2})
	st := b.Stats()
	if st.CacheWarmed != 2 || st.WarmSkipped != 1 {
		t.Fatalf("want 2 warmed + 1 skipped, got %+v", st)
	}
	rj := replayDir(t, dir)
	var resident []string
	for _, p := range b.cache.Snapshot() {
		resident = append(resident, p.Key)
	}
	if want := []string{rj.Rows[1].Key, rj.Rows[0].Key}; !slices.Equal(resident, want) {
		t.Fatalf("cache holds %q, want the first two journaled rows, most recent first: %q", resident, want)
	}
}

// TestPeerWarmCapacitySkips: the peer import stops at cache capacity too,
// counting skipped rows instead of evicting earlier imports.
func TestPeerWarmCapacitySkips(t *testing.T) {
	a := newTestServer(t, Config{Workers: 2})
	for seed := 1; seed <= 4; seed++ {
		mustOK(t, a, fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":%d}`, seed))
	}
	ts := httptest.NewServer(a)
	defer ts.Close()

	b := newTestServer(t, Config{Workers: 2, CacheEntries: 2,
		Peers: []string{peerAddr(ts)}})
	waitWarm(t, b)
	st := b.Stats()
	if st.CorpusImported != 2 || st.WarmSkipped != 2 || st.CorpusRejected != 0 {
		t.Fatalf("want 2 imported + 2 skipped, got %+v", st)
	}
	if n := b.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", n)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

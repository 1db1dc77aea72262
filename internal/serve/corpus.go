package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strings"
)

// Fleet corpus sharing. GET /corpus streams this node's verified result
// corpus — journal-backed RowOK rows plus live cache entries — as canonical
// NDJSON: a header record with node identity and row count, one row record
// per entry carrying the canonical SHA-256 key, the normalized request and
// the exact cacheable result bytes, and an end trailer whose checksum runs
// over the row lines so a truncated or tampered transfer is always
// detectable. The peer warm-up client (Config.Peers) pulls that stream from a
// sibling at startup, re-verifies every row (verifyCorpusRow), and inserts it
// through the same sink as -warm-cache with source=peer provenance.

// corpusFaultKey is the key the export handler passes the fault injector;
// the worker slot is -1 and the attempt is the export ordinal.
const corpusFaultKey = "corpus"

// maxCorpusLine bounds one imported NDJSON line; a peer streaming an
// unbounded line would otherwise grow the importer's buffer without limit.
const maxCorpusLine = 1 << 20

// Corpus stream error classes. Truncation (the stream ended before the
// trailer — peer died, connection cut) is retryable as-is; corruption (bytes
// damaged or forged in flight) means the transfer cannot be trusted past the
// damage. The importer reports exactly one of them.
var (
	errCorpusTruncated = errors.New("corpus stream truncated")
	errCorpusCorrupt   = errors.New("corpus stream corrupt")
)

// corpusHeader opens the export stream.
type corpusHeader struct {
	Type string `json:"type"` // "header"
	Node string `json:"node"`
	Rows int    `json:"rows"`
}

// corpusRow is one verified result row. Request is the normalized request
// (serving-only fields stripped) so an importer can re-canonicalize it and
// check that Key matches — the row proves its own integrity. Result is the
// exact cacheable runs payload, byte-identical to what the exporting node
// serves and journals.
type corpusRow struct {
	Type    string          `json:"type"` // "row"
	Key     string          `json:"key"`
	Request Request         `json:"request"`
	Result  json.RawMessage `json:"result"`
}

// corpusTrailer closes the stream; Checksum is hex SHA-256 over the exact
// row line bytes (newlines included) in stream order.
type corpusTrailer struct {
	Type     string `json:"type"` // "end"
	Rows     int    `json:"rows"`
	Checksum string `json:"checksum"`
}

// wireRequest strips the serving-only fields (deadline, trace opt-in) from a
// normalized request so the corpus wire form is canonical: two nodes that
// computed the same cell export identical row content regardless of how the
// work arrived.
func wireRequest(r Request) Request {
	r.DeadlineMS = 0
	r.Trace = false
	return r
}

// runKeys holds, for each RunSummary field in order, the bytes json.Marshal
// writes before its value: the opening brace or the comma, and the quoted
// name from the field's json tag. They are read once, by reflection, so the
// gate follows the struct; it scans every field as an int64
// (TestRunSummaryFitsGate fails on a field that is not one, or whose tag is
// not a bare name).
var runKeys = func() [][]byte {
	t := reflect.TypeFor[RunSummary]()
	keys := make([][]byte, t.NumField())
	for i := range keys {
		keys[i] = []byte(`,"` + t.Field(i).Tag.Get("json") + `":`)
	}
	keys[0][0] = '{'
	return keys
}()

// canonicalRuns is the gate stored result bytes pass before they may ever be
// served as a cache hit or exported. It accepts exactly the bytes that
// json.Marshal produces for some []RunSummary, and returns that slice, so
// re-marshalling it gives back result byte for byte: null (a nil slice), []
// (an empty one), or objects carrying every field once, in order, with no
// whitespace anywhere and each value written as json.Marshal writes an
// int64. It reads the bytes once and allocates only the slice it returns.
func canonicalRuns(result []byte) ([]RunSummary, bool) {
	switch string(result) {
	case "null":
		return nil, true
	case "[]":
		return []RunSummary{}, true
	}
	if len(result) == 0 || result[0] != '[' {
		return nil, false
	}
	var runs []RunSummary
	for b := result[1:]; ; {
		runs = append(runs, RunSummary{})
		v := reflect.ValueOf(&runs[len(runs)-1]).Elem()
		for f, key := range runKeys {
			if !bytes.HasPrefix(b, key) {
				return nil, false
			}
			n, w, ok := scanInt64(b[len(key):])
			if !ok {
				return nil, false
			}
			v.Field(f).SetInt(n)
			b = b[len(key)+w:]
		}
		switch {
		case len(b) >= 2 && b[0] == '}' && b[1] == ',':
			b = b[2:]
		case len(b) == 2 && b[0] == '}' && b[1] == ']':
			return runs, true
		default:
			return nil, false
		}
	}
}

// scanInt64 reads an integer the way json.Marshal writes an int64 from the
// start of b, -?(0|[1-9][0-9]*) in int64's range and never -0, and returns it
// with the number of bytes it took.
func scanInt64(b []byte) (n int64, width int, ok bool) {
	digits := b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		digits = b[1:]
	}
	d := 0
	for d < len(digits) && d < 20 && '0' <= digits[d] && digits[d] <= '9' {
		d++
	}
	// An int64 has at most 19 digits, and any 19 digits fit a uint64.
	if d == 0 || d > 19 || digits[0] == '0' && (d > 1 || neg) {
		return 0, 0, false
	}
	var u uint64
	for _, c := range digits[:d] {
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, 0, false
		}
		return -int64(u), 1 + d, true // int64(1<<63) is MinInt64, its own negation
	}
	if u > math.MaxInt64 {
		return 0, 0, false
	}
	return int64(u), d, true
}

// storedPayload turns a stored result row — a journaled row or a peer's
// corpus row — into a cacheable payload marked with its source. The result
// bytes must pass canonicalRuns, so a cache hit later serves exactly the
// stored bytes and never an approximation of them.
func storedPayload(row corpusRow, source string) (*payload, error) {
	runs, ok := canonicalRuns(row.Result)
	if !ok {
		return nil, errNotCanonical
	}
	return &payload{Key: row.Key, Alg: row.Request.Alg, Runs: runs, warmSrc: source, req: row.Request}, nil
}

// errNotCanonical is storedPayload's error for result bytes that fail
// canonicalRuns.
var errNotCanonical = errors.New("result bytes not canonical")

// warm is the one cache sink of warm-up, journal and peer alike. It refuses
// rows once the server is stopping (no inserts after teardown begins) and
// never evicts (AddIfSpace): warm-up is a best-effort prefill, never allowed
// to churn a corpus larger than the cache through it. Inserted rows count in
// cache_warmed (journal) or corpus_imported_rows (peer), refused rows in
// warm_skipped_rows.
func (s *Server) warm(p *payload) bool {
	if s.baseCtx.Err() != nil || s.Draining() || !s.cache.AddIfSpace(p.Key, p) {
		s.stats.add(&s.stats.WarmSkipped, 1)
		return false
	}
	if p.warmSrc == sourcePeer {
		s.stats.add(&s.stats.CorpusImported, 1)
	} else {
		s.stats.add(&s.stats.CacheWarmed, 1)
	}
	return true
}

// corpusRows gathers the node's exportable corpus: every journal row that
// passes the gate (prepareJournal, as at a warm restart), plus every live
// cache entry, deduplicated by key and sorted so the export is
// deterministic. Rows are re-verified at export time — a node never
// re-exports bytes it would not itself serve.
func (s *Server) corpusRows() []corpusRow {
	byKey := make(map[string]corpusRow)
	if s.journal != nil {
		replayed, err := s.journal.Replay()
		if err != nil {
			s.cfg.Logf("serve: corpus export: journal replay failed (exporting cache only): %v", err)
		}
		for i, pj := range s.prepareJournal(replayed, true) {
			for r, g := range pj.gated {
				if g.p != nil {
					byKey[g.p.Key] = corpusRow{Type: "row", Key: g.p.Key, Request: g.p.req, Result: replayed[i].Rows[r].Result}
				}
			}
		}
	}
	for _, p := range s.cache.Snapshot() {
		result, err := json.Marshal(p.Runs)
		if err != nil {
			continue
		}
		byKey[p.Key] = corpusRow{Type: "row", Key: p.Key,
			Request: wireRequest(p.req), Result: result}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]corpusRow, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// handleCorpus streams the corpus. Deliberately available while draining: a
// draining node's corpus is exactly what its replacement wants to pull. The
// injector is consulted once per export so the chaos suite can serve
// truncated, corrupted, stalled and erroring transfers to the warm-up client.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	var fault Fault
	if inj := s.cfg.Injector; inj != nil {
		fault = inj(-1, int(s.corpusExports.Add(1)-1), corpusFaultKey)
	}
	if fault.CorpusError {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: *errInternal("injected corpus export failure")})
		return
	}
	rows := s.corpusRows()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	writeLine := func(v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		_, werr := w.Write(append(b, '\n'))
		return werr == nil
	}
	if !writeLine(corpusHeader{Type: "header", Node: s.nodeID, Rows: len(rows)}) {
		return
	}
	flush()
	sum := sha256.New()
	for i, row := range rows {
		if fault.CorpusTruncateAfter > 0 && i >= fault.CorpusTruncateAfter {
			flush()
			return // stream ends with no trailer: detectably truncated
		}
		if fault.CorpusStall && i == len(rows)/2 {
			flush()
			<-r.Context().Done()
			return
		}
		b, err := json.Marshal(row)
		if err != nil {
			s.cfg.Logf("serve: corpus export: row %s: %v", row.Key, err)
			return
		}
		b = append(b, '\n')
		// The checksum always covers the intact bytes; an injected corrupt
		// row damages only what goes on the wire, exactly like a flaky link.
		sum.Write(b)
		if fault.CorpusCorruptRow == i+1 {
			garbled := append(bytes.Repeat([]byte{'X'}, len(b)-1), '\n')
			if _, err := w.Write(garbled); err != nil {
				return
			}
		} else if _, err := w.Write(b); err != nil {
			return
		}
		s.stats.add(&s.stats.CorpusExported, 1)
	}
	writeLine(corpusTrailer{Type: "end", Rows: len(rows), Checksum: hex.EncodeToString(sum.Sum(nil))})
	flush()
}

// corpusImportStats accounts one import attempt: rows verified and handed to
// the sink, rows that failed verification, and verified rows the sink
// declined (cache full, server stopping).
type corpusImportStats struct {
	Imported int
	Rejected int
	Skipped  int
}

// readCorpusLine reads one bounded NDJSON line (newline included when
// present). Returns the partial line alongside io.EOF when the stream ends
// mid-line.
func readCorpusLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > maxCorpusLine {
			return line, fmt.Errorf("%w: line exceeds %d bytes", errCorpusCorrupt, maxCorpusLine)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return line, err
	}
}

// importCorpusStream consumes one corpus export stream, verifying every row
// before offering it to insert. The returned error is nil for a complete,
// checksum-clean stream; otherwise it wraps exactly one of errCorpusTruncated
// (stream ended before the trailer) or errCorpusCorrupt (a line or the
// trailer cannot be trusted), so callers can distinguish a peer that died
// from a peer that lied. A row that parses but fails verification is counted
// Rejected and skipped — it aborts nothing, because each row proves its own
// integrity independently. insert returning false counts the row Skipped.
// The stats are meaningful even alongside an error: rows verified before the
// damage stay imported.
func importCorpusStream(r io.Reader, lim Limits, insert func(*payload) bool) (corpusImportStats, error) {
	var st corpusImportStats
	br := bufio.NewReaderSize(r, 64<<10)
	sum := sha256.New()
	sawHeader := false
	rows := 0
	for {
		line, err := readCorpusLine(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return st, fmt.Errorf("%w: stream ended before end trailer (%d rows read)", errCorpusTruncated, rows)
			}
			if errors.Is(err, errCorpusCorrupt) {
				return st, err
			}
			// Transport-level read failure: the bytes so far were fine, the
			// stream just stopped — same retryable class as truncation.
			return st, fmt.Errorf("%w: read: %v", errCorpusTruncated, err)
		}
		var probe struct {
			Type string `json:"type"`
		}
		if uerr := json.Unmarshal(line, &probe); uerr != nil {
			return st, fmt.Errorf("%w: unparseable line after %d rows: %v", errCorpusCorrupt, rows, uerr)
		}
		switch probe.Type {
		case "header":
			if sawHeader {
				return st, fmt.Errorf("%w: duplicate header", errCorpusCorrupt)
			}
			sawHeader = true
		case "row":
			if !sawHeader {
				return st, fmt.Errorf("%w: row before header", errCorpusCorrupt)
			}
			sum.Write(line)
			var rec corpusRow
			if uerr := json.Unmarshal(line, &rec); uerr != nil {
				return st, fmt.Errorf("%w: row %d undecodable: %v", errCorpusCorrupt, rows, uerr)
			}
			rows++
			p, verr := verifyCorpusRow(rec, lim)
			if verr != nil {
				st.Rejected++
				continue
			}
			if insert != nil && insert(p) {
				st.Imported++
			} else {
				st.Skipped++
			}
		case "end":
			if !sawHeader {
				return st, fmt.Errorf("%w: trailer before header", errCorpusCorrupt)
			}
			var tr corpusTrailer
			if uerr := json.Unmarshal(line, &tr); uerr != nil {
				return st, fmt.Errorf("%w: undecodable trailer: %v", errCorpusCorrupt, uerr)
			}
			if tr.Rows != rows {
				return st, fmt.Errorf("%w: trailer claims %d rows, stream carried %d", errCorpusCorrupt, tr.Rows, rows)
			}
			if got := hex.EncodeToString(sum.Sum(nil)); got != tr.Checksum {
				return st, fmt.Errorf("%w: checksum mismatch over %d rows", errCorpusCorrupt, rows)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				return st, fmt.Errorf("%w: data after end trailer", errCorpusCorrupt)
			}
			return st, nil
		default:
			return st, fmt.Errorf("%w: unknown record type %q", errCorpusCorrupt, probe.Type)
		}
	}
}

// verifyCorpusRow is the gate for rows from outside the program: the
// request must normalize, validate against this node's limits, and
// re-canonicalize to exactly the advertised key, and the result bytes must
// pass canonicalRuns (storedPayload). Only then does the row become a
// cacheable payload, marked source=peer.
func verifyCorpusRow(rec corpusRow, lim Limits) (*payload, error) {
	req := rec.Request
	req.normalize()
	req.DeadlineMS, req.Trace = 0, false
	if err := req.validate(lim); err != nil {
		return nil, fmt.Errorf("invalid request: %w", err)
	}
	if got := req.Key(); got != rec.Key {
		return nil, fmt.Errorf("key %s does not match re-canonicalized request (%s)", rec.Key, got)
	}
	rec.Request = req
	return storedPayload(rec, sourcePeer)
}

// warmFromPeers is the warm-up goroutine: it walks the configured peers in
// order, giving each PeerAttempts tries with capped-exponential backoff, and
// stops at the first peer whose corpus transfers cleanly. Every failure path
// degrades — next attempt, next peer, and finally a cold start — because a
// dead fleet must never prevent this node from serving. The goroutine rides
// workerWG and aborts promptly on Close (baseCancel cancels both the backoff
// sleeps and any in-flight transfer).
func (s *Server) warmFromPeers() {
	defer s.workerWG.Done()
	defer close(s.warmDone)
	for _, peer := range s.cfg.Peers {
		for attempt := 0; attempt < s.cfg.PeerAttempts; attempt++ {
			if s.baseCtx.Err() != nil || s.Draining() {
				s.cfg.Logf("serve: peer warm-up aborted: server stopping")
				return
			}
			if attempt > 0 {
				if !sleepCtx(s.baseCtx, retryBackoff(s.cfg.PeerBackoff, attempt)) {
					return
				}
			}
			st, err := s.importFromPeer(peer)
			s.stats.add(&s.stats.CorpusRejected, int64(st.Rejected))
			if err == nil {
				s.cfg.Logf("serve: peer warm-up from %s: %d rows imported, %d rejected, %d skipped",
					peer, st.Imported, st.Rejected, st.Skipped)
				return
			}
			s.stats.add(&s.stats.PeerFailures, 1)
			s.cfg.Logf("serve: peer warm-up from %s (attempt %d/%d): %v",
				peer, attempt+1, s.cfg.PeerAttempts, err)
		}
	}
	s.cfg.Logf("serve: peer warm-up: every peer failed; continuing with a cold cache")
}

// importFromPeer pulls one corpus transfer from one peer, bounded end to end
// by PeerTimeout under the server's lifetime context.
func (s *Server) importFromPeer(peer string) (corpusImportStats, error) {
	url := peer
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimRight(url, "/") + "/corpus"
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return corpusImportStats{}, fmt.Errorf("peer request: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return corpusImportStats{}, fmt.Errorf("peer connect: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return corpusImportStats{}, fmt.Errorf("peer answered %s", resp.Status)
	}
	return importCorpusStream(resp.Body, s.cfg.Limits, s.warm)
}

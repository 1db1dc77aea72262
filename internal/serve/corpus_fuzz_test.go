package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzCorpusImport fuzzes the corpus importer's safety contract against
// arbitrary stream bytes:
//
//  1. The importer never panics, whatever the peer sends.
//  2. Nothing unverified ever reaches the sink: every delivered payload's
//     request re-validates and re-canonicalizes to exactly the advertised
//     key, and its runs are canonical bytes.
//  3. A failed import is classified as exactly one of truncation or
//     corruption — never both, never an unclassified error.
//  4. The Imported stat equals the number of sink deliveries accepted.
//
// Seeds include a real export (generated from a live server so the valid
// path is always in the corpus) plus checked-in streams under
// testdata/fuzz/FuzzCorpusImport covering the empty, truncated and corrupt
// shapes.
func FuzzCorpusImport(f *testing.F) {
	s := New(Config{Workers: 1, CacheEntries: 16, DrainGrace: time.Second})
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("POST", "/simulate", strings.NewReader(`{"alg":"prefix","n":32,"p":2,"seed":7}`)))
	if rr.Code != http.StatusOK {
		f.Fatalf("seed simulate failed: %d %s", rr.Code, rr.Body.String())
	}
	ex := httptest.NewRecorder()
	s.ServeHTTP(ex, httptest.NewRequest("GET", "/corpus", nil))
	s.Close()
	valid := ex.Body.Bytes()
	f.Add(append([]byte{}, valid...))
	f.Add(append([]byte{}, valid[:len(valid)/2]...))
	f.Add(bytes.Replace(valid, []byte(`"row"`), []byte(`"wor"`), 1))
	f.Add([]byte{})

	lim := Limits{}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		accepted := 0
		st, err := importCorpusStream(bytes.NewReader(data), lim, func(p *payload) bool {
			req := p.req
			if verr := req.validate(lim); verr != nil {
				t.Fatalf("sink received invalid request: %v", verr)
			}
			if req.Key() != p.Key {
				t.Fatalf("sink received key %s that does not re-canonicalize (%s)", p.Key, req.Key())
			}
			if !canonicalRuns(p.Runs) {
				t.Fatalf("sink received non-canonical runs: %s", p.Runs)
			}
			accepted++
			return true
		})
		if err != nil {
			trunc := errors.Is(err, errCorpusTruncated)
			corrupt := errors.Is(err, errCorpusCorrupt)
			if trunc == corrupt {
				t.Fatalf("import error not classified as exactly one of truncated/corrupt: %v", err)
			}
		}
		if st.Imported != accepted {
			t.Fatalf("Imported=%d but sink accepted %d", st.Imported, accepted)
		}
	})
}

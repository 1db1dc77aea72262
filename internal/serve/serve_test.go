package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/rws"
)

// wireResp decodes either shape the daemon produces: a success Response or
// a typed rejection envelope.
type wireResp struct {
	Key       string          `json:"key"`
	Alg       string          `json:"alg"`
	Cached    bool            `json:"cached"`
	Runs      json.RawMessage `json:"runs"`
	Dedup     bool            `json:"dedup"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Trace     *Timeline       `json:"trace"`
	Error     *apiError       `json:"error"`
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func post(s *Server, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("POST", "/simulate", strings.NewReader(body)))
	return rr
}

func decode(t *testing.T, rr *httptest.ResponseRecorder) wireResp {
	t.Helper()
	var w wireResp
	if err := json.Unmarshal(rr.Body.Bytes(), &w); err != nil {
		t.Fatalf("undecodable body (status %d): %v\n%s", rr.Code, err, rr.Body.String())
	}
	return w
}

// mustOK posts body and fails the test unless it gets a 200.
func mustOK(t *testing.T, s *Server, body string) wireResp {
	t.Helper()
	rr := post(s, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("want 200, got %d: %s", rr.Code, rr.Body.String())
	}
	return decode(t, rr)
}

const baseReq = `{"alg":"prefix","n":128,"p":4,"seed":1}`

func TestValidationRejectsWithTypedBody(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct{ name, body string }{
		{"empty", `{}`},
		{"unknown alg", `{"alg":"nope","n":64,"p":4}`},
		{"bad json", `{"alg":`},
		{"unknown field", `{"alg":"prefix","n":64,"p":4,"bogus":1}`},
		{"n too big", `{"alg":"prefix","n":1000000,"p":4}`},
		{"p zero", `{"alg":"prefix","n":64,"p":0}`},
		{"bad policy", `{"alg":"prefix","n":64,"p":4,"policy":"nope"}`},
		{"remote cost on flat", `{"alg":"prefix","n":64,"p":4,"cost_miss_remote":30}`},
		{"negative deadline", `{"alg":"prefix","n":64,"p":4,"deadline_ms":-1}`},
		{"steal faster than miss", `{"alg":"prefix","n":64,"p":4,"cost_steal":1}`},
	}
	for _, tc := range cases {
		rr := post(s, tc.body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d: %s", tc.name, rr.Code, rr.Body.String())
			continue
		}
		if w := decode(t, rr); w.Error == nil || w.Error.Code != codeInvalid {
			t.Errorf("%s: want typed %q body, got %s", tc.name, codeInvalid, rr.Body.String())
		}
	}
	st := s.Stats()
	if st.Invalid != int64(len(cases)) || st.Received != int64(len(cases)) {
		t.Fatalf("stats should count every rejection: %+v", st)
	}
}

// TestSizeRulesRejectWithTypedBody sends every registered workload at
// n=100, which is not a power of two, to /simulate and /batch. fft and the
// kernels over bit-interleaved matrices cannot run it: they must get a
// typed 400 on both surfaces before any engine work, so no attempt panics
// and no row is quarantined. The other workloads run.
func TestSizeRulesRejectWithTypedBody(t *testing.T) {
	needsPow2 := map[string]bool{
		"matmul-ip": true, "matmul-la": true, "matmul-log": true,
		"transpose": true, "rm2bi": true,
		"bi2rm": true, "bi2rm-natural": true, "bi2rm-rowgather": true,
		"fft": true,
	}
	s := newTestServer(t, Config{})
	for _, alg := range harness.Workloads() {
		want := http.StatusOK
		if needsPow2[alg] {
			want = http.StatusBadRequest
		}
		surfaces := map[string]*httptest.ResponseRecorder{
			"/simulate": post(s, fmt.Sprintf(`{"alg":%q,"n":100,"p":4,"seed":1}`, alg)),
			"/batch":    postBatch(s, fmt.Sprintf(`{"algs":[%q],"ns":[100],"ps":[4],"seeds":[1]}`, alg)),
		}
		for path, rr := range surfaces {
			if rr.Code != want {
				t.Errorf("%s %s n=100: want %d, got %d: %s", path, alg, want, rr.Code, rr.Body.String())
				continue
			}
			if want == http.StatusBadRequest {
				if w := decode(t, rr); w.Error == nil || w.Error.Code != codeInvalid {
					t.Errorf("%s %s n=100: want typed %q, got %s", path, alg, codeInvalid, rr.Body.String())
				}
			}
		}
	}
	if st := s.Stats(); st.Panics != 0 || st.RowsQuarantined != 0 || st.Quarantined != 0 {
		t.Fatalf("an unrunnable size reached an engine: %+v", st)
	}
}

func TestEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: want 200, got %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/workloads", nil))
	var wl map[string][]string
	if err := json.Unmarshal(rr.Body.Bytes(), &wl); err != nil || len(wl["workloads"]) == 0 {
		t.Fatalf("workloads: bad body %s (err %v)", rr.Body.String(), err)
	}
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest("GET", "/statz", nil))
	var st Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("statz: bad body %s (err %v)", rr.Body.String(), err)
	}
}

// TestCachedVsFreshByteEqualAllPolicies is the cache-correctness pin: for
// every registered steal policy, the cached response's runs must be
// byte-identical to the fresh computation's — both within one server (second
// request hits the LRU) and against a brand-new server that computes from
// scratch.
func TestCachedVsFreshByteEqualAllPolicies(t *testing.T) {
	s := newTestServer(t, Config{})
	scratch := newTestServer(t, Config{})
	for _, pol := range rws.Policies() {
		body := fmt.Sprintf(
			`{"alg":"prefix","n":96,"p":8,"seed":7,"runs":2,"policy":%q,"sockets":2,"cost_miss_remote":30,"steal_cost":5,"steal_cost_remote":15}`,
			pol.Name())
		fresh := mustOK(t, s, body)
		if fresh.Cached {
			t.Fatalf("%s: first response claims cached", pol.Name())
		}
		cached := mustOK(t, s, body)
		if !cached.Cached {
			t.Fatalf("%s: second response not served from cache", pol.Name())
		}
		if !bytes.Equal(fresh.Runs, cached.Runs) {
			t.Fatalf("%s: cached runs differ from fresh:\n%s\nvs\n%s",
				pol.Name(), fresh.Runs, cached.Runs)
		}
		rescratch := mustOK(t, scratch, body)
		if !bytes.Equal(fresh.Runs, rescratch.Runs) {
			t.Fatalf("%s: scratch recomputation differs from first server:\n%s\nvs\n%s",
				pol.Name(), fresh.Runs, rescratch.Runs)
		}
		if fresh.Key != cached.Key || fresh.Key != rescratch.Key {
			t.Fatalf("%s: canonical keys differ: %s %s %s",
				pol.Name(), fresh.Key, cached.Key, rescratch.Key)
		}
	}
	if st := s.Stats(); st.CacheHits != int64(len(rws.Policies())) {
		t.Fatalf("want one cache hit per policy, got %+v", st)
	}
}

// TestSingleFlightDedup fires 100 identical concurrent requests at a server
// whose admission bucket holds exactly ONE token: if dedup works, all 100
// share one computation (and that one token) and succeed byte-identically;
// any request that missed both the flight and the cache would be a 429.
func TestSingleFlightDedup(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2,
		Rate:    1e-9, // effectively no refill: only the initial burst token exists
		Burst:   1,
	})
	const clients = 100
	var wg sync.WaitGroup
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := post(s, baseReq)
			codes[i] = rr.Code
			bodies[i] = rr.Body.Bytes()
		}(i)
	}
	wg.Wait()

	var first json.RawMessage
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: want 200, got %d: %s", i, codes[i], bodies[i])
		}
		var w wireResp
		if err := json.Unmarshal(bodies[i], &w); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if first == nil {
			first = w.Runs
		} else if !bytes.Equal(first, w.Runs) {
			t.Fatalf("client %d: runs differ across deduped responses:\n%s\nvs\n%s", i, first, w.Runs)
		}
	}
	st := s.Stats()
	if st.Simulations != 1 {
		t.Fatalf("100 identical requests must run exactly 1 simulation, ran %d (%+v)", st.Simulations, st)
	}
	if st.Dedups+st.CacheHits != clients-1 {
		t.Fatalf("the other 99 must be dedups or cache hits: %+v", st)
	}
	if st.RateLimited != 0 {
		t.Fatalf("dedup must not spend extra admission tokens: %+v", st)
	}
}

func TestAdmissionControl(t *testing.T) {
	clock := time.Unix(0, 0)
	s := newTestServer(t, Config{
		Workers: 1,
		Rate:    1, // 1 req/s
		Burst:   2,
		now:     func() time.Time { return clock }, // frozen: no refill
	})
	// Two distinct requests spend the burst; the third is shed with a 429.
	mustOK(t, s, `{"alg":"prefix","n":64,"p":4,"seed":1}`)
	mustOK(t, s, `{"alg":"prefix","n":64,"p":4,"seed":2}`)
	rr := post(s, `{"alg":"prefix","n":64,"p":4,"seed":3}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", rr.Code, rr.Body.String())
	}
	if w := decode(t, rr); w.Error == nil || w.Error.Code != codeRateLimited {
		t.Fatalf("want typed %q, got %s", codeRateLimited, rr.Body.String())
	}
	// A cached result costs no token even with the bucket empty.
	if w := mustOK(t, s, `{"alg":"prefix","n":64,"p":4,"seed":1}`); !w.Cached {
		t.Fatal("repeat request should hit the cache, not the bucket")
	}
	// Advancing the clock refills the bucket.
	clock = clock.Add(1500 * time.Millisecond)
	mustOK(t, s, `{"alg":"prefix","n":64,"p":4,"seed":4}`)
}

// TestQueueFullShedsLoad wedges the single worker on a stalled attempt,
// fills the depth-1 queue, and expects the next request to shed with a
// typed 503 instead of queueing unboundedly.
func TestQueueFullShedsLoad(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Injector:   func(int, int, string) Fault { return Fault{Stall: true} },
	})
	codeA, codeB := make(chan int, 1), make(chan int, 1)
	go func() { codeA <- post(s, `{"alg":"prefix","n":64,"p":4,"seed":1,"deadline_ms":400}`).Code }()
	time.Sleep(100 * time.Millisecond) // worker is now stalled on A; queue empty
	go func() { codeB <- post(s, `{"alg":"prefix","n":64,"p":4,"seed":2,"deadline_ms":400}`).Code }()
	time.Sleep(100 * time.Millisecond) // B occupies the only queue slot

	rr := post(s, `{"alg":"prefix","n":64,"p":4,"seed":3,"deadline_ms":400}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 queue_full, got %d: %s", rr.Code, rr.Body.String())
	}
	if w := decode(t, rr); w.Error == nil || w.Error.Code != codeQueueFull {
		t.Fatalf("want typed %q, got %s", codeQueueFull, rr.Body.String())
	}
	got := []int{<-codeA, <-codeB}
	sort.Ints(got)
	if got[0] != http.StatusGatewayTimeout || got[1] != http.StatusGatewayTimeout {
		t.Fatalf("stalled requests should deadline with 504s, got %v", got)
	}
}

// TestDeadlineExpiry stalls every attempt and expects the per-request
// deadline to surface as a typed 504 in roughly deadline time.
func TestDeadlineExpiry(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:  1,
		Injector: func(int, int, string) Fault { return Fault{Stall: true} },
	})
	start := time.Now()
	rr := post(s, `{"alg":"prefix","n":64,"p":4,"seed":1,"deadline_ms":100}`)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %s", rr.Code, rr.Body.String())
	}
	if w := decode(t, rr); w.Error == nil || w.Error.Code != codeDeadline {
		t.Fatalf("want typed %q, got %s", codeDeadline, rr.Body.String())
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("deadline took %s to fire", el)
	}
	if st := s.Stats(); st.DeadlineExpired != 1 {
		t.Fatalf("want DeadlineExpired=1, got %+v", st)
	}
}

// TestDefaultDeadlineBoundsRequests is TestDeadlineExpiry for a request
// with no deadline_ms: Config.DefaultDeadline must end the stalled
// attempt with a typed 504. Without it the request would wait forever.
func TestDefaultDeadlineBoundsRequests(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:         1,
		DefaultDeadline: 100 * time.Millisecond,
		Injector:        func(int, int, string) Fault { return Fault{Stall: true} },
	})
	rr := post(s, `{"alg":"prefix","n":64,"p":4,"seed":1}`)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %s", rr.Code, rr.Body.String())
	}
	if w := decode(t, rr); w.Error == nil || w.Error.Code != codeDeadline {
		t.Fatalf("want typed %q, got %s", codeDeadline, rr.Body.String())
	}
	if st := s.Stats(); st.DeadlineExpired != 1 {
		t.Fatalf("want DeadlineExpired=1, got %+v", st)
	}
}

// TestDrainZeroDropped starts in-flight work, drains mid-flight, and proves
// the drain semantics: new requests shed with typed 503s, health flips to
// draining, and every admitted request still completes with a 200 — zero
// dropped.
func TestDrainZeroDropped(t *testing.T) {
	const inflight = 8
	s := newTestServer(t, Config{
		Workers:  4,
		Injector: func(int, int, string) Fault { return Fault{Delay: 150 * time.Millisecond} },
	})
	var wg sync.WaitGroup
	codes := make([]int, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post(s, fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":%d}`, i)).Code
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // all eight admitted and delayed in workers/queue
	s.Drain()

	rr := post(s, `{"alg":"prefix","n":64,"p":4,"seed":99}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: want 503, got %d", rr.Code)
	}
	if w := decode(t, rr); w.Error == nil || w.Error.Code != codeDraining {
		t.Fatalf("want typed %q, got %s", codeDraining, rr.Body.String())
	}
	hz := httptest.NewRecorder()
	s.ServeHTTP(hz, httptest.NewRequest("GET", "/healthz", nil))
	if hz.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: want 503, got %d", hz.Code)
	}

	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("in-flight request %d dropped during drain: status %d", i, c)
		}
	}
	s.Close()
	st := s.Stats()
	if st.OK != inflight || st.DrainRejected != 1 {
		t.Fatalf("want OK=%d DrainRejected=1, got %+v", inflight, st)
	}
	if sum := st.OK + st.Invalid + st.RateLimited + st.QueueFull + st.DrainRejected +
		st.DeadlineExpired + st.TooLarge + st.Internal; sum != st.Received {
		t.Fatalf("outcome counters (%d) must account for every received request (%d): %+v",
			sum, st.Received, st)
	}
}

// TestStatsSnapshotCopiesEveryCounter sets every counter to a distinct value
// and checks that Stats returns each one: no counter may silently read 0.
func TestStatsSnapshotCopiesEveryCounter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	live := reflect.ValueOf(&s.stats).Elem()
	for i := 0; i < live.NumField(); i++ {
		live.Field(i).SetInt(int64(1000 + i))
	}
	got := reflect.ValueOf(s.Stats())
	for i := 0; i < got.NumField(); i++ {
		if v := got.Field(i).Int(); v != int64(1000+i) {
			t.Errorf("Stats().%s = %d, want %d", got.Type().Field(i).Name, v, 1000+i)
		}
	}
}

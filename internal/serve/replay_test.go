package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rwsfs/internal/harness"
)

// serveReplaySizes gives every registered workload a small instance.
var serveReplaySizes = map[string]int{
	"matmul-ip": 16, "matmul-la": 16, "matmul-log": 16,
	"prefix": 256, "prefix-padded": 256,
	"transpose": 32, "rm2bi": 32, "bi2rm": 32, "bi2rm-natural": 32, "bi2rm-rowgather": 32,
	"sort-merge": 256, "sort-col": 256, "fft": 256, "listrank": 256, "conncomp": 128,
}

// inProcess runs a normalized request the way rwsimd did before it
// replayed: WorkloadMaker, then Run on coroutines, one run per seed.
func inProcess(t *testing.T, pool *harness.Runner, r Request) []RunSummary {
	t.Helper()
	cfg, err := r.config()
	if err != nil {
		t.Fatal(err)
	}
	mk, ok := harness.WorkloadMaker(r.Alg, r.N)
	if !ok {
		t.Fatalf("unknown alg %q", r.Alg)
	}
	var out []RunSummary
	for i := 0; i < r.Runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		e, root := mk(pool, c)
		out = append(out, summarize(c.Seed, e.Run(root)))
		pool.Recycle(e)
	}
	return out
}

// served posts r to /simulate and decodes its runs.
func served(t *testing.T, s *Server, r Request) []RunSummary {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	w := mustOK(t, s, string(body))
	var runs []RunSummary
	if err := json.Unmarshal(w.Runs, &runs); err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestServeReplayMatchesRun sends every registered workload to
// /simulate from four concurrent clients, on both of the benchmark's
// machines (uniform and flat; hierarchical on 2 sockets with remote miss
// and steal prices), at budgets {-1, 0, 3} and p in {1, 2, 8}, less p = 1
// on 2 sockets, which the machine rejects. Every
// response must equal an in-process WorkloadMaker + Run. Each keyed
// (alg, n, B) is recorded once and then replayed; conncomp never is.
func TestServeReplayMatchesRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	var reqs []Request
	seed := int64(0)
	for _, alg := range harness.Workloads() {
		for _, hier := range []bool{false, true} {
			for _, budget := range []int64{-1, 0, 3} {
				for _, p := range []int{1, 2, 8} {
					if hier && p == 1 {
						continue
					}
					seed++
					r := Request{Alg: alg, N: serveReplaySizes[alg], P: p, Seed: seed, Budget: &budget}
					if hier {
						r.Policy, r.Sockets, r.CostMissRemote, r.StealCostRemote = "hierarchical", 2, 40, 30
					}
					r.normalize()
					reqs = append(reqs, r)
				}
			}
		}
	}
	var wg sync.WaitGroup
	bodies := make([]string, len(reqs))
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += 4 {
				b, _ := json.Marshal(reqs[i])
				bodies[i] = post(s, string(b)).Body.String()
			}
		}()
	}
	wg.Wait()
	var pool harness.Runner
	defer pool.Close()
	for i, r := range reqs {
		var got struct{ Runs []RunSummary }
		if err := json.Unmarshal([]byte(bodies[i]), &got); err != nil || got.Runs == nil {
			t.Fatalf("%s: %v: %s", r.Alg, err, bodies[i])
		}
		if want := inProcess(t, &pool, r); fmt.Sprint(got.Runs) != fmt.Sprint(want) {
			t.Errorf("%s n=%d p=%d %s sockets=%d budget=%d:\nserved:     %+v\nin process: %+v",
				r.Alg, r.N, r.P, r.Policy, r.Sockets, *r.Budget, got.Runs, want)
		}
	}
	keyed := int64(len(harness.Workloads()) - 1)
	perAlg := int64(len(reqs)) / (keyed + 1)
	st := s.Stats()
	if st.Recordings != keyed || st.RecordingsRejected != 0 || st.TraceEvictions != 0 {
		t.Errorf("want %d recordings, none rejected or evicted: %+v", keyed, st)
	}
	if st.Replays != keyed*perAlg || st.Simulations != int64(len(reqs)) {
		t.Errorf("want %d replays of %d runs (conncomp's %d never replay): %+v", keyed*perAlg, len(reqs), perAlg, st)
	}
	if st.TraceBytes <= 0 || st.TraceBytes > harness.TraceBudget {
		t.Errorf("trace cache holds %d bytes, budget %d", st.TraceBytes, harness.TraceBudget)
	}
}

// TestServeReplayRejectsOverBudget sends matmul-ip at n = 256, whose trace
// (about 3.2 MiB at B = 16) is past the budget: the recording is rejected,
// the cache holds only the rejected key's charge, the response equals
// Run, and the next request with the same (alg, n, B) runs on
// coroutines without recording again.
func TestServeReplayRejectsOverBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("records and runs matmul-ip at n = 256")
	}
	s := newTestServer(t, Config{Workers: 1})
	var pool harness.Runner
	defer pool.Close()
	for seed := int64(1); seed <= 2; seed++ {
		r := Request{Alg: "matmul-ip", N: 256, P: 8, Seed: seed}
		r.normalize()
		if got, want := served(t, s, r), inProcess(t, &pool, r); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: served %+v, in process %+v", seed, got, want)
		}
		st := s.Stats()
		if st.Recordings != 1 || st.RecordingsRejected != 1 || st.Replays != 0 || st.Simulations != seed {
			t.Fatalf("seed %d: want one rejected recording and no replay: %+v", seed, st)
		}
		if st.TraceBytes != 48<<10 {
			t.Fatalf("seed %d: cache holds %d bytes, want one 48 KiB chunk for the rejected key", seed, st.TraceBytes)
		}
	}
}

// TestServeReplayAfterInjectedPanic injects a panic into the first attempt,
// whose kernel is then a keyless one that panics on coroutines: its engine
// is quarantined, the breaker counts the panic, nothing is recorded or
// simulated for it, and the retry records, replays and returns the clean
// result.
func TestServeReplayAfterInjectedPanic(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:      1,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		Injector: func(_, attempt int, _ string) Fault {
			return Fault{Panic: attempt == 0}
		},
	})
	w := mustOK(t, s, `{"alg":"prefix","n":128,"p":4,"seed":1,"trace":true}`)
	var detail string
	for _, ev := range w.Trace.Events {
		if ev.Type == evPanicked {
			detail = ev.Detail
		}
	}
	if !strings.Contains(detail, "injected kernel panic") {
		t.Fatalf("attempt 0 did not run the injected panic: %+v", w.Trace.Events)
	}
	st := s.Stats()
	if st.Panics != 1 || st.Quarantined != 1 || st.Retries != 1 {
		t.Fatalf("want one panic, quarantine and retry: %+v", st)
	}
	if got := s.breaker.Panics(w.Key); got != 1 {
		t.Fatalf("breaker counted %d panics for the key, want 1", got)
	}
	if st.Recordings != 1 || st.Replays != 1 || st.Simulations != 1 {
		t.Fatalf("the retry must record once and replay: %+v", st)
	}
	clean := newTestServer(t, Config{Workers: 1})
	if cw := mustOK(t, clean, `{"alg":"prefix","n":128,"p":4,"seed":1}`); string(cw.Runs) != string(w.Runs) {
		t.Fatalf("retried result differs from a clean run:\n%s\nvs\n%s", w.Runs, cw.Runs)
	}
	if cst := clean.Stats(); cst.TraceBytes != st.TraceBytes {
		t.Fatalf("cache holds %d bytes after the panic and retry, a clean server %d", st.TraceBytes, cst.TraceBytes)
	}
}

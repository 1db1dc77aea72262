package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestPanicRetryAndQuarantine injects a panic into every request's first
// attempt: the poisoned engine must be quarantined (never recycled) and the
// retry must succeed on a replacement, invisibly to the client.
func TestPanicRetryAndQuarantine(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:      1,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		Injector: func(_, attempt int, _ string) Fault {
			return Fault{Panic: attempt == 0}
		},
	})
	w := mustOK(t, s, baseReq)
	if len(w.Runs) == 0 {
		t.Fatal("empty runs in recovered response")
	}
	st := s.Stats()
	if st.Panics < 1 || st.Retries < 1 || st.Quarantined < 1 {
		t.Fatalf("want panic+retry+quarantine counted, got %+v", st)
	}
	// The recovered result must still be byte-identical to a clean run.
	clean := newTestServer(t, Config{Workers: 1})
	if cw := mustOK(t, clean, baseReq); !bytes.Equal(cw.Runs, w.Runs) {
		t.Fatalf("post-quarantine result differs from clean run:\n%s\nvs\n%s", w.Runs, cw.Runs)
	}
}

// TestRetriesExhausted panics every attempt; the request must fail closed
// with a typed 500 instead of looping forever.
func TestRetriesExhausted(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:      1,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		Injector:     func(int, int, string) Fault { return Fault{Panic: true} },
	})
	rr := post(s, baseReq)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("want 500, got %d: %s", rr.Code, rr.Body.String())
	}
	if w := decode(t, rr); w.Error == nil || w.Error.Code != codeInternal {
		t.Fatalf("want typed %q, got %s", codeInternal, rr.Body.String())
	}
	st := s.Stats()
	if st.Panics != 2 || st.Quarantined != 2 || st.Internal != 1 {
		t.Fatalf("want 2 panics/quarantines and 1 typed internal, got %+v", st)
	}
}

// chaosInjector deterministically sabotages a subset of request keys: some
// panic on their first attempt (retry digs them out), some stall every
// attempt (only the deadline ends them, as a typed 504), some straggle on
// their first attempt. Retries of the panicking keys run clean.
func chaosInjector(attempts int) FaultInjector {
	return func(_, attempt int, key string) Fault {
		h := fnv.New32a()
		h.Write([]byte(key))
		n := h.Sum32()
		switch {
		case attempt == 0 && n%5 == 0:
			return Fault{Panic: true}
		case attempt < attempts && n%7 == 1:
			return Fault{Stall: true}
		case attempt == 0 && n%3 == 2:
			return Fault{Delay: 30 * time.Millisecond}
		}
		return Fault{}
	}
}

// TestChaosStorm is the acceptance drill: a request storm at 10x the
// admission budget against a server with panics, stalls and stragglers
// injected. Every request must end in a typed result — 200, 429, 503 or 504
// — with nothing lost, every 200 for a key byte-identical, the stats
// accounting for every request, and the storm's cached results bit-identical
// to a fresh, fault-free recomputation.
func TestChaosStorm(t *testing.T) {
	keys, dups := 24, 4
	if testing.Short() {
		keys, dups = 8, 2
	}
	const burst = 10
	s := newTestServer(t, Config{
		Workers:      4,
		QueueDepth:   8,
		Rate:         200,
		Burst:        burst, // storm size is (keys*dups) ≈ 10x this budget
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		TraceBuffer:  512, // wide enough to retain every storm request's timeline
		Injector:     chaosInjector(3),
	})

	type reply struct {
		key    int
		code   int
		traced bool
		body   []byte
	}
	total := keys * dups
	replies := make([]reply, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the storm opts into tracing: byte-identity of 200 bodies
			// per key below then proves tracing perturbs zero payload bytes.
			traced := i%2 == 0
			extra := ""
			if traced {
				extra = `,"trace":true`
			}
			body := fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":%d,"deadline_ms":2000%s}`, i%keys, extra)
			rr := post(s, body)
			replies[i] = reply{key: i % keys, code: rr.Code, traced: traced, body: rr.Body.Bytes()}
		}(i)
	}
	wg.Wait()

	// 1. Only typed outcomes — no 500s (panics are retried, never surfaced),
	//    no hung or lost requests.
	okRuns := make(map[int]json.RawMessage)
	counts := map[int]int{}
	for _, r := range replies {
		counts[r.code]++
		switch r.code {
		case http.StatusOK:
			var w wireResp
			if err := json.Unmarshal(r.body, &w); err != nil {
				t.Fatalf("undecodable 200 body: %v", err)
			}
			// 2. Dedup/cache coherence: every 200 for one key carries
			//    byte-identical runs — traced and untraced alike, so the
			//    timeline provably lives outside the shared payload.
			if prev, ok := okRuns[r.key]; ok && !bytes.Equal(prev, w.Runs) {
				t.Fatalf("key %d: divergent 200 bodies under chaos:\n%s\nvs\n%s", r.key, prev, w.Runs)
			}
			okRuns[r.key] = w.Runs
			if r.traced && (w.Trace == nil || w.Trace.Outcome != "ok") {
				t.Fatalf("key %d: traced 200 without an ok timeline: %s", r.key, r.body)
			}
			if !r.traced && w.Trace != nil {
				t.Fatalf("key %d: untraced 200 grew a timeline: %s", r.key, r.body)
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			var w wireResp
			if err := json.Unmarshal(r.body, &w); err != nil || w.Error == nil {
				t.Fatalf("rejection without typed body (status %d): %s", r.code, r.body)
			}
		default:
			t.Fatalf("untyped outcome %d under chaos: %s", r.code, r.body)
		}
	}
	if len(okRuns) == 0 {
		t.Fatalf("storm produced no successes at all: %v", counts)
	}
	t.Logf("storm outcomes: %v (%d keys succeeded)", counts, len(okRuns))

	// 3. The stats ledger accounts for every received request.
	st := s.Stats()
	if sum := st.OK + st.Invalid + st.RateLimited + st.QueueFull + st.DrainRejected +
		st.DeadlineExpired + st.TooLarge + st.Internal; sum != st.Received || st.Received < int64(total) {
		t.Fatalf("ledger mismatch: outcomes %d vs received %d (sent %d): %+v", sum, st.Received, total, st)
	}
	if st.Internal != 0 {
		t.Fatalf("first-attempt-only panics must never exhaust retries: %+v", st)
	}

	// 4. Chaos-era results are bit-identical to a fault-free recomputation.
	fresh := newTestServer(t, Config{Workers: 2})
	for key, runs := range okRuns {
		w := mustOK(t, fresh, fmt.Sprintf(`{"alg":"prefix","n":64,"p":4,"seed":%d}`, key))
		if !bytes.Equal(w.Runs, runs) {
			t.Fatalf("key %d: chaos-era result differs from fault-free run:\n%s\nvs\n%s", key, runs, w.Runs)
		}
	}

	// 5. And the server still drains cleanly after the abuse.
	s.Drain()
	if rr := post(s, baseReq); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-storm drain: want 503, got %d", rr.Code)
	}

	// 6. /tracez accounts for the whole storm: one timeline per received
	//    request, each sealed with a terminal outcome that matches the
	//    ledger bucket the request landed in — the histograms are equal.
	tz := getTracez(t, s)
	outcomes := map[string]int64{}
	var timelines int64
	for _, tl := range tz.Traces {
		if tl.Kind != kindSimulate {
			continue
		}
		timelines++
		outcomes[tl.Outcome]++
		if last := tl.Events[len(tl.Events)-1]; last.Type != evOutcome || last.Detail != tl.Outcome {
			t.Fatalf("timeline for %s: terminal event %+v does not match outcome %q", tl.Key, last, tl.Outcome)
		}
	}
	st = s.Stats()
	if timelines != st.Received {
		t.Fatalf("ring holds %d simulate timelines, ledger received %d", timelines, st.Received)
	}
	for outcome, want := range map[string]int64{
		"ok":            st.OK,
		codeInvalid:     st.Invalid,
		codeRateLimited: st.RateLimited,
		codeQueueFull:   st.QueueFull,
		codeDraining:    st.DrainRejected,
		codeDeadline:    st.DeadlineExpired,
		codeTooLarge:    st.TooLarge,
	} {
		if outcomes[outcome] != want {
			t.Fatalf("timeline outcome %q: %d timelines vs ledger %d (%v vs %+v)",
				outcome, outcomes[outcome], want, outcomes, st)
		}
	}
	if got := outcomes[codeInternal] + outcomes[codeQuarantined]; got != st.Internal {
		t.Fatalf("internal-class timelines %d vs ledger %d", got, st.Internal)
	}
	s.Close()
}

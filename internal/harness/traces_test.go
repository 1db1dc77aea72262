package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rwsfs/internal/mem"
	"rwsfs/internal/rws"
)

// held lists the cache's settled keys, least recently used first.
func (c *TraceCache) held() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*traceEntry).key.kernel)
	}
	return out
}

// heldBytes returns the bytes the cache charges, and checks them against
// its entries.
func (c *TraceCache) heldBytes(t *testing.T) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := int64(0)
	for el := c.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*traceEntry).bytes
	}
	if sum != c.bytes {
		t.Errorf("cache charges %d bytes, its entries hold %d", c.bytes, sum)
	}
	return c.bytes
}

// sized records a kernel whose trace takes exactly chunks chunks of ops,
// rejectedBytes each: every iteration adds one work op and one access op.
func sized(chunks int) Recorder {
	const words = 1 << 10
	k := kernel{key: fmt.Sprintf("test/chunks=%d", chunks), mk: func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		e := pool.Engine(cfg)
		base := e.Machine().Alloc.Alloc(words)
		return e, func(c *rws.Ctx) {
			for i := 0; i < chunks*rejectedBytes/24; i++ {
				c.Work(1)
				c.Read(base + mem.Addr(i*37%words))
			}
		}
	}}
	return k.recorder(&enginePool)
}

// TestTraceCacheLRU checks eviction order: a call that finds its key makes
// it the most recently used, and a recording that takes the cache past its
// budget evicts from the least recently used end, charging each trace its
// Bytes.
func TestTraceCacheLRU(t *testing.T) {
	c := TraceCache{budget: 4 * rejectedBytes}
	cfg := rws.DefaultConfig(1)
	get := func(key string, chunks int) TraceChange {
		t.Helper()
		tr, ch := c.Trace(key, cfg, sized(chunks))
		if tr == nil || tr.Bytes() != int64(chunks)*rejectedBytes {
			t.Fatalf("%s: trace %v, want %d chunks", key, tr, chunks)
		}
		return ch
	}
	for _, k := range []string{"a", "b", "c"} {
		if ch := get(k, 1); ch != (TraceChange{Recorded: true, Bytes: rejectedBytes}) {
			t.Fatalf("%s: %+v", k, ch)
		}
	}
	if ch := get("a", 1); ch != (TraceChange{}) {
		t.Fatalf("a hit changed the cache: %+v", ch)
	}
	if ch := get("d", 2); ch != (TraceChange{Recorded: true, Evicted: 1, Bytes: rejectedBytes}) {
		t.Fatalf("d: %+v", ch)
	}
	if got, want := c.held(), []string{"c", "a", "d"}; !slices.Equal(got, want) {
		t.Fatalf("held %v, want %v", got, want)
	}
	if ch := get("e", 3); ch != (TraceChange{Recorded: true, Evicted: 3, Bytes: -rejectedBytes}) {
		t.Fatalf("e: %+v", ch)
	}
	if got, want := c.held(), []string{"e"}; !slices.Equal(got, want) {
		t.Fatalf("held %v, want %v", got, want)
	}
	if b := c.heldBytes(t); b != 3*rejectedBytes {
		t.Fatalf("holds %d bytes, want %d", b, 3*rejectedBytes)
	}
}

// TestTraceCacheBudgetHolds asks 8 goroutines for random keys of random
// sizes: once any call returns, the cache holds at most its budget, and
// the changes the calls report add up to what it holds.
func TestTraceCacheBudgetHolds(t *testing.T) {
	const budget = 5 * rejectedBytes
	c := TraceCache{budget: budget}
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				k := rng.Intn(10)
				cfg := rws.DefaultConfig(1 + rng.Intn(8))
				tr, ch := c.Trace(fmt.Sprint(k), cfg, sized(1+k%3))
				total.Add(ch.Bytes)
				if tr == nil {
					t.Errorf("key %d: no trace", k)
				}
				if b := c.heldBytes(t); b > budget {
					t.Errorf("cache holds %d bytes, budget %d", b, budget)
				}
			}
		}()
	}
	wg.Wait()
	if b := c.heldBytes(t); total.Load() != b {
		t.Fatalf("reported changes sum to %d bytes, cache holds %d", total.Load(), b)
	}
}

// TestTraceCacheRejectsOverBudget records a trace larger than the budget:
// Record's limit rejects it, the cache charges the key one chunk, and a
// second call does not record it again.
func TestTraceCacheRejectsOverBudget(t *testing.T) {
	c := TraceCache{budget: 2 * rejectedBytes}
	cfg := rws.DefaultConfig(1)
	calls := 0
	big := func(cfg rws.Config, limit int64) (*rws.Trace, error) {
		calls++
		if limit != 2*rejectedBytes {
			t.Errorf("recorded with limit %d, want the budget %d", limit, 2*rejectedBytes)
		}
		return sized(3)(cfg, limit)
	}
	tr, ch := c.Trace("big", cfg, big)
	if tr != nil || ch != (TraceChange{Recorded: true, Rejected: true, Bytes: rejectedBytes}) {
		t.Fatalf("over-budget recording: %v, %+v", tr, ch)
	}
	tr, ch = c.Trace("big", cfg, big)
	if tr != nil || ch != (TraceChange{}) || calls != 1 {
		t.Fatalf("rejected key: %v, %+v after %d recordings", tr, ch, calls)
	}
	if b := c.heldBytes(t); b != rejectedBytes {
		t.Fatalf("holds %d bytes, want %d", b, rejectedBytes)
	}
}

// TestTraceCacheSingleFlight asks 8 goroutines for one key at once: one
// records, the others wait for its trace.
func TestTraceCacheSingleFlight(t *testing.T) {
	var c TraceCache
	var calls, recorded atomic.Int32
	var arrived sync.WaitGroup
	rec := func(cfg rws.Config, limit int64) (*rws.Trace, error) {
		calls.Add(1)
		arrived.Wait() // every goroutine is calling Trace
		return sized(1)(cfg, limit)
	}
	got := make([]*rws.Trace, 8)
	arrived.Add(len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done()
			tr, ch := c.Trace("one", rws.DefaultConfig(1+g), rec)
			got[g] = tr
			if ch.Recorded {
				recorded.Add(1)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 || recorded.Load() != 1 {
		t.Fatalf("%d recordings (%d reported), want 1", calls.Load(), recorded.Load())
	}
	for g, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("goroutine %d got trace %p, goroutine 0 %p", g, tr, got[0])
		}
	}
}

// TestTraceCachePanicWhileRecording panics in a recording that others wait
// for: the panic reaches the recording caller, the cache keeps nothing for
// the key, and exactly one waiter records it again for all of them.
func TestTraceCachePanicWhileRecording(t *testing.T) {
	var c TraceCache
	cfg := rws.DefaultConfig(1)
	var calls atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	rec := func(cfg rws.Config, limit int64) (*rws.Trace, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			panic("injected recording panic")
		}
		return sized(1)(cfg, limit)
	}
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Trace("k", cfg, rec)
	}()
	<-started
	type result struct {
		tr *rws.Trace
		ch TraceChange
	}
	results := make(chan result, 4)
	var arrived sync.WaitGroup
	arrived.Add(4)
	for i := 0; i < 4; i++ {
		go func() {
			arrived.Done()
			tr, ch := c.Trace("k", cfg, rec)
			results <- result{tr, ch}
		}()
	}
	arrived.Wait() // the waiters are calling Trace while the recording hangs
	close(release)
	if pv := <-panicked; pv != "injected recording panic" {
		t.Fatalf("recording caller recovered %v", pv)
	}
	var first *rws.Trace
	recorded := 0
	for i := 0; i < 4; i++ {
		r := <-results
		if r.tr == nil || (first != nil && r.tr != first) {
			t.Fatalf("waiter %d got trace %p, want one shared trace", i, r.tr)
		}
		first = r.tr
		if r.ch.Recorded {
			recorded++
		}
	}
	if calls.Load() != 2 || recorded != 1 {
		t.Fatalf("%d recordings, %d reported by waiters; want the panicked one and one more", calls.Load(), recorded)
	}
	if got := c.held(); !slices.Equal(got, []string{"k"}) {
		t.Fatalf("held %v after the retry", got)
	}
}

package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rwsfs/internal/machine"
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

// recorder records k through pool, as Run does on a miss.
func (k Kernel) recorder(pool *Runner) recorder {
	return func(cfg rws.Config, limit int64) (*rws.Trace, error) {
		e, root := k.Make(pool, cfg)
		tr, err := e.Record(root, limit)
		pool.Recycle(e)
		return tr, err
	}
}

// sized records a kernel whose trace takes exactly chunks chunks of ops,
// rejectedBytes each: every iteration adds one work op and one access op.
func sized(chunks int) recorder {
	const words = 1 << 10
	k := Kernel{Key: fmt.Sprintf("test/chunks=%d", chunks), Make: func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
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
		tr, ch := c.trace(key, cfg, sized(chunks))
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
				tr, ch := c.trace(fmt.Sprint(k), cfg, sized(1+k%3))
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
	tr, ch := c.trace("big", cfg, big)
	if tr != nil || ch != (TraceChange{Recorded: true, Rejected: true, Bytes: rejectedBytes}) {
		t.Fatalf("over-budget recording: %v, %+v", tr, ch)
	}
	tr, ch = c.trace("big", cfg, big)
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
		arrived.Wait() // every goroutine is calling trace
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
			tr, ch := c.trace("one", rws.DefaultConfig(1+g), rec)
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
		c.trace("k", cfg, rec)
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
			tr, ch := c.trace("k", cfg, rec)
			results <- result{tr, ch}
		}()
	}
	arrived.Wait() // the waiters are calling trace while the recording hangs
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

// forkWrites is a kernel body that forks 64 leaves, each writing one word
// of out; the leaf j == fail panics with "boom" instead (fail < 0: none).
func forkWrites(out mem.Addr, fail int) func(*rws.Ctx) {
	return func(c *rws.Ctx) {
		c.ForkN(64, func(j int, c *rws.Ctx) {
			c.Work(machine.Tick(1 + j%5))
			if j == fail {
				panic("boom")
			}
			c.Write(out + mem.Addr(j))
		})
	}
}

// TestTraceCacheRunPanicWhileRecording panics in a keyed kernel while Run
// records it. Run returns the panic as an error and closes the recording
// engine, so the pool's next checkout builds a new one; the cache holds
// nothing for the key, and the next Run records, replays and equals
// Engine.Run.
func TestTraceCacheRunPanicWhileRecording(t *testing.T) {
	var pool Runner
	defer pool.Close()
	cfg := rws.DefaultConfig(4)
	pool.Recycle(pool.Engine(cfg)) // the recording reuses this engine
	var engines []*rws.Engine
	k := Kernel{Key: "test/panics-once", Make: func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		e := pool.Engine(cfg)
		engines = append(engines, e)
		fail := -1
		if len(engines) == 1 {
			fail = 40
		}
		return e, forkWrites(e.Machine().Alloc.Alloc(64), fail)
	}}
	var c TraceCache
	_, ch, err := c.Run(&pool, k, cfg)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run returned %v, want the recording's panic", err)
	}
	if ch != (TraceChange{}) || len(c.held()) != 0 {
		t.Fatalf("a panicked recording changed the cache: %+v, holds %v", ch, c.held())
	}
	if err := engines[0].Reset(cfg); !errors.Is(err, rws.ErrEngineClosed) {
		t.Fatalf("the recording engine was not closed: Reset returned %v", err)
	}
	_, built := pool.Stats()
	got, ch, err := c.Run(&pool, k, cfg)
	if err != nil || !ch.Recorded || ch.Rejected || !ch.Replayed {
		t.Fatalf("the next Run must record and replay: %+v, %v", ch, err)
	}
	if _, b := pool.Stats(); b != built+1 {
		t.Fatalf("the next checkout built %d engines, want 1", b-built)
	}
	e, root := k.Make(&pool, cfg)
	want := e.Run(root)
	pool.Recycle(e)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay after the panic diverged from Engine.Run:\nEngine.Run: %+v\nRun:        %+v", want, got)
	}
}

// TestTraceCacheRunPanicOnCoroutines panics in one leaf of a keyless
// kernel at P = 8, on a pooled engine whose strands stay suspended between
// runs. Run returns the panic as an error and closes the engine, which
// leaves no goroutine behind, and reports no replay.
func TestTraceCacheRunPanicOnCoroutines(t *testing.T) {
	var pool Runner
	defer pool.Close()
	cfg := rws.DefaultConfig(8)
	fail := -1
	var used *rws.Engine
	k := Kernel{Make: func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		used = pool.Engine(cfg)
		return used, forkWrites(used.Machine().Alloc.Alloc(64), fail)
	}}
	var c TraceCache
	if _, ch, err := c.Run(&pool, k, cfg); err != nil || ch != (TraceChange{}) {
		t.Fatalf("clean run: %+v, %v", ch, err)
	}
	before := runtime.NumGoroutine()
	fail = 40
	_, ch, err := c.Run(&pool, k, cfg)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run returned %v, want the leaf's panic", err)
	}
	if ch != (TraceChange{}) {
		t.Fatalf("a keyless run changed the cache or replayed: %+v", ch)
	}
	if err := used.Reset(cfg); !errors.Is(err, rws.ErrEngineClosed) {
		t.Fatalf("the panicked engine was not closed: Reset returned %v", err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the panicked Run, %d before it", n, before)
	}
}

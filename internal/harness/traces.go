package harness

import (
	"container/list"
	"fmt"
	"sync"

	"rwsfs/internal/rws"
)

// TraceBudget is the byte budget of every TraceCache, the sweep's and each
// rwsimd server's, and the limit of each recording made for one. The
// sweep's largest trace, columnsort at n = 4096, takes 1.41 MiB; the seven
// replayable kernels of the /simulate benchmark's mix take 1.08 MiB at
// B = 16.
const TraceBudget = 2 << 20

// rejectedBytes is what the cache charges for remembering that a key's
// recording was rejected: one chunk of ops, the size of the smallest trace.
const rejectedBytes = 48 << 10

// recorder records a kernel once under cfg, through rws.Engine.Record with
// the given byte limit, and returns the trace or the recording's error.
type recorder func(cfg rws.Config, limit int64) (*rws.Trace, error)

// TraceCache runs kernels (Run, the one way to a trace), replaying op
// traces it holds under a byte budget. A kernel's op stream is fixed by its
// content key, the block size and the root stack size; the processor
// count, seed, steal policy, topology and steal budget do not change it, so
// one recording serves every run that shares those three. The cache
// records each key once, however many callers ask for it at the same time,
// and remembers a key whose recording was rejected, so that it is not
// recorded again while the cache holds it. It evicts the least recently
// used entries, charging a trace its Bytes and a rejected key
// rejectedBytes, so that once a call returns the cache holds at most
// TraceBudget bytes. Traces are immutable, so engines may share one.
//
// The zero value is an empty cache, safe for concurrent use.
type TraceCache struct {
	mu      sync.Mutex
	budget  int64 // 0 means TraceBudget; tests set a smaller one
	bytes   int64
	entries map[traceKey]*traceEntry
	lru     list.List // settled entries, least recently used first
}

// traceKey names one recording.
type traceKey struct {
	kernel         string
	b              int
	rootStackWords int
}

type traceEntry struct {
	key   traceKey
	tr    *rws.Trace // nil when the recording was rejected
	bytes int64
	elem  *list.Element // nil while the key is being recorded
	done  chan struct{} // closed when the recording settles or panics
}

// TraceChange reports what one Run call changed in the cache, and whether
// the run replayed a trace. Every change happens in exactly one call, so
// summing the changes of all calls gives the cache's totals.
type TraceChange struct {
	Recorded bool  // the call recorded its key
	Rejected bool  // and the recording was rejected
	Evicted  int64 // entries evicted to keep within the budget
	Bytes    int64 // the change in the bytes the cache holds
	Replayed bool  // the run replayed a trace, not the kernel's code
}

func (c *TraceCache) limit() int64 {
	if c.budget > 0 {
		return c.budget
	}
	return TraceBudget
}

// Run performs one run of k under cfg on an engine from pool, and returns
// its Result and what the call changed in the cache. A kernel with a key
// replays its trace, recorded on a miss by rws.Engine.Record under the
// cache's budget; a kernel without a key (conncomp), or whose recording
// was rejected, runs on coroutines through k.Make and RunLean, with a
// bit-identical Result. If the recording or the run panics, Run closes
// that engine, never recycling it, and returns the panic value as an
// error; the TraceChange still reports what the cache changed.
func (c *TraceCache) Run(pool *Runner, k Kernel, cfg rws.Config) (res rws.Result, ch TraceChange, err error) {
	var e *rws.Engine // the engine in use, closed if it panics
	var root func(*rws.Ctx)
	defer func() {
		if pv := recover(); pv != nil {
			if e != nil {
				e.Close()
			}
			err = fmt.Errorf("%v", pv)
		}
	}()
	var tr *rws.Trace
	if k.Key != "" {
		tr, ch = c.trace(k.Key, cfg, func(cfg rws.Config, limit int64) (t *rws.Trace, err error) {
			e, root = k.Make(pool, cfg)
			t, err = e.Record(root, limit)
			pool.Recycle(e)
			e = nil
			return t, err
		})
	}
	if tr != nil {
		e = pool.Engine(cfg)
		res, ch.Replayed = e.Replay(tr), true
	} else {
		e, root = k.Make(pool, cfg)
		res = e.RunLean(root)
	}
	pool.Recycle(e) // res is fully materialized: recycling cannot clobber it
	return res, ch, nil
}

// trace returns the trace of the kernel with content key key at cfg's block
// and root stack sizes, or nil when its recording was rejected. On a miss
// it calls record once with cfg as it came and the cache's budget as the
// limit: a recording walks the kernel serially, so no other field of cfg
// changes it. Callers asking for the key meanwhile wait for that
// recording. If record panics, the cache forgets the key, so a later call
// records it again, and the panic goes on to the caller.
func (c *TraceCache) trace(key string, cfg rws.Config, record recorder) (*rws.Trace, TraceChange) {
	k := traceKey{key, cfg.Machine.B, cfg.RootStackWords}
	c.mu.Lock()
	for {
		ent, ok := c.entries[k]
		if !ok {
			break
		}
		if ent.elem != nil {
			c.lru.MoveToBack(ent.elem)
			c.mu.Unlock()
			return ent.tr, TraceChange{}
		}
		c.mu.Unlock()
		<-ent.done
		c.mu.Lock()
	}
	ent := &traceEntry{key: k, done: make(chan struct{})}
	if c.entries == nil {
		c.entries = make(map[traceKey]*traceEntry)
	}
	c.entries[k] = ent
	c.mu.Unlock()

	settled := false
	defer func() {
		if !settled {
			c.mu.Lock()
			delete(c.entries, k)
			c.mu.Unlock()
			close(ent.done)
		}
	}()
	tr, err := record(cfg, c.limit())
	if err != nil {
		tr = nil
	}
	c.mu.Lock()
	ch := c.settle(ent, tr)
	c.mu.Unlock()
	settled = true
	close(ent.done)
	return tr, ch
}

// settle stores a finished recording, or its rejection, as the most
// recently used entry, and evicts from the least recently used end until
// the cache is within its budget.
func (c *TraceCache) settle(ent *traceEntry, tr *rws.Trace) TraceChange {
	ch := TraceChange{Recorded: true, Rejected: tr == nil}
	ent.tr, ent.bytes = tr, rejectedBytes
	if tr != nil {
		ent.bytes = tr.Bytes()
	}
	ent.elem = c.lru.PushBack(ent)
	c.bytes += ent.bytes
	ch.Bytes = ent.bytes
	for c.bytes > c.limit() {
		old := c.lru.Remove(c.lru.Front()).(*traceEntry)
		delete(c.entries, old.key)
		c.bytes -= old.bytes
		ch.Bytes -= old.bytes
		ch.Evicted++
	}
	return ch
}

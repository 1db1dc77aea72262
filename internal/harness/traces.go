package harness

import (
	"container/list"
	"sync"

	"rwsfs/internal/machine"
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

// Recorder records a kernel once under cfg, through rws.Engine.Record with
// the given byte limit, and returns the trace or the recording's error.
type Recorder func(cfg rws.Config, limit int64) (*rws.Trace, error)

// TraceCache holds recorded op traces under a byte budget. A kernel's op
// stream is fixed by its content key, the block size and the root stack
// size; the processor count, seed, steal policy, topology and steal budget
// do not change it, so one recording serves every run that shares those
// three. The cache records each key once, however many callers ask for it
// at the same time, and remembers a key whose recording was rejected, so
// that it is not recorded again while the cache holds it. It evicts the
// least recently used entries, charging a trace its Bytes and a rejected
// key rejectedBytes, so that once a call returns the cache holds at most
// TraceBudget bytes. Traces are immutable, and any number of engines may
// replay one at the same time.
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

// TraceChange reports what one Trace call changed in the cache. Every
// change happens in exactly one call, so summing the changes of all calls
// gives the cache's totals.
type TraceChange struct {
	Recorded bool  // the call recorded its key
	Rejected bool  // and the recording was rejected
	Evicted  int64 // entries evicted to keep within the budget
	Bytes    int64 // the change in the bytes the cache holds
}

func (c *TraceCache) limit() int64 {
	if c.budget > 0 {
		return c.budget
	}
	return TraceBudget
}

// Trace returns the trace of the kernel with content key key at cfg's block
// and root stack sizes, or nil when its recording was rejected. On a miss
// it calls record once with cfg at P = 1 on a flat machine, where no steal
// can split the stream, and the cache's budget as the limit; callers asking
// for the key meanwhile wait for that recording. If record panics, the
// cache forgets the key, so a later call records it again, and the panic
// goes on to the caller.
func (c *TraceCache) Trace(key string, cfg rws.Config, record Recorder) (*rws.Trace, TraceChange) {
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
	cfg.Machine.P = 1
	cfg.Machine.Topology = machine.Topology{}
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

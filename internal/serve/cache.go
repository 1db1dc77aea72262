package serve

import (
	"container/list"
	"sync"
)

// resultCache is the daemon's one table from canonical key to result, for
// /simulate and batch rows alike. Engine determinism (same normalized
// request ⇒ byte-equal result, pinned by the rws reuse differentials) gives
// each key exactly one result, so the table both deduplicates the requests
// that arrive while a key is being computed and serves it once it is done;
// the serve cache tests assert the byte equality end to end.
//
// An entry is in flight or settled. While it is in flight its leader, the
// caller whose lookup created it, is computing it, and followers wait on
// its done channel against their own deadlines, so one slow waiter never
// holds the others. The leader ends the flight with settle. A result
// becomes the most recently used settled entry; a rejection releases the
// key, and so does any result when the capacity is 0. Capacity counts
// settled entries only, and only settled entries are evicted, least
// recently used first.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*resultEntry
	lru     list.List // settled entries, most recently used first
}

// resultEntry is one key's result. The leader writes p or reject before
// closing done, and a settled entry is never written again, so a follower
// reads them unlocked once done is closed.
type resultEntry struct {
	key    string
	p      *payload
	reject *apiError
	elem   *list.Element // nil while in flight
	done   chan struct{} // closed when the flight settles; nil for warm inserts
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: max(capacity, 0), entries: make(map[string]*resultEntry)}
}

// lookup resolves key to one of three answers: a settled payload (a hit,
// which becomes the most recently used entry), an open flight to follow, or
// a new flight that the caller leads and must end with settle.
func (c *resultCache) lookup(key string) (hit *payload, f *resultEntry, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.elem == nil {
			return nil, e, false
		}
		c.lru.MoveToFront(e.elem)
		return e.p, nil, false
	}
	f = &resultEntry{key: key, done: make(chan struct{})}
	c.entries[key] = f
	return nil, f, true
}

// settle ends a flight with its leader's outcome and wakes its followers.
// The stored payload is shared by reference and must never be mutated
// (responses copy the per-request fields, not the payload).
func (c *resultCache) settle(f *resultEntry, p *payload, reject *apiError) {
	c.mu.Lock()
	f.p, f.reject = p, reject
	if reject == nil {
		f.elem = c.lru.PushFront(f)
		for c.lru.Len() > c.cap {
			delete(c.entries, c.lru.Remove(c.lru.Back()).(*resultEntry).key)
		}
	} else {
		delete(c.entries, f.key)
	}
	c.mu.Unlock()
	close(f.done)
}

// AddIfSpace stores p under key only when doing so evicts nothing: either
// the key is already settled (refreshed: p replaces its payload and becomes
// the most recently used entry) or the table has a free settled slot. It
// refuses a key in flight, whose leader settles it, and a full table.
// Warm-up paths (journal replay, peer corpus import) use it so a corpus
// larger than the cache stops inserting at capacity instead of churning the
// entire corpus through the LRU and evicting earlier rows.
func (c *resultCache) AddIfSpace(key string, p *payload) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.entries[key]
	if ok && old.elem == nil || !ok && c.lru.Len() >= c.cap {
		return false
	}
	e := &resultEntry{key: key, p: p}
	if ok {
		// A follower may still be reading old, so it is replaced, not written.
		e.elem = old.elem
		e.elem.Value = e
		c.lru.MoveToFront(e.elem)
	} else {
		e.elem = c.lru.PushFront(e)
	}
	c.entries[key] = e
	return true
}

// Snapshot returns the settled payloads, most recently used first. Payloads
// are shared by reference and immutable after insertion, so the caller may
// read them without further locking.
func (c *resultCache) Snapshot() []*payload {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*payload, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*resultEntry).p)
	}
	return out
}

// Len reports the number of settled payloads.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

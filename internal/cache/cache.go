// Package cache implements the per-processor private cache of the machine
// model: a fully-associative set of M/B blocks with LRU replacement.
//
// The cache stores only block identities (the simulated values live in
// mem.Memory); the machine layer on top of it decides coherence actions and
// classifies misses. Fully-associative LRU matches the ideal-cache model the
// paper's sequential cache-complexity bounds (Q) assume.
//
// The implementation is an intrusive array-backed LRU built for the
// simulator's hot path: recency links are prev/next indices into a flat node
// slice (one circular list threaded through a sentinel), and the block→node
// index is a paged dense array rather than a hash map. Block IDs come from
// mem.Allocator, a bump allocator, so they are dense from zero: a paged
// array indexed by BlockID resolves a lookup with two loads and no hashing,
// and pages materialize lazily so sparse residency (a cache that only ever
// holds a task's stack blocks) stays cheap. Steady-state Touch/Insert/Remove
// perform zero heap allocations.
package cache

import (
	"fmt"

	"rwsfs/internal/mem"
)

// idxPageShift sets the dense-index page size: 2^idxPageShift block IDs per
// page (256 entries = 1 KiB per materialized page — execution-stack regions
// cluster their touched blocks, so small pages waste little zeroed memory).
// Pages are carved from an arena chunk covering idxArenaPages pages, so
// materialization costs a fraction of an allocation.
const idxPageShift = 8

const idxPageLen = 1 << idxPageShift

// idxArenaPages sets how many pages one arena chunk backs; small, so the
// last chunk of a short run wastes little zeroed memory.
const idxArenaPages = 4

// node is one LRU list entry. Index 0 is the sentinel of the circular
// recency list (next = MRU, prev = LRU); indices 1..capacity are blocks.
// Free nodes are chained through next. The sentinel's bid is -1, which no
// block has, so reading the MRU node's bid needs no emptiness check.
type node struct {
	prev, next int32
	bid        mem.BlockID
}

// Cache is a fully-associative LRU cache over block identities.
type Cache struct {
	capacity int
	size     int
	nodes    []node // len capacity+1; nodes[0] is the sentinel
	free     int32  // head of the free-node chain; 0 when exhausted
	// index maps BlockID → node index, paged lazily; entry 0 means absent.
	// A page's entries are only meaningful while its gen matches the
	// cache's: Reset invalidates the whole index by bumping gen, and a
	// stale page is re-zeroed lazily when next touched, so resetting costs
	// O(capacity) rather than O(materialized index). A page never
	// materialized has gen 0, which the cache's gen never is.
	index []idxPage
	gen   uint32
	// idxArena is the chunk new index pages are carved from.
	idxArena []int32
}

// idxPage is one page of the block index: the node indices of idxPageLen
// consecutive block IDs, and the generation they belong to.
type idxPage struct {
	slots *[idxPageLen]int32
	gen   uint32
}

// New returns a cache holding at most capacity blocks: an empty Cache
// brought up by Reset.
func New(capacity int) *Cache {
	c := &Cache{}
	c.Reset(capacity)
	return c
}

// Reset empties the cache for another run, adopting a (possibly different)
// capacity. The recency nodes are rebuilt and the block index is invalidated
// in O(1) by bumping the index generation; materialized index pages are kept
// and lazily re-zeroed on first touch, so a reused cache allocates nothing
// in steady state. Reset must also work on an empty Cache: New is Reset on
// one.
func (c *Cache) Reset(capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity %d", capacity))
	}
	if capacity != c.capacity {
		c.capacity = capacity
		if cap(c.nodes) >= capacity+1 {
			c.nodes = c.nodes[:capacity+1]
		} else {
			c.nodes = make([]node, capacity+1)
		}
	}
	c.reset()
	c.gen++
	if c.gen == 0 {
		// The generation wrapped: mark every page stale by hand, since a
		// stale page may carry any earlier gen, and restart at 1.
		for i := range c.index {
			c.index[i].gen = 0
		}
		c.gen = 1
	}
}

// reset empties the recency list and rebuilds the free chain 1→2→…→capacity.
func (c *Cache) reset() {
	c.nodes[0] = node{bid: -1}
	for i := 1; i <= c.capacity; i++ {
		c.nodes[i].next = int32(i) + 1
	}
	c.nodes[c.capacity].next = 0
	c.free = 1
	c.size = 0
}

// lookup returns the node index of b, or 0 if b is not resident. A page left
// over from before the last Reset (stale generation) reads as absent.
func (c *Cache) lookup(b mem.BlockID) int32 {
	pg := uint64(b) >> idxPageShift
	if pg >= uint64(len(c.index)) || c.index[pg].gen != c.gen {
		return 0
	}
	return c.index[pg].slots[uint64(b)&(idxPageLen-1)]
}

// slot returns the index cell for b, materializing its page — or, after a
// Reset, re-zeroing a stale page in place and revalidating its generation.
func (c *Cache) slot(b mem.BlockID) *int32 {
	pg := uint64(b) >> idxPageShift
	if pg >= uint64(len(c.index)) {
		grown := make([]idxPage, pg+1)
		copy(grown, c.index)
		c.index = grown
	}
	page := &c.index[pg]
	if page.gen != c.gen {
		if page.slots == nil {
			if len(c.idxArena) < idxPageLen {
				c.idxArena = make([]int32, idxArenaPages*idxPageLen)
			}
			page.slots, c.idxArena = (*[idxPageLen]int32)(c.idxArena), c.idxArena[idxPageLen:]
		} else {
			clear(page.slots[:])
		}
		page.gen = c.gen
	}
	return &page.slots[uint64(b)&(idxPageLen-1)]
}

// moveToFront relinks node n as most-recently-used.
func (c *Cache) moveToFront(n int32) {
	nd := &c.nodes[n]
	if c.nodes[0].next == n {
		return
	}
	// Unlink.
	c.nodes[nd.prev].next = nd.next
	c.nodes[nd.next].prev = nd.prev
	// Relink after the sentinel.
	first := c.nodes[0].next
	nd.prev, nd.next = 0, first
	c.nodes[first].prev = n
	c.nodes[0].next = n
}

// pushFront links a detached node n as most-recently-used.
func (c *Cache) pushFront(n int32) {
	first := c.nodes[0].next
	nd := &c.nodes[n]
	nd.prev, nd.next = 0, first
	c.nodes[first].prev = n
	c.nodes[0].next = n
}

// unlink detaches node n from the recency list.
func (c *Cache) unlink(n int32) {
	nd := &c.nodes[n]
	c.nodes[nd.prev].next = nd.next
	c.nodes[nd.next].prev = nd.prev
}

// Len reports the current number of resident blocks.
func (c *Cache) Len() int { return c.size }

// Contains reports whether block b is resident.
func (c *Cache) Contains(b mem.BlockID) bool { return c.lookup(b) != 0 }

// Touch marks block b most-recently-used. It reports whether b was resident.
// A run of accesses to one block finds it most-recently-used already, so
// that case is answered before the index lookup.
func (c *Cache) Touch(b mem.BlockID) bool {
	if c.nodes[c.nodes[0].next].bid == b {
		return true
	}
	n := c.lookup(b)
	if n == 0 {
		return false
	}
	c.moveToFront(n)
	return true
}

// Insert makes block b resident and most-recently-used. If the cache was
// full, the least-recently-used block is evicted and returned with
// evicted=true. Inserting an already-resident block just touches it.
func (c *Cache) Insert(b mem.BlockID) (victim mem.BlockID, evicted bool) {
	if n := c.lookup(b); n != 0 {
		c.moveToFront(n)
		return 0, false
	}
	var n int32
	if c.size >= c.capacity {
		// Reuse the LRU node in place: unlink it, clear its index entry.
		n = c.nodes[0].prev
		victim = c.nodes[n].bid
		c.unlink(n)
		*c.slot(victim) = 0
		evicted = true
	} else {
		n = c.free
		c.free = c.nodes[n].next
		c.size++
	}
	c.nodes[n].bid = b
	c.pushFront(n)
	*c.slot(b) = n
	return victim, evicted
}

// Remove drops block b (an invalidation). It reports whether b was resident.
func (c *Cache) Remove(b mem.BlockID) bool {
	n := c.lookup(b)
	if n == 0 {
		return false
	}
	c.unlink(n)
	*c.slot(b) = 0
	c.nodes[n].next = c.free
	c.free = n
	c.size--
	return true
}

// Flush empties the cache.
func (c *Cache) Flush() {
	for n := c.nodes[0].next; n != 0; n = c.nodes[n].next {
		*c.slot(c.nodes[n].bid) = 0
	}
	c.reset()
}

// Resident returns the resident blocks in MRU-to-LRU order. Intended for
// tests and debugging.
func (c *Cache) Resident() []mem.BlockID {
	out := make([]mem.BlockID, 0, c.size)
	for n := c.nodes[0].next; n != 0; n = c.nodes[n].next {
		out = append(out, c.nodes[n].bid)
	}
	return out
}

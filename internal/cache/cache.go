// Package cache implements the recency order of the machine model's
// per-processor private cache: a fully-associative set of M/B blocks with
// LRU replacement.
//
// The cache stores only block identities (the simulated values live in
// mem.Memory) and holds no block index: the machine's coherence directory
// maps each block to its node in every processor's list, so a caller finds
// a resident block's node there and hands it to Touch or Remove, and Insert
// is called only for a block that is not resident. Fully-associative LRU
// matches the ideal-cache model the paper's sequential cache-complexity
// bounds (Q) assume.
//
// The list is intrusive and array-backed for the simulator's hot path:
// recency links are prev/next indices into a flat node slice, one circular
// list threaded through a sentinel, and free nodes are chained through the
// same links, so Touch, Insert and Remove allocate nothing.
package cache

import (
	"fmt"

	"rwsfs/internal/mem"
)

// node is one LRU list entry. Index 0 is the sentinel of the circular
// recency list (next = MRU, prev = LRU); indices 1..capacity are blocks.
// Free nodes are chained through next. The sentinel's bid is -1, which no
// block has, so reading the MRU node's bid needs no emptiness check.
type node struct {
	prev, next int32
	bid        mem.BlockID
}

// Cache is a fully-associative LRU order over block identities. A block's
// node is a nonzero int32 that stays its own until the block is evicted or
// removed.
type Cache struct {
	capacity int
	size     int
	nodes    []node // len capacity+1; nodes[0] is the sentinel
	free     int32  // head of the free-node chain; 0 when the cache is full
}

// New returns a cache holding at most capacity blocks: an empty Cache
// brought up by Reset.
func New(capacity int) *Cache {
	c := &Cache{}
	c.Reset(capacity)
	return c
}

// Reset empties the cache for another run, adopting a (possibly different)
// capacity, and rebuilds the free chain 1→2→…→capacity; the node slice is
// reused when it is large enough. Reset must also work on an empty Cache:
// New is Reset on one.
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
	c.nodes[0] = node{bid: -1}
	for i := 1; i <= capacity; i++ {
		c.nodes[i].next = int32(i) + 1
	}
	c.nodes[capacity].next = 0
	c.free = 1
	c.size = 0
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

// MRU returns the most-recently-used block, or -1 when the cache is empty.
// A run of accesses to one block finds it here, before any index lookup.
func (c *Cache) MRU() mem.BlockID { return c.nodes[c.nodes[0].next].bid }

// Touch marks resident node n most-recently-used.
func (c *Cache) Touch(n int32) {
	c.unlink(n)
	c.pushFront(n)
}

// Insert makes block b, which must not be resident, most-recently-used and
// returns its node. If the cache was full, the least-recently-used block is
// evicted, its node reused for b, and the victim returned with
// evicted=true.
func (c *Cache) Insert(b mem.BlockID) (n int32, victim mem.BlockID, evicted bool) {
	if n = c.free; n != 0 {
		c.free = c.nodes[n].next
		c.size++
	} else {
		n = c.nodes[0].prev
		victim, evicted = c.nodes[n].bid, true
		c.unlink(n)
	}
	c.nodes[n].bid = b
	c.pushFront(n)
	return n, victim, evicted
}

// Remove drops resident node n (an invalidation) and frees it.
func (c *Cache) Remove(n int32) {
	c.unlink(n)
	c.nodes[n].next = c.free
	c.free = n
	c.size--
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

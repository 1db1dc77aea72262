package rws

import (
	"fmt"

	"rwsfs/internal/machine"
)

// clockHeap picks the processor that acts next: the one with the smallest
// (clock, processor ID) key. The tie-break on processor ID reproduces
// exactly the selection of the seed's O(P) linear scan ("first processor
// with the minimum clock"), which matters for bit-for-bit determinism: the
// scheduling order drives RNG consumption.
//
// It is a winner (tournament) tree over one key per processor, packed as
// clock<<procBits | proc so that one unsigned comparison orders two keys.
// The tree is a complete binary tree in an array: tree[n+p] is processor
// p's leaf for n = P, and each internal node tree[i], 1 <= i < n, holds the
// smaller key of its children tree[2i] and tree[2i+1], so tree[1] is the
// winner. After a processor's clock changes, replaying its matches on the
// path from its leaf to the root, at most ⌈log2 P⌉ of them, each a min of
// two keys with no data-dependent branch, restores the tree. A parked
// processor (Engine.idleStep) leaves the tree: its leaf becomes emptyKey,
// which loses every match.
type clockHeap struct {
	clock []machine.Tick
	tree  []uint64 // tree[0] is unused
	gone  []int32  // removed processors, in removal order
}

// The key's fields: the processor ID in the low procBits bits, the clock
// above them. maxProcs leaves the all-ones ID to emptyKey, so no key
// equals it; NewEngine and Engine.Reset reject a larger P, and a clock past
// maxClock panics when its key is built.
const (
	procBits = 16
	procMask = 1<<procBits - 1
	maxProcs = procMask
	maxClock = 1<<(64-procBits) - 1
	emptyKey = ^uint64(0)
)

// reset restores the tree to the all-clocks-zero start state for p
// processors, reusing the backing arrays when they are large enough.
func (h *clockHeap) reset(p int) {
	if p <= cap(h.clock) {
		h.clock = h.clock[:p]
		h.tree = h.tree[:2*p]
	} else {
		h.clock = make([]machine.Tick, p)
		h.tree = make([]uint64, 2*p)
		h.gone = make([]int32, 0, p)
	}
	h.gone = h.gone[:0]
	for q := range h.clock {
		h.clock[q] = 0
		h.tree[p+q] = uint64(q)
	}
	for i := p - 1; i >= 1; i-- {
		h.tree[i] = min(h.tree[2*i], h.tree[2*i+1])
	}
}

// key returns the key of processor p at clock c.
func key(c machine.Tick, p int) uint64 {
	if uint64(c) > maxClock {
		panic(errClockOverflow)
	}
	return uint64(c)<<procBits | uint64(p)
}

// errClockOverflow is the panic of a clock too large for a key.
var errClockOverflow = fmt.Errorf("rws: a processor's clock passed the scheduler's limit of %d ticks", maxClock)

// min returns the processor with the smallest (clock, ID) key.
func (h *clockHeap) min() int { return int(h.tree[1] & procMask) }

// set gives processor p's leaf key k, replays p's matches up to the root
// and returns the root's key, the winner's.
func (h *clockHeap) set(p int, k uint64) uint64 {
	t := h.tree
	i := len(h.clock) + p
	t[i] = k
	for ; i > 1; i >>= 1 {
		k = min(k, t[i^1])
		t[i>>1] = k
	}
	return k
}

// remove takes processor p out of the tree for the rest of the run;
// removed lists it from then on.
func (h *clockHeap) remove(p int) {
	h.set(p, emptyKey)
	h.gone = append(h.gone, int32(p))
}

// removed returns the processors taken out since the last reset.
func (h *clockHeap) removed() []int32 { return h.gone }

// fix restores the tree after processor p's clock changed.
func (h *clockHeap) fix(p int) { h.set(p, key(h.clock[p], p)) }

// rootStillMin restores the tree after the winner's clock grew and reports
// whether that processor kept the minimum (clock, proc) key. The run-ahead
// fast path calls this after every inline request: the executing strand's
// processor is the winner by construction, and it may keep running exactly
// while it stays the winner.
func (h *clockHeap) rootStillMin() bool {
	p := h.min()
	k := key(h.clock[p], p)
	return h.set(p, k) == k
}

// deque is a growable ring buffer of spawns: bottom (owner) end at tail,
// top (thief) end at head. Both ends are O(1); the old slice-based popTop
// shifted the whole queue with copy on every successful steal.
type deque struct {
	buf  []*spawn
	head uint64 // first live element
	tail uint64 // one past the last live element
}

func (d *deque) size() int { return int(d.tail - d.head) }

func (d *deque) grow() {
	newCap := 2 * len(d.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]*spawn, newCap)
	mask := uint64(len(d.buf) - 1)
	for i, j := d.head, uint64(0); i < d.tail; i, j = i+1, j+1 {
		buf[j] = d.buf[i&mask]
	}
	d.buf = buf
	d.tail -= d.head
	d.head = 0
}

func (d *deque) pushBottom(sp *spawn) {
	if d.size() == len(d.buf) {
		d.grow()
	}
	d.buf[d.tail&uint64(len(d.buf)-1)] = sp
	d.tail++
}

// popBottom removes and returns the bottom element, or nil when empty.
func (d *deque) popBottom() *spawn {
	if d.head == d.tail {
		return nil
	}
	d.tail--
	i := d.tail & uint64(len(d.buf)-1)
	sp := d.buf[i]
	d.buf[i] = nil
	return sp
}

// popBottomIf removes the bottom element iff it is sp.
func (d *deque) popBottomIf(sp *spawn) bool {
	if d.head == d.tail || d.buf[(d.tail-1)&uint64(len(d.buf)-1)] != sp {
		return false
	}
	d.popBottom()
	return true
}

// top returns the top (oldest) element without removing it, or nil when
// empty. Steal policies peek it to judge a victim's next-stolen task.
func (d *deque) top() *spawn {
	if d.head == d.tail {
		return nil
	}
	return d.buf[d.head&uint64(len(d.buf)-1)]
}

// popTop removes and returns the top (oldest) element, or nil when empty.
func (d *deque) popTop() *spawn {
	if d.head == d.tail {
		return nil
	}
	i := d.head & uint64(len(d.buf)-1)
	sp := d.buf[i]
	d.buf[i] = nil
	d.head++
	return sp
}

package rws

import "rwsfs/internal/machine"

// clockHeap is an indexed binary min-heap over processor clocks, keyed
// lexicographically by (clock, processor ID). The tie-break on processor ID
// reproduces exactly the selection of the old O(P) linear scan ("first
// processor with the minimum clock"), which matters for bit-for-bit
// determinism: the scheduling order drives RNG consumption. Clocks only move
// forward, so after stepping processor p a single siftDown of p restores the
// heap in O(log P). A parked processor (Engine.idleStep) leaves the heap.
type clockHeap struct {
	clock []machine.Tick
	heap  []int32 // heap[i] = processor at heap slot i
	pos   []int32 // pos[p] = heap slot of processor p
}

// reset restores the heap to the all-clocks-zero start state for p
// processors, reusing the backing arrays when they are large enough.
func (h *clockHeap) reset(p int) {
	if p <= cap(h.clock) {
		h.clock = h.clock[:p]
		h.heap = h.heap[:p]
		h.pos = h.pos[:p]
	} else {
		h.clock = make([]machine.Tick, p)
		h.heap = make([]int32, p)
		h.pos = make([]int32, p)
	}
	// All clocks start equal, so the identity arrangement is a valid heap
	// with the (clock, proc) order.
	for i := range h.heap {
		h.clock[i] = 0
		h.heap[i] = int32(i)
		h.pos[i] = int32(i)
	}
}

func (h *clockHeap) less(a, b int32) bool {
	ca, cb := h.clock[a], h.clock[b]
	return ca < cb || (ca == cb && a < b)
}

// min returns the processor with the smallest (clock, ID) key.
func (h *clockHeap) min() int { return int(h.heap[0]) }

// remove takes processor p out of the heap for the rest of the run. Removed
// processors wait past the heap's end, where removed lists them.
func (h *clockHeap) remove(p int) {
	i, last := h.pos[p], int32(len(h.heap)-1)
	h.swap(i, last)
	h.heap = h.heap[:last]
	if i < last {
		h.fix(int(h.heap[i]))
	}
}

// removed returns the processors taken out since the last reset.
func (h *clockHeap) removed() []int32 { return h.heap[len(h.heap):len(h.pos)] }

// fix restores the heap after processor p's clock changed. Clocks are
// monotone non-decreasing, so only a siftDown can be needed, but fix also
// sifts up defensively so it stays correct for arbitrary key changes.
func (h *clockHeap) fix(p int) {
	i := h.pos[p]
	if !h.siftDown(i) {
		h.siftUp(i)
	}
}

// rootStillMin restores heap order after the root processor's clock grew
// (clocks only increase, so a siftDown suffices) and reports whether that
// processor kept the minimum (clock, proc) key. The run-ahead fast path
// calls this after every inline request: the executing strand's processor
// is at the root by construction, and it may keep running exactly while it
// remains the minimum. The still-min case is the hot one, so it is decided
// with direct child comparisons before falling back to a full siftDown.
func (h *clockHeap) rootStillMin() bool {
	n := int32(len(h.heap))
	r := h.heap[0]
	if 1 < n && h.less(h.heap[1], r) {
		h.siftDown(0)
		return false
	}
	if 2 < n && h.less(h.heap[2], r) {
		h.siftDown(0)
		return false
	}
	return true
}

func (h *clockHeap) swap(i, j int32) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *clockHeap) siftDown(i int32) bool {
	n := int32(len(h.heap))
	moved := false
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		child := left
		if right := left + 1; right < n && h.less(h.heap[right], h.heap[left]) {
			child = right
		}
		if !h.less(h.heap[child], h.heap[i]) {
			return moved
		}
		h.swap(i, child)
		i = child
		moved = true
	}
}

func (h *clockHeap) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
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

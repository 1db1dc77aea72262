// Package exec models the execution stacks of Section 4 of the paper.
//
// Every task τ that is the original task or a stolen task owns an execution
// stack S_τ: a block-aligned region of simulated memory (Property 4.3) from
// which the segments σ_v of the fork/leaf nodes executed within τ's kernel
// are allocated. Segments are small (O(1) words for tree nodes, Θ(r) words
// for a size-r recursive task's locals), so successive segments share blocks,
// and freed space is re-used by later segments — precisely the behaviour that
// creates the bounded false sharing analyzed in Lemmas 4.3 and 4.4.
//
// Because parallel branches of a kernel can hold live segments at the same
// time (the path P_τ plus non-kernel children writing back results), segment
// lifetimes are not strictly LIFO. Stack therefore uses a lowest-address
// first-fit free list: live segments are disjoint, and freed space is re-used
// as eagerly as possible, maximizing the block re-use the paper analyzes.
package exec

import (
	"fmt"

	"rwsfs/internal/mem"
)

// Seg is an allocated segment on an execution stack.
type Seg struct {
	Base  mem.Addr
	Words int
}

// span is a free range [base, base+words).
type span struct {
	base  mem.Addr
	words int
}

// Stack is one execution stack S_τ: a fixed region with first-fit
// word-granular segment allocation inside it.
type Stack struct {
	base   mem.Addr
	words  int
	free   []span // sorted by base; adjacent spans coalesced
	inUse  int
	peak   int
	nAlloc int64
	// spanBuf is the initial backing of free; fork/leaf segment churn rarely
	// fragments a stack past a handful of spans, so most stacks never touch
	// the heap for their free list.
	spanBuf [6]span
}

// NewStack creates a stack over the region [base, base+words). The region
// must be block-aligned; the caller obtains it from mem.Allocator, which
// guarantees that (Property 4.3).
func NewStack(base mem.Addr, words int) *Stack {
	s := &Stack{}
	s.init(base, words)
	return s
}

func (s *Stack) init(base mem.Addr, words int) {
	if words <= 0 {
		panic(fmt.Sprintf("exec: stack of %d words", words))
	}
	s.base = base
	s.words = words
	s.free = s.spanBuf[:1:len(s.spanBuf)]
	s.free[0] = span{base, words}
	// A recycled Stack struct (Pool.Reset) must be indistinguishable from a
	// fresh one: the usage statistics restart with the region.
	s.inUse = 0
	s.peak = 0
	s.nAlloc = 0
}

// Base returns the region's first address.
func (s *Stack) Base() mem.Addr { return s.base }

// Words returns the region size.
func (s *Stack) Words() int { return s.words }

// InUse returns the words currently allocated.
func (s *Stack) InUse() int { return s.inUse }

// Peak returns the high-water mark of allocated words; tests compare it with
// the algorithm's declared path-space bound Sp(n) (Definition 4.6).
func (s *Stack) Peak() int { return s.peak }

// Allocations returns the total number of Alloc calls served.
func (s *Stack) Allocations() int64 { return s.nAlloc }

// Alloc returns the base of a words-long segment, choosing the lowest-address
// free span that fits (first fit). It panics if the stack overflows, which in
// this simulator indicates a task whose stack-size hint was too small.
func (s *Stack) Alloc(words int) Seg {
	if words <= 0 {
		panic(fmt.Sprintf("exec: Alloc(%d)", words))
	}
	for i := range s.free {
		if s.free[i].words >= words {
			seg := Seg{s.free[i].base, words}
			s.free[i].base += mem.Addr(words)
			s.free[i].words -= words
			if s.free[i].words == 0 {
				s.free = append(s.free[:i], s.free[i+1:]...)
			}
			s.inUse += words
			if s.inUse > s.peak {
				s.peak = s.inUse
			}
			s.nAlloc++
			return seg
		}
	}
	panic(fmt.Sprintf("exec: stack overflow: need %d words, %d free of %d (raise the fork stack hint)",
		words, s.words-s.inUse, s.words))
}

// Free returns a segment to the stack, coalescing with neighbours. The
// common case is last-in-first-out: seg ends where a free span begins, and
// that span grows down over it in place.
func (s *Stack) Free(seg Seg) {
	if seg.Words <= 0 {
		panic("exec: Free of empty segment")
	}
	end := seg.Base + mem.Addr(seg.Words)
	if seg.Base < s.base || end > s.base+mem.Addr(s.words) {
		panic(fmt.Sprintf("exec: Free of segment [%d,%d) outside stack [%d,%d)",
			seg.Base, end, s.base, s.base+mem.Addr(s.words)))
	}
	// i is the first free span above seg. A stack holds a handful of
	// spans, so a scan beats a binary search.
	i := 0
	for i < len(s.free) && s.free[i].base <= seg.Base {
		i++
	}
	// Overlap checks against neighbours guard double-frees.
	joinsPrev := false
	if i > 0 {
		prevEnd := s.free[i-1].base + mem.Addr(s.free[i-1].words)
		if prevEnd > seg.Base {
			panic("exec: Free overlaps a free span (double free?)")
		}
		joinsPrev = prevEnd == seg.Base
	}
	joinsNext := false
	if i < len(s.free) {
		if end > s.free[i].base {
			panic("exec: Free overlaps a free span (double free?)")
		}
		joinsNext = end == s.free[i].base
	}
	s.inUse -= seg.Words
	switch {
	case joinsNext:
		s.free[i].base = seg.Base
		s.free[i].words += seg.Words
		if joinsPrev {
			s.free[i-1].words += s.free[i].words
			s.free = append(s.free[:i], s.free[i+1:]...)
		}
	case joinsPrev:
		s.free[i-1].words += seg.Words
	default:
		s.free = append(s.free, span{})
		copy(s.free[i+1:], s.free[i:])
		s.free[i] = span{seg.Base, seg.Words}
	}
}

// Reset frees everything, returning the stack to a single free span.
func (s *Stack) Reset() {
	s.free = s.free[:0]
	s.free = append(s.free, span{s.base, s.words})
	s.inUse = 0
}

// FreeSpans returns a copy of the free list; for tests.
func (s *Stack) FreeSpans() []Seg {
	out := make([]Seg, len(s.free))
	for i, f := range s.free {
		out[i] = Seg{f.base, f.words}
	}
	return out
}

// Pool recycles stack regions by size class so a run with thousands of
// steals does not reserve unbounded address space. Recycling a region hands
// its blocks to a new task, which is what a real runtime's stack pool does;
// Property 4.3 (block-disjointness of live allocations) is preserved because
// a region is only recycled after its task completed.
//
// Free lists are kept in a dense slice indexed by size-class log2 (class
// minClass<<i at index i), not a map: Get/Put sit on the engine's steal hot
// path and the handful of classes a run touches makes the slice both smaller
// and hash-free.
type Pool struct {
	alloc *mem.Allocator
	free  [][]*Stack // free[i] holds stacks of class minClass << i
	slab  []Stack    // fresh Stack structs are carved from here
	// all tracks every Stack struct the pool ever carved, and structFree the
	// ones currently available for re-init: Reset moves all of them back so
	// the next run re-binds recycled structs to freshly allocated regions
	// instead of carving new ones.
	all        []*Stack
	structFree []*Stack
	created    int
	reused     int
}

// minClass is the smallest stack size class in words; classes are the
// powers of two from here up.
const minClass = 256

// NewPool returns a pool drawing fresh regions from alloc.
func NewPool(alloc *mem.Allocator) *Pool {
	return &Pool{alloc: alloc}
}

// sizeClass rounds words up to a power of two at least minClass and returns
// it with its free-list index (log2 of class/minClass).
func sizeClass(words int) (class, idx int) {
	class = minClass
	for class < words {
		class <<= 1
		idx++
	}
	return class, idx
}

// Get returns a reset stack with at least words capacity.
func (p *Pool) Get(words int) *Stack {
	class, idx := sizeClass(words)
	if idx < len(p.free) {
		if l := p.free[idx]; len(l) > 0 {
			s := l[len(l)-1]
			l[len(l)-1] = nil
			p.free[idx] = l[:len(l)-1]
			s.Reset()
			p.reused++
			return s
		}
	}
	base := p.alloc.Alloc(class)
	p.created++
	var s *Stack
	if n := len(p.structFree); n > 0 {
		s = p.structFree[n-1]
		p.structFree[n-1] = nil
		p.structFree = p.structFree[:n-1]
	} else {
		if len(p.slab) == 0 {
			p.slab = make([]Stack, 16)
		}
		s = &p.slab[0]
		p.slab = p.slab[1:]
		p.all = append(p.all, s)
	}
	s.init(base, class)
	return s
}

// Put returns a stack to the pool. The caller must not use it afterwards.
func (p *Pool) Put(s *Stack) {
	_, idx := sizeClass(s.words)
	for idx >= len(p.free) {
		p.free = append(p.free, nil)
	}
	p.free[idx] = append(p.free[idx], s)
}

// Stats reports how many regions were created fresh vs recycled.
func (p *Pool) Stats() (created, reused int) { return p.created, p.reused }

// Reset prepares the pool for another run over a reset allocator. The old
// regions' addresses are meaningless once the allocator restarts from zero,
// so every per-class free list empties and Get allocates regions exactly as
// a fresh pool would (keeping the created/reused stats bit-identical to a
// fresh run); the Stack structs themselves are recycled through the struct
// free list rather than re-carved.
func (p *Pool) Reset() {
	for i := range p.free {
		l := p.free[i]
		for j := range l {
			l[j] = nil
		}
		p.free[i] = l[:0]
	}
	p.structFree = append(p.structFree[:0], p.all...)
	p.created, p.reused = 0, 0
}

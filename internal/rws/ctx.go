package rws

import (
	"rwsfs/internal/exec"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// Ctx is the handle algorithm code uses to perform simulated work, memory
// accesses, stack allocation and forking. A Ctx is bound to one strand, or
// to an Engine.Record walk; it is only valid within the function it was
// passed to. On a strand, each method runs its op's protocol step
// (protocol.go), suspending the strand's coroutine whenever the step stops
// it; in a recording, it records its op and returns.
//
// Timing discipline: every word of simulated data an algorithm reads or
// writes must be covered by a *timed* access (Read/Write/ReadRange/WriteRange
// or the Load*/Store* value helpers). After a range has been timed, its
// values may be manipulated directly through Mem() without further charge —
// that models a base-case kernel streaming through in-cache data. Arithmetic
// cost is charged explicitly with Work; O(1) DAG-node overhead with Node.
// Raw Mem() manipulation relies on that discipline: covered ranges are only
// read or written by strands ordered around them by joins, so the fast
// path's deferred heap checks cannot change what race-free algorithms
// observe.
type Ctx struct {
	e *Engine
	s *strand
	// rec is the recorder of an Engine.Record walk; s is nil then.
	rec *recorder
}

// wait suspends the strand's coroutine after a step stopped it, until the
// driver resumes it as e.next.
func (c *Ctx) wait() {
	if !c.s.yield(struct{}{}) {
		panic(errStrandStopped)
	}
}

// work charges nodes DAG nodes plus t ticks of work.
func (c *Ctx) work(nodes int64, t machine.Tick) {
	if c.rec != nil {
		c.rec.work(uint32(nodes), t)
		return
	}
	for c.e.work(c.s, nodes, t) {
		c.wait()
	}
}

// access performs a kernel's timed access of n contiguous words at a,
// charging the coherence delay plus work extra ticks.
func (c *Ctx) access(a mem.Addr, n int, write bool, work machine.Tick) {
	if c.rec != nil {
		c.rec.access(a, n, write, work)
		return
	}
	for c.e.access(c.s, a, n, write, work) {
		c.wait()
	}
}

// order waits until the untimed shared operation that follows may apply.
func (c *Ctx) order() {
	for c.e.order(c.s) {
		c.wait()
	}
}

// PlaceLocal binds the blocks overlapping the n words at a to the
// processor executing this strand, modeling NUMA first-touch placement: a
// forker placing a join or result block here prices its socket peers'
// later fetches locally instead of inheriting provenance from whoever
// initialized neighbouring memory. Placement is untimed bookkeeping (like
// Alloc itself) and a no-op on the flat machine, so paper-configuration
// runs are unaffected; the range's contents still require timed accesses.
func (c *Ctx) PlaceLocal(a mem.Addr, n int) {
	if c.rec != nil {
		c.rec.place(a, n)
		return
	}
	c.order()
	c.e.mach.PlaceRange(c.s.proc, a, n)
}

// Mem returns the simulated memory for raw (untimed) value manipulation of
// already-timed ranges.
func (c *Ctx) Mem() *mem.Memory { return c.e.mach.Mem }

// B returns the machine's block size in words.
func (c *Ctx) B() int { return c.e.mach.B }

// Work charges t ticks of in-cache computation.
func (c *Ctx) Work(t machine.Tick) {
	if t <= 0 {
		return
	}
	c.work(0, t)
}

// Node charges the O(1) cost of executing one DAG node and counts it.
func (c *Ctx) Node() { c.work(1, 0) }

// Read performs a timed read of the word at a.
func (c *Ctx) Read(a mem.Addr) {
	c.access(a, 1, false, 0)
}

// Write performs a timed write of the word at a.
func (c *Ctx) Write(a mem.Addr) {
	c.access(a, 1, true, 0)
}

// ReadRange performs a timed read of n contiguous words starting at a; each
// distinct block in the range is charged once.
func (c *Ctx) ReadRange(a mem.Addr, n int) {
	if n <= 0 {
		return
	}
	c.access(a, n, false, 0)
}

// WriteRange performs a timed write of n contiguous words starting at a.
func (c *Ctx) WriteRange(a mem.Addr, n int) {
	if n <= 0 {
		return
	}
	c.access(a, n, true, 0)
}

// LoadInt is a timed read returning the word at a as an integer; it also
// charges one tick of work (the O(1) operation consuming the value).
func (c *Ctx) LoadInt(a mem.Addr) int64 {
	c.access(a, 1, false, 1)
	return c.e.mach.Mem.LoadInt(a)
}

// StoreInt is a timed write of v at a, charging one tick of work. The value
// lands after the charge, so it becomes visible exactly at the access's
// clock position: lower-clocked loads replayed by the charge's entry sync
// still see the old value, identically on the fast and lockstep paths.
func (c *Ctx) StoreInt(a mem.Addr, v int64) {
	c.access(a, 1, true, 1)
	c.e.mach.Mem.StoreInt(a, v)
}

// LoadFloat is a timed read returning the word at a as a float64.
func (c *Ctx) LoadFloat(a mem.Addr) float64 {
	c.access(a, 1, false, 1)
	return c.e.mach.Mem.LoadFloat(a)
}

// StoreFloat is a timed write of v at a; like StoreInt, the value lands
// after the charge.
func (c *Ctx) StoreFloat(a mem.Addr, v float64) {
	c.access(a, 1, true, 1)
	c.e.mach.Mem.StoreFloat(a, v)
}

// Alloc allocates a words-long segment on this task's execution stack S_τ.
// Allocation itself is untimed bookkeeping; accesses to the segment are timed
// like any other accesses. The addresses become fresh variables for the
// limited-access write tracker.
func (c *Ctx) Alloc(words int) exec.Seg {
	if c.rec != nil {
		return c.rec.alloc(words)
	}
	c.order()
	return c.e.alloc(c.s.task, words)
}

// Free returns a segment allocated with Alloc.
func (c *Ctx) Free(seg exec.Seg) {
	if c.rec != nil {
		c.rec.free(seg)
		return
	}
	c.order()
	c.s.task.stack.Free(seg)
}

// Fork runs left and right as the two sides of a series-parallel fork: right
// is pushed on the current processor's queue bottom (stealable), left runs
// now. Fork returns when both sides have completed; the continuation may be
// executing on a different processor than the call began on.
func (c *Ctx) Fork(left, right func(*Ctx)) {
	c.ForkHint(0, left, right)
}

// ForkHint is Fork with a stack-size hint (in words) for the stolen
// execution of right: if a thief steals it, the new task's execution stack
// has at least hint words. Pass 0 for the engine default.
func (c *Ctx) ForkHint(hint int, left, right func(*Ctx)) {
	var f frame
	c.fork(&f, hint, strandJob{fn: right})
	left(c)
	if c.decide(&f) {
		right(c)
	}
	c.join(&f)
}

// fork opens a fork whose right side is right.
func (c *Ctx) fork(f *frame, hint int, right strandJob) {
	if c.rec != nil {
		f.seg = c.rec.fork(hint)
		return
	}
	for c.e.fork(c.s, f, hint, right) {
		c.wait()
	}
}

// decide takes a fork's join decision and reports whether the caller runs
// the right side inline, as a recording always does.
func (c *Ctx) decide(f *frame) bool {
	if c.rec != nil {
		c.rec.popIf()
		return true
	}
	for c.e.decide(c.s, f) {
		c.wait()
	}
	return f.inline
}

// join closes a fork.
func (c *Ctx) join(f *frame) {
	if c.rec != nil {
		c.rec.join(f.seg)
		return
	}
	for c.e.join(c.s, f) {
		c.wait()
	}
}

// forkRange executes body over the leaf range [lo, hi) as a balanced binary
// fork tree without allocating per-node closures: the stealable right child
// is a (mid, hi) range spawn that re-enters this walker, and the left child
// is direct recursion.
func (c *Ctx) forkRange(lo, hi int, hintFn func(lo, hi int) int, body func(i int, c *Ctx)) {
	if hi-lo == 1 {
		body(lo, c)
		return
	}
	mid := lo + (hi-lo)/2
	h := 0
	if hintFn != nil {
		h = hintFn(mid, hi)
	}
	var f frame
	c.fork(&f, h, strandJob{body: body, lo: mid, hi: hi, hintFn: hintFn})
	c.forkRange(lo, mid, hintFn, body)
	if c.decide(&f) {
		c.forkRange(mid, hi, hintFn, body)
	}
	c.join(&f)
}

// ForkN runs body(0..k-1) as the leaves of a balanced binary fork tree, the
// realization of a v(n)-ary fork prescribed after Definition 4.5. Each
// internal node costs O(1) down and up.
func (c *Ctx) ForkN(k int, body func(i int, c *Ctx)) {
	c.ForkNHint(k, nil, body)
}

// ForkNHint is ForkN with a per-subrange stack hint: hint(lo, hi) returns the
// stack words a thief should allocate to execute leaves [lo, hi). nil means
// the engine default.
func (c *Ctx) ForkNHint(k int, hint func(lo, hi int) int, body func(i int, c *Ctx)) {
	if k <= 0 {
		return
	}
	c.forkRange(0, k, hint, body)
}

// SeqStep charges one O(1) node plus w ticks of work: convenience for
// sequencing nodes that do a fixed amount of in-cache computation.
func (c *Ctx) SeqStep(w machine.Tick) {
	c.Node()
	c.Work(w)
}

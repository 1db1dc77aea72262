package rws

import (
	"rwsfs/internal/exec"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// Ctx is the handle algorithm code uses to perform simulated work, memory
// accesses, stack allocation and forking. A Ctx is bound to one strand; it is
// only valid within the function the strand is executing.
//
// Timing discipline: every word of simulated data an algorithm reads or
// writes must be covered by a *timed* access (Read/Write/ReadRange/WriteRange
// or the Load*/Store* value helpers). After a range has been timed, its
// values may be manipulated directly through Mem() without further charge —
// that models a base-case kernel streaming through in-cache data. Arithmetic
// cost is charged explicitly with Work; O(1) DAG-node overhead with Node.
type Ctx struct {
	e    *Engine
	t    *Task
	s    *strand
	proc int
	// rec is the recorder of an Engine.Record run, nil otherwise. Kernel
	// calls append to it; the fork protocol's own charges do not.
	rec *recorder
}

// chargeWork advances this processor's clock by nodes DAG nodes, CostNode
// ticks each and counted, plus t work ticks. A kernel's charge is recorded
// when a recorder is attached; the fork protocol's own nodes are not. A
// pure work charge touches only this processor's clock and counters — no
// deque, no coherence state, no RNG — so its effect commutes with every
// other processor's action in the window it spans. On the fast path the
// min-check is therefore deferred: sync runs it at the next shared-state
// operation, where the skipped interleavings replay in one coalesced yield
// with the identical global order of all shared actions (and identical
// metrics). Raw Mem() manipulation relies on the timing discipline:
// covered ranges are only read or written by strands ordered around them
// by joins, so deferral cannot change what race-free algorithms observe.
func (c *Ctx) chargeWork(nodes int64, t machine.Tick, kernel bool) {
	e := c.e
	p := c.proc
	if kernel && c.rec != nil {
		c.rec.work(uint32(nodes), t)
	}
	if nodes != 0 {
		e.mach.Proc[p].NodesExecuted += nodes
		t += machine.Tick(nodes) * e.mach.CostNode
	}
	e.clock[p] += t
	e.mach.Proc[p].WorkTicks += t
	if e.fastPath {
		e.heapDirty = true
		return
	}
	c.afterCharge()
}

// sync re-checks the heap if pure work charges deferred it. Every operation
// that reads or writes state another processor can observe — timed memory
// accesses, stack segment allocation, deque traffic, finishing — must sync
// first so it applies in global (clock, proc) order.
func (c *Ctx) sync() {
	if c.e.heapDirty {
		c.e.heapDirty = false
		c.afterCharge()
	}
}

// chargeAccess performs a kernel's timed access of n contiguous words at a,
// charging the coherence delay plus work extra ticks; an attached recorder
// records it first. The entry sync orders the access correctly against
// every other processor (heap clean ⟹ this processor is the minimum). A
// write's post-charge min-check is deferred like a work charge's — nothing
// observes its clock advance until the next shared operation — while a
// read re-checks immediately so the values the caller goes on to consume
// reflect every lower-clocked write.
func (c *Ctx) chargeAccess(a mem.Addr, n int, write bool, work machine.Tick) {
	if c.rec != nil {
		c.rec.access(a, n, write, work)
	}
	c.sync()
	e := c.e
	p := c.proc
	// Engine.charge's body, spelled out: it does not inline, and this is
	// every kernel access's path.
	c.t.accesses += int64(n)
	e.clock[p] += e.mach.AccessRange(p, a, n, write, e.clock[p]) + work
	e.mach.Proc[p].WorkTicks += work
	if write && e.fastPath {
		e.heapDirty = true
		return
	}
	c.afterCharge()
}

// chargeFlag is chargeAccess for the fork protocol's timed access to a join
// flag: the forker's creation write and check read, and a finished child's
// report, which sets childDone in the same action so flag value and
// childDone stay consistent. The protocol is not kernel code, so it is
// never recorded.
func (c *Ctx) chargeFlag(jc *joinCell, write, report bool) {
	c.sync()
	e := c.e
	e.charge(c.t, c.proc, jc.addr, 1, write, 0)
	if report {
		jc.childDone = true
	}
	if write && e.fastPath {
		e.heapDirty = true
		return
	}
	c.afterCharge()
}

// afterCharge restores heap order after this processor's clock advanced.
// On the run-ahead fast path the strand keeps executing while its processor
// still holds the minimum (clock, proc) key — exactly the processor the
// engine loop would pick next — so no handoff of any kind happens. Otherwise
// it re-enters the scheduler.
func (c *Ctx) afterCharge() {
	stillMin := c.e.sched.rootStillMin()
	if stillMin && c.e.fastPath {
		return
	}
	c.yieldToScheduler()
}

// yieldToScheduler runs the engine loop in this strand's coroutine until its
// own processor is due again (return directly — no switch), or another
// strand must run (record it as the driver's next strand and yield until the
// driver resumes this one).
func (c *Ctx) yieldToScheduler() {
	e := c.e
	self := c.s
	if st := e.nextStrand(); st != self {
		e.handoffs++
		e.next = st
		if !self.yield(struct{}{}) {
			panic(errStrandStopped)
		}
	}
	c.proc = self.proc
}

// park blocks this strand on jc until the child's finisher unparks it; the
// strand gives up its processor and yields.
func (c *Ctx) park(jc *joinCell) {
	if jc.parked != nil {
		panic("rws: double park on one join")
	}
	jc.parked = c.s
	c.e.running[c.proc] = nil
	c.yieldToScheduler()
}

// unreplayable rejects a recording: the kernel read state that depends on
// the schedule, so its op stream may too.
func (c *Ctx) unreplayable(call string) {
	if c.rec != nil {
		c.rec.reject("the kernel calls " + call)
	}
}

// Proc returns the processor currently executing this strand. It can change
// across Fork and joins (usurpations).
func (c *Ctx) Proc() int {
	c.unreplayable("Ctx.Proc")
	return c.proc
}

// Socket returns the socket of the processor currently executing this
// strand (0 on the default flat topology). Topology-aware algorithms can
// use it to place data near their execution.
func (c *Ctx) Socket() int {
	c.unreplayable("Ctx.Socket")
	return c.e.mach.SocketOf(c.proc)
}

// SocketOf returns the socket the block containing a currently resides on —
// the socket of its last owner (fetcher or writer) — or -1 when the
// topology is flat or the block has never been touched or placed.
// Topology-aware algorithms compare it against Socket() to decide whether
// consuming a result would cross the interconnect.
func (c *Ctx) SocketOf(a mem.Addr) int {
	c.unreplayable("Ctx.SocketOf")
	// Provenance is shared state: order the read like any shared operation
	// so lower-clocked owners' moves are visible first, identically on the
	// fast and lockstep paths.
	c.sync()
	own := c.e.mach.BlockOwner(a)
	if own < 0 {
		return -1
	}
	return c.e.mach.SocketOf(own)
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
	}
	// Ownership is read by every other processor's fetch pricing; order the
	// placement like any shared operation.
	c.sync()
	c.e.mach.PlaceRange(c.proc, a, n)
}

// Task returns the task (stolen unit) whose kernel this strand belongs to.
func (c *Ctx) Task() *Task {
	c.unreplayable("Ctx.Task")
	return c.t
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
	c.chargeWork(0, t, true)
}

// Node charges the O(1) cost of executing one DAG node and counts it.
func (c *Ctx) Node() { c.chargeWork(1, 0, true) }

// node charges a fork or join node, which the fork's recorded structural
// ops already imply.
func (c *Ctx) node() { c.chargeWork(1, 0, false) }

// Read performs a timed read of the word at a.
func (c *Ctx) Read(a mem.Addr) {
	c.chargeAccess(a, 1, false, 0)
}

// Write performs a timed write of the word at a.
func (c *Ctx) Write(a mem.Addr) {
	c.chargeAccess(a, 1, true, 0)
}

// ReadRange performs a timed read of n contiguous words starting at a; each
// distinct block in the range is charged once.
func (c *Ctx) ReadRange(a mem.Addr, n int) {
	if n <= 0 {
		return
	}
	c.chargeAccess(a, n, false, 0)
}

// WriteRange performs a timed write of n contiguous words starting at a.
func (c *Ctx) WriteRange(a mem.Addr, n int) {
	if n <= 0 {
		return
	}
	c.chargeAccess(a, n, true, 0)
}

// LoadInt is a timed read returning the word at a as an integer; it also
// charges one tick of work (the O(1) operation consuming the value).
func (c *Ctx) LoadInt(a mem.Addr) int64 {
	c.chargeAccess(a, 1, false, 1)
	return c.e.mach.Mem.LoadInt(a)
}

// StoreInt is a timed write of v at a, charging one tick of work. The value
// lands after the charge, so it becomes visible exactly at the access's
// clock position: lower-clocked loads replayed by the charge's entry sync
// still see the old value, identically on the fast and lockstep paths.
func (c *Ctx) StoreInt(a mem.Addr, v int64) {
	c.chargeAccess(a, 1, true, 1)
	c.e.mach.Mem.StoreInt(a, v)
}

// LoadFloat is a timed read returning the word at a as a float64.
func (c *Ctx) LoadFloat(a mem.Addr) float64 {
	c.chargeAccess(a, 1, false, 1)
	return c.e.mach.Mem.LoadFloat(a)
}

// StoreFloat is a timed write of v at a; like StoreInt, the value lands
// after the charge.
func (c *Ctx) StoreFloat(a mem.Addr, v float64) {
	c.chargeAccess(a, 1, true, 1)
	c.e.mach.Mem.StoreFloat(a, v)
}

// Alloc allocates a words-long segment on this task's execution stack S_τ.
// Allocation itself is untimed bookkeeping; accesses to the segment are timed
// like any other accesses. The addresses become fresh variables for the
// limited-access write tracker.
func (c *Ctx) Alloc(words int) exec.Seg {
	seg := c.alloc(words)
	if c.rec != nil {
		c.rec.alloc(seg)
	}
	return seg
}

// alloc is Alloc unrecorded; the fork prologue's join-flag segment uses it.
func (c *Ctx) alloc(words int) exec.Seg {
	// The stack is shared among this task's strands and first-fit addresses
	// depend on allocation order, so order it like any shared operation.
	c.sync()
	seg := c.t.stack.Alloc(words)
	c.e.mach.RetireRange(seg.Base, seg.Words)
	return seg
}

// Free returns a segment allocated with Alloc.
func (c *Ctx) Free(seg exec.Seg) {
	if c.rec != nil {
		c.rec.free(seg)
	}
	c.free(seg)
}

// free is Free unrecorded.
func (c *Ctx) free(seg exec.Seg) {
	c.sync()
	c.t.stack.Free(seg)
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
	sp, jc, seg := c.forkPrologue(hint)
	sp.fn = right
	c.pushSpawn(sp)

	left(c)

	c.forkEpilogue(sp, jc, seg)
}

// forkPrologue performs the fork node's shared entry sequence: the O(1) fork
// node, the join-flag segment on this task's stack (the "hidden variable for
// reporting the completion of a subtask", Sec. 6.1) with its timed creation
// write, and a pooled spawn bound to this task's kernel. The caller fills in
// the spawn's payload and pushes it.
func (c *Ctx) forkPrologue(hint int) (*spawn, *joinCell, exec.Seg) {
	if c.rec != nil {
		c.rec.fork(hint)
	}
	c.node() // the fork node's O(1) work
	seg := c.alloc(1)
	jc := c.e.getJoin(seg.Base)
	c.chargeFlag(jc, true, false)
	sp := c.e.getSpawn()
	sp.task = c.t
	sp.jc = jc
	sp.stackHint = hint
	return sp, jc, seg
}

// forkEpilogue joins a fork after the left side returned: pop-and-run the
// right side inline if nobody consumed the spawn, otherwise check the join
// flag and park until the consumer's strand reports. The spawn is recycled
// here in both branches — any consumer copied its fields out when it popped,
// and deferring recycling to this point keeps popBottomIf's pointer identity
// check sound. The join cell's releases follow the package comment's
// lifecycle.
func (c *Ctx) forkEpilogue(sp *spawn, jc *joinCell, seg exec.Seg) {
	// The pop must see the deque as of this strand's current clock: thieves
	// with earlier clocks get their chance at sp first.
	c.sync()
	if c.e.popBottomIf(c.proc, sp) {
		// Not stolen: execute right inline as part of this kernel, then
		// report its completion on the join flag.
		if c.rec != nil {
			c.rec.popIf()
		}
		fn, body, lo, hi, hintFn := sp.fn, sp.body, sp.lo, sp.hi, sp.hintFn
		c.e.putSpawn(sp)
		if fn != nil {
			fn(c)
		} else {
			c.forkRange(lo, hi, hintFn, body)
		}
		if c.rec != nil {
			c.rec.join()
		}
		c.chargeFlag(jc, true, true)
		// No child strand ever existed, so both join-cell holds drop here.
		c.e.putJoin(jc)
	} else {
		// right was stolen (or picked up by an idle processor of ours).
		c.e.putSpawn(sp)
		// Check the join flag; if the child has not finished, park: the
		// child's finisher will continue this kernel, possibly usurping.
		c.chargeFlag(jc, false, false)
		if !jc.childDone {
			c.park(jc)
		}
		c.e.releaseJoin(jc)
	}
	c.node()    // the join node's O(1) work
	c.free(seg) // synced: the first-fit free list is shared task state
}

// pushSpawn makes sp stealable. The deque is shared state: thieves with
// earlier clocks must get their look at it before the push lands.
func (c *Ctx) pushSpawn(sp *spawn) {
	c.sync()
	c.e.pushBottom(c.proc, sp)
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
	sp, jc, seg := c.forkPrologue(h)
	sp.body = body
	sp.lo = mid
	sp.hi = hi
	sp.hintFn = hintFn
	c.pushSpawn(sp)

	c.forkRange(lo, mid, hintFn, body)

	c.forkEpilogue(sp, jc, seg)
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

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
}

// chargeWork advances this processor's clock by t work ticks. A pure work
// charge touches only this processor's clock and counters — no deque, no
// coherence state, no RNG — so its effect commutes with every other
// processor's action in the window it spans. On the fast path the min-check
// is therefore deferred: sync runs it at the next shared-state operation,
// where the skipped interleavings replay in one coalesced yield with the
// identical global order of all shared actions (and identical metrics).
// Raw Mem() manipulation relies on the timing discipline: covered ranges
// are only read or written by strands ordered around them by joins, so
// deferral cannot change what race-free algorithms observe.
func (c *Ctx) chargeWork(t machine.Tick) {
	e := c.e
	p := c.proc
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

// chargeAccess performs a timed access of n contiguous words at a, charging
// the coherence delay plus work extra ticks. The entry sync orders the
// access correctly against every other processor (heap clean ⟹ this
// processor is the minimum). A write's post-charge min-check is deferred
// like a work charge's — nothing observes its clock advance until the next
// shared operation — while a read re-checks immediately so the values the
// caller goes on to consume reflect every lower-clocked write.
func (c *Ctx) chargeAccess(a mem.Addr, n int, write bool, work machine.Tick) {
	c.sync()
	e := c.e
	p := c.proc
	c.t.accesses += int64(n)
	delay := e.mach.AccessRange(p, a, n, write, e.clock[p])
	e.clock[p] += delay + work
	e.mach.Proc[p].WorkTicks += work
	if write && e.fastPath {
		e.heapDirty = true
		return
	}
	c.afterCharge()
}

// reportChildDone performs the completion report of a spawned child: a timed
// write to the join flag on the parent task's stack, then the engine-visible
// mark. Doing both in one action keeps flag value and childDone consistent.
func (c *Ctx) reportChildDone(jc *joinCell) {
	c.sync()
	e := c.e
	p := c.proc
	c.t.accesses++
	e.clock[p] += e.mach.AccessRange(p, jc.addr, 1, true, e.clock[p])
	jc.childDone = true
	if e.fastPath {
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

// finishStrand retires this strand after its job's body and join report
// completed: it releases the strand (and, for a stolen task's last strand,
// the task and its stack) back to the pools, unparks the forking strand if
// it waited on jc, and records the strand the driver resumes next — none
// when the computation is done, the next runnable strand otherwise.
func (c *Ctx) finishStrand(jc *joinCell) {
	// Lower-clocked processors must act before the finish becomes visible
	// (root finish especially: done cuts their remaining actions off).
	c.sync()
	e := c.e
	st := c.s
	p := c.proc
	e.running[p] = nil
	task := st.task
	task.liveStrands--
	e.putStrand(st)
	if jc == nil {
		// Root strand finished: computation complete.
		if task != e.root {
			panic("rws: non-root strand finished without a join")
		}
		e.done = true
		e.finishTime = e.clock[p]
		return
	}
	if task.stolen && task.liveStrands == 0 {
		e.stolenSizes = append(e.stolenSizes, task.accesses)
		if e.audit != nil {
			e.audit.finish(task)
		}
		e.pool.Put(task.stack)
		e.putTask(task)
	}
	parked := jc.parked
	jc.parked = nil
	e.releaseJoin(jc)
	if parked != nil {
		if parked.proc != p {
			e.usurpations++
			e.mach.Proc[p].Usurpations++
		}
		parked.proc = p
		e.running[p] = parked
	}
	if e.done {
		// Draining: the root already finished; return to the driver.
		return
	}
	if e.next = e.nextStrand(); e.next != st {
		e.handoffs++
	}
}

// Proc returns the processor currently executing this strand. It can change
// across Fork and joins (usurpations).
func (c *Ctx) Proc() int { return c.proc }

// Socket returns the socket of the processor currently executing this
// strand (0 on the default flat topology). Topology-aware algorithms can
// use it to place data near their execution.
func (c *Ctx) Socket() int { return c.e.mach.SocketOf(c.proc) }

// SocketOf returns the socket the block containing a currently resides on —
// the socket of its last owner (fetcher or writer) — or -1 when the
// topology is flat or the block has never been touched or placed.
// Topology-aware algorithms compare it against Socket() to decide whether
// consuming a result would cross the interconnect.
func (c *Ctx) SocketOf(a mem.Addr) int {
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
	// Ownership is read by every other processor's fetch pricing; order the
	// placement like any shared operation.
	c.sync()
	c.e.mach.PlaceRange(c.proc, a, n)
}

// Task returns the task (stolen unit) whose kernel this strand belongs to.
func (c *Ctx) Task() *Task { return c.t }

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
	c.chargeWork(t)
}

// Node charges the O(1) cost of executing one DAG node and counts it.
func (c *Ctx) Node() {
	c.e.mach.Proc[c.proc].NodesExecuted++
	c.chargeWork(c.e.mach.CostNode)
}

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
	// The stack is shared among this task's strands and first-fit addresses
	// depend on allocation order, so order it like any shared operation.
	c.sync()
	seg := c.t.stack.Alloc(words)
	c.e.mach.RetireRange(seg.Base, seg.Words)
	return seg
}

// Free returns a segment allocated with Alloc.
func (c *Ctx) Free(seg exec.Seg) {
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
	c.Node() // the fork node's O(1) work
	seg := c.Alloc(1)
	jc := c.e.getJoin(seg.Base)
	c.Write(jc.addr)
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
		fn, body, lo, hi, hintFn := sp.fn, sp.body, sp.lo, sp.hi, sp.hintFn
		c.e.putSpawn(sp)
		if fn != nil {
			fn(c)
		} else {
			c.forkRange(lo, hi, hintFn, body)
		}
		c.reportChildDone(jc)
		// No child strand ever existed, so both join-cell holds drop here.
		c.e.putJoin(jc)
	} else {
		// right was stolen (or picked up by an idle processor of ours).
		c.e.putSpawn(sp)
		// Check the join flag; if the child has not finished, park: the
		// child's finisher will continue this kernel, possibly usurping.
		c.Read(jc.addr)
		if !jc.childDone {
			c.park(jc)
		}
		c.e.releaseJoin(jc)
	}
	c.Node()    // the join node's O(1) work
	c.Free(seg) // via Ctx.Free: the first-fit free list is shared task state
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

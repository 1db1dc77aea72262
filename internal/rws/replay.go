package rws

import (
	"fmt"

	"rwsfs/internal/exec"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// replayFrame is a fork a replayed strand opened and has not joined: the
// spawn until the join decision, the join cell, the join flag's segment,
// and whether the right side ran inline.
type replayFrame struct {
	sp     *spawn
	jc     *joinCell
	seg    exec.Seg
	inline bool
}

// Replay runs a recorded op stream under the engine's Config and returns
// the Result the coroutine engine would return for the recorded kernel —
// bit for bit, as RunLean: PerProc is nil. Call it on a new or Reset engine
// instead of allocating the kernel's inputs; Replay places the root stack
// where the recording found it, with the recorded size, so the engine's
// Machine must have the recorded block size. Replay executes no kernel
// code and touches no simulated values: each strand is a cursor over the
// stream, run by the same driver loop, scheduler, pools and machine as a
// coroutine run. It always runs ahead; Config.DisableFastPath, which
// changes no result, does not apply.
func (e *Engine) Replay(tr *Trace) Result {
	e.checkFresh("Replay")
	if tr.b != e.mach.B {
		panic(fmt.Sprintf("rws: trace recorded at B=%d replayed at B=%d", tr.b, e.mach.B))
	}
	switch m := e.mach.Alloc.Mark(); {
	case m > tr.mark:
		panic("rws: Engine.Replay after allocating past the recording's inputs")
	case m < tr.mark:
		e.mach.Alloc.Alloc(int(tr.mark - m))
	}
	if cap(e.segs) < tr.segs {
		e.segs = make([]mem.Addr, tr.segs)
	}
	e.segs = e.segs[:tr.segs]
	e.trace = tr
	e.execute(tr.rootStackWords, strandJob{lo: 0, hi: tr.n})
	e.trace = nil
	return e.collect(false)
}

// Replayed strands follow the coroutine path's Ctx code step for step. A
// handoff can only happen at a sync or after a read, and the strand then
// stops with e.next set; st.phase records which step of the current op it
// resumes at. Pure work leaves the heap dirty, as on the fast path.

// handoff settles the heap after st's processor advanced: it keeps running
// while it holds the minimum, otherwise the engine loop runs, and when
// another strand is due handoff records it as next and reports true.
func (e *Engine) handoff(st *strand) bool {
	if e.sched.rootStillMin() {
		return false
	}
	next := e.nextStrand()
	if next == st {
		return false
	}
	e.handoffs++
	e.next = next
	return true
}

// sync is Ctx.sync for a replayed strand.
func (e *Engine) sync(st *strand) bool {
	if !e.heapDirty {
		return false
	}
	e.heapDirty = false
	return e.handoff(st)
}

// work charges t ticks to p, deferring the heap check.
func (e *Engine) work(p int, t machine.Tick) {
	e.clock[p] += t
	e.mach.Proc[p].WorkTicks += t
	e.heapDirty = true
}

// node charges a fork or join node to p.
func (e *Engine) node(p int) {
	e.mach.Proc[p].NodesExecuted++
	e.work(p, e.mach.CostNode)
}

// report is a child's Ctx.chargeFlag report after its sync: the timed
// write of the join flag, then the engine-visible mark.
func (e *Engine) report(st *strand, jc *joinCell) {
	e.charge(st.task, st.proc, jc.addr, 1, true, 0)
	jc.childDone = true
	e.heapDirty = true
}

// opAddr resolves an access or placement op's address.
func (e *Engine) opAddr(o *op) mem.Addr {
	if o.k&opStack != 0 {
		return e.segs[o.x] + mem.Addr(o.y)
	}
	return mem.Addr(o.x)
}

// replayStrand advances st through its op range until it hands off, parks
// or finishes; e.next then names the strand the driver runs next.
func (e *Engine) replayStrand(st *strand) {
	tr := e.trace
	for st.pc < st.end {
		o := tr.at(st.pc)
		switch o.code() {
		case opWork:
			p := st.proc
			nodes := int64(o.count())
			e.mach.Proc[p].NodesExecuted += nodes
			e.work(p, machine.Tick(uint64(o.x)|uint64(o.y)<<32)+machine.Tick(nodes)*e.mach.CostNode)
			st.pc++
		case opAccess, opRun:
			if st.phase == 0 && e.sync(st) {
				st.phase = 1
				return
			}
			st.phase = 0
			a, n := e.opAddr(o), int(o.count())
			if o.code() == opRun {
				a, n = a+mem.Addr(o.runStride()*int64(st.sub)), 1
				if st.sub++; st.sub == o.runLen() {
					st.sub = 0
					st.pc++
				}
			} else {
				st.pc++
			}
			var work machine.Tick
			if o.k&opLoad != 0 {
				work = 1
			}
			write := o.k&opWrite != 0
			e.charge(st.task, st.proc, a, n, write, work)
			if write {
				e.heapDirty = true
			} else if e.handoff(st) {
				return
			}
		case opAlloc, opFree, opPlace:
			if st.phase == 0 && e.sync(st) {
				st.phase = 1
				return
			}
			st.phase = 0
			switch o.code() {
			case opAlloc:
				seg := st.task.stack.Alloc(int(o.x))
				e.mach.RetireRange(seg.Base, seg.Words)
				e.segs[o.y] = seg.Base
			case opFree:
				st.task.stack.Free(exec.Seg{Base: e.segs[o.x], Words: int(o.y)})
			default:
				if n := int(o.count()); n > 0 {
					e.mach.PlaceRange(st.proc, e.opAddr(o), n)
				}
			}
			st.pc++
		case opFork:
			if e.replayFork(st, o) {
				return
			}
		case opPopIf:
			if e.replayPopIf(st, o) {
				return
			}
		case opJoin:
			if e.replayJoin(st) {
				return
			}
		}
	}
	e.replayFinish(st)
}

// replayFork is Ctx.forkPrologue plus pushSpawn: the fork node, the join
// flag's segment and its timed creation write, and the spawn of the right
// side, whose op range runs from after the pop-if to the join.
func (e *Engine) replayFork(st *strand, o *op) bool {
	if st.phase == 0 {
		e.node(st.proc)
		if e.sync(st) {
			st.phase = 1
			return true
		}
	}
	if st.phase <= 1 {
		seg := st.task.stack.Alloc(1)
		e.mach.RetireRange(seg.Base, seg.Words)
		jc := e.getJoin(seg.Base)
		e.charge(st.task, st.proc, jc.addr, 1, true, 0)
		e.heapDirty = true
		sp := e.getSpawn()
		sp.task = st.task
		sp.jc = jc
		sp.stackHint = int(o.x)
		sp.lo, sp.hi = int(o.y)+1, int(e.trace.at(int(o.y)).x)
		st.frames = append(st.frames, replayFrame{sp: sp, jc: jc, seg: seg})
		if e.sync(st) {
			st.phase = 2
			return true
		}
	}
	e.pushBottom(st.proc, st.frames[len(st.frames)-1].sp)
	st.phase = 0
	st.pc++
	return false
}

// replayPopIf is the join decision of Ctx.forkEpilogue: continue into the
// right side inline when the spawn is still at the deque bottom; otherwise
// read the join flag, park until the child reports if it has not, and skip
// to the join.
func (e *Engine) replayPopIf(st *strand, o *op) bool {
	f := &st.frames[len(st.frames)-1]
	if st.phase == 0 {
		if e.sync(st) {
			st.phase = 1
			return true
		}
		st.phase = 1
	}
	if st.phase == 1 {
		inline := e.popBottomIf(st.proc, f.sp)
		e.putSpawn(f.sp)
		f.sp = nil
		if inline {
			f.inline = true
			st.phase = 0
			st.pc++
			return false
		}
		e.charge(st.task, st.proc, f.jc.addr, 1, false, 0)
		st.phase = 2
		if e.handoff(st) {
			return true
		}
	}
	if st.phase == 2 && !f.jc.childDone {
		f.jc.parked = st
		e.running[st.proc] = nil
		st.phase = 3
		e.handoffs++
		e.next = e.nextStrand()
		return true
	}
	e.releaseJoin(f.jc)
	f.jc = nil
	st.phase = 0
	st.pc = int(o.x)
	return false
}

// replayJoin is the rest of Ctx.forkEpilogue: an inline right side reports
// on the join flag and recycles the cell; then the join node, and the flag
// segment's release.
func (e *Engine) replayJoin(st *strand) bool {
	f := &st.frames[len(st.frames)-1]
	if st.phase == 0 {
		if f.inline && e.sync(st) {
			st.phase = 1
			return true
		}
		st.phase = 1
	}
	if st.phase == 1 {
		if f.inline {
			e.report(st, f.jc)
			e.putJoin(f.jc)
			f.jc = nil
		}
		e.node(st.proc)
		if e.sync(st) {
			st.phase = 2
			return true
		}
	}
	st.task.stack.Free(f.seg)
	st.frames = st.frames[:len(st.frames)-1]
	st.phase = 0
	st.pc++
	return false
}

// replayFinish ends st's job as Engine.runJob does: a spawned side reports
// on its join flag, then the strand syncs and finishes.
func (e *Engine) replayFinish(st *strand) {
	jc := st.job.jc
	if st.phase == 0 {
		if jc != nil && e.sync(st) {
			st.phase = 1
			return
		}
		st.phase = 1
	}
	if st.phase == 1 {
		if jc != nil {
			e.report(st, jc)
		}
		if e.sync(st) {
			st.phase = 2
			return
		}
	}
	e.finishStrand(st, jc)
}

package rws

import (
	"rwsfs/internal/exec"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// The protocol's steps, driven by coroutine strands (ctx.go) and replayed
// strands (replay.go) alike. A step returns true when the strand must stop
// so the driver can resume e.next; st.phase keeps where the step resumes
// when called again, and a step that returns false leaves it 0.

// frame is a fork its strand opened and has not joined: the spawn until
// the join decision, the join cell, the join flag's segment, and whether
// the right side runs inline. A coroutine strand keeps it on the kernel's
// stack, a replayed strand in st.frames; a recording uses only seg.
type frame struct {
	sp     *spawn
	jc     *joinCell
	seg    exec.Seg
	inline bool
}

// pause records the phase st's step resumes at and reports that st stops.
func (st *strand) pause(phase uint8) bool {
	st.phase = phase
	return true
}

// handoff settles the heap after st's processor advanced: st keeps running
// while its processor holds the minimum (clock, proc) key. Otherwise the
// engine loop runs idle processors' actions inline until a strand is due,
// and when that is another strand, handoff makes it e.next and reports
// true.
func (e *Engine) handoff(st *strand) bool {
	e.heapDirty = false
	if e.sched.rootStillMin() {
		return false
	}
	next := e.nextStrand()
	if next == st {
		return false
	}
	e.stats.Handoffs++
	e.next = next
	return true
}

// sync runs the heap check that deferred charges left pending. Every
// operation that reads or writes state another processor can observe —
// timed accesses, stack segments, placement, deque traffic, finishing —
// syncs first so it applies in global (clock, proc) order.
func (e *Engine) sync(st *strand) bool {
	return e.heapDirty && e.handoff(st)
}

// settle follows a charge to st's processor. A read hands off at once, so
// the values a kernel goes on to consume reflect every lower-clocked
// write. A work charge or a write changes nothing another processor
// observes before the next shared operation, so the fast path defers its
// check to the next sync, which replays the skipped interleavings in the
// same global order; Config.DisableFastPath hands off at once.
func (e *Engine) settle(st *strand, deferrable bool) bool {
	if deferrable && e.fastPath {
		e.heapDirty = true
		return false
	}
	return e.handoff(st)
}

// tick charges p nodes DAG nodes, CostNode ticks each and counted, plus t
// ticks of work. It touches only p's clock and counters — no deque, no
// coherence state, no RNG.
func (e *Engine) tick(p int, nodes int64, t machine.Tick) {
	pc := &e.mach.Proc[p]
	pc.NodesExecuted += nodes
	t += machine.Tick(nodes) * e.mach.CostNode
	e.clock[p] += t
	pc.WorkTicks += t
}

// work is a kernel's Work and Node charges.
func (e *Engine) work(st *strand, nodes int64, t machine.Tick) bool {
	if st.phase != 0 { // stopped after the charge
		st.phase = 0
		return false
	}
	e.tick(st.proc, nodes, t)
	return e.settle(st, true) && st.pause(1)
}

// access is a kernel's timed access of n contiguous words at a: the
// coherence delay plus work extra ticks, after a sync orders it against
// every other processor.
func (e *Engine) access(st *strand, a mem.Addr, n int, write bool, work machine.Tick) bool {
	switch st.phase {
	case 0:
		if e.sync(st) {
			return st.pause(1)
		}
	case 2: // stopped after the charge; a replay cursor skips this re-entry
		st.phase = 0
		return false
	}
	st.phase = 0
	// Engine.charge's body, spelled out: it does not inline, and this is
	// every kernel access's path.
	p := st.proc
	st.task.accesses += int64(n)
	e.clock[p] += e.mach.AccessRange(p, a, n, write, e.clock[p]) + work
	e.mach.Proc[p].WorkTicks += work
	return e.settle(st, write) && st.pause(2)
}

// order stops st until the untimed shared operation its caller performs
// next may apply: Alloc and Free, whose first-fit addresses depend on the
// order of operations on a task's shared stack, and PlaceLocal, whose
// block ownership prices other processors' fetches.
func (e *Engine) order(st *strand) bool {
	if st.phase != 0 { // stopped at the sync
		st.phase = 0
		return false
	}
	return e.sync(st) && st.pause(1)
}

// alloc allocates a words-long segment on t's stack. Its addresses become
// fresh variables for the limited-access write tracker.
func (e *Engine) alloc(t *Task, words int) exec.Seg {
	seg := t.stack.Alloc(words)
	e.mach.RetireRange(seg.Base, seg.Words)
	return seg
}

// fork opens a fork: the O(1) fork node, the join flag on st's task stack
// (the "hidden variable for reporting the completion of a subtask", Sec.
// 6.1) with its timed creation write, and the right side's spawn, pushed
// at the deque bottom where thieves can take it. right is the spawn's job:
// a closure or a leaf range, or in a replay the right side's op range.
// The node's and the write's deferred checks fall due at once, since the
// next action is a shared one.
func (e *Engine) fork(st *strand, f *frame, hint int, right strandJob) bool {
	switch st.phase {
	case 0:
		e.tick(st.proc, 1, 0)
		if e.handoff(st) {
			return st.pause(1)
		}
		fallthrough
	case 1:
		f.seg = e.alloc(st.task, 1)
		f.jc = e.getJoin(f.seg.Base)
		e.charge(st.task, st.proc, f.jc.addr, 1, true, 0)
		f.sp = e.getSpawn()
		f.sp.strandJob = right
		f.sp.task, f.sp.jc, f.sp.stackHint = st.task, f.jc, hint
		if e.handoff(st) {
			return st.pause(2)
		}
		fallthrough
	case 2:
		e.pushBottom(st.proc, f.sp)
	}
	st.phase = 0
	return false
}

// decide is the join decision once the left side returned. If the spawn
// is still at the deque bottom, the strand pops it and sets f.inline: the
// caller runs the right side itself. Otherwise a thief or an idle pop took
// it: the strand reads the join flag and, if the child has not reported,
// parks until the child's finisher continues it, possibly on another
// processor (a usurpation). The spawn is recycled here in both branches:
// a consumer copied its job out when it popped it, and holding the spawn
// until now keeps popBottomIf's identity check sound.
func (e *Engine) decide(st *strand, f *frame) bool {
	switch st.phase {
	case 0:
		if e.sync(st) {
			return st.pause(1)
		}
		fallthrough
	case 1:
		f.inline = e.popBottomIf(st.proc, f.sp)
		e.putSpawn(f.sp)
		if f.inline {
			break
		}
		e.charge(st.task, st.proc, f.jc.addr, 1, false, 0)
		if e.handoff(st) {
			return st.pause(2)
		}
		fallthrough
	case 2:
		if !f.jc.childDone {
			f.jc.parked = st
			e.running[st.proc] = nil
			e.stats.Handoffs++
			e.next = e.nextStrand()
			return st.pause(3)
		}
		fallthrough
	case 3:
		e.releaseJoin(f.jc)
	}
	st.phase = 0
	return false
}

// join closes a fork after its right side ran. An inline right side
// reports on the join flag, and since no child strand ever existed, both
// of the join cell's holds drop here. Then come the O(1) join node and the
// release of the flag's segment.
func (e *Engine) join(st *strand, f *frame) bool {
	switch st.phase {
	case 0:
		if f.inline && e.sync(st) {
			return st.pause(1)
		}
		fallthrough
	case 1:
		if f.inline {
			e.report(st, f.jc)
			e.putJoin(f.jc)
			if e.settle(st, true) {
				return st.pause(2)
			}
		}
		fallthrough
	case 2:
		e.tick(st.proc, 1, 0)
		if e.handoff(st) {
			return st.pause(3)
		}
		fallthrough
	case 3:
		st.task.stack.Free(f.seg)
	}
	st.phase = 0
	return false
}

// report is a child's timed write of its join flag. It marks the child
// done in the same action, so the flag's value and childDone agree.
func (e *Engine) report(st *strand, jc *joinCell) {
	e.charge(st.task, st.proc, jc.addr, 1, true, 0)
	jc.childDone = true
}

// finish ends st's job. A spawned side reports on its parent's join flag,
// a timed write to the parent task's stack and the false-sharing channel.
// Then, once lower-clocked processors have acted, finishStrand retires the
// strand and names the strand the driver resumes next. The root's finish
// needs that order too: done cuts the other processors' actions off.
func (e *Engine) finish(st *strand, jc *joinCell) bool {
	switch st.phase {
	case 0:
		if jc != nil && e.sync(st) {
			return st.pause(1)
		}
		fallthrough
	case 1:
		if jc != nil {
			e.report(st, jc)
			if e.settle(st, true) {
				return st.pause(2)
			}
		}
		fallthrough
	case 2:
		if e.sync(st) {
			return st.pause(3)
		}
	}
	st.phase = 0
	e.finishStrand(st, jc)
	return false
}

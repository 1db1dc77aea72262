package rws

import (
	"fmt"

	"rwsfs/internal/exec"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// Replay runs a recorded op stream under the engine's Config and returns
// the Result the coroutine engine's Run would return for the recorded
// kernel, bit for bit; CopyCounters and Stats then read what they would
// after that Run. Call it on a new or Reset engine
// instead of allocating the kernel's inputs; Replay places the root stack
// where the recording found it, with the recorded size, so the engine's
// Machine must have the recorded block size. Replay executes no kernel
// code and touches no simulated values: each strand is a cursor over the
// stream, run by the same driver loop, scheduler, pools and machine as a
// coroutine run. Config.DisableFastPath applies as it does there: a
// strand re-enters the scheduler after every timed request, a merged run
// of Work and Node charges counting as one. It changes no result.
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
	return e.collect()
}

// opAddr resolves an access or placement op's address.
func (e *Engine) opAddr(o *op) mem.Addr {
	if o.k&opStack != 0 {
		return e.segs[o.x] + mem.Addr(o.y)
	}
	return mem.Addr(o.x)
}

// replayStrand advances st's op cursor, calling each op's protocol step,
// until a step stops st or its job finishes; e.next then names the strand
// the driver runs next. A stopped step leaves the cursor on its op, and a
// strided run's element in st.sub.
func (e *Engine) replayStrand(st *strand) {
	tr := e.trace
	for st.pc < st.end {
		o := tr.at(st.pc)
		switch o.code() {
		case opWork:
			if e.work(st, int64(o.count()), machine.Tick(uint64(o.x)|uint64(o.y)<<32)) {
				return
			}
		case opAccess, opRun:
			n, k, stride := int(o.count()), uint32(1), int64(0)
			if o.code() == opRun {
				n, k, stride = 1, o.runLen(), o.runStride()
			}
			// The Load*/Store* helpers' accesses charge one tick of work.
			write, work := o.k&opWrite != 0, machine.Tick(o.k&opLoad)/opLoad
			for ; st.sub < k; st.sub++ {
				if e.access(st, e.opAddr(o)+mem.Addr(stride*int64(st.sub)), n, write, work) {
					if st.phase == 2 { // access stopped after its charge: resume past it
						st.phase, st.sub = 0, st.sub+1
					}
					return
				}
			}
			st.sub = 0
		case opAlloc, opFree, opPlace:
			if e.order(st) {
				return
			}
			switch o.code() {
			case opAlloc:
				e.segs[o.y] = e.alloc(st.task, int(o.x)).Base
			case opFree:
				st.task.stack.Free(exec.Seg{Base: e.segs[o.x], Words: int(o.y)})
			default:
				e.mach.PlaceRange(st.proc, e.opAddr(o), int(o.count()))
			}
		case opFork:
			if st.phase == 0 {
				st.frames = append(st.frames, frame{})
			}
			right := strandJob{lo: int(o.y) + 1, hi: int(o.y) + int(o.count())}
			if e.fork(st, &st.frames[len(st.frames)-1], int(o.x), right) {
				return
			}
		case opPopIf:
			f := &st.frames[len(st.frames)-1]
			if e.decide(st, f) {
				return
			}
			if !f.inline {
				st.pc = int(o.x) // the right side ran elsewhere: on to the join
				continue
			}
		case opJoin:
			if e.join(st, &st.frames[len(st.frames)-1]) {
				return
			}
			st.frames = st.frames[:len(st.frames)-1]
		}
		st.pc++
	}
	e.finish(st, st.job.jc)
}

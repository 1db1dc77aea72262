package rws

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"unsafe"

	"rwsfs/internal/exec"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// op is one entry of a recorded op stream. Twelve bytes: the low byte of k
// holds the opcode and access flags, the 24 bits above it a count, and x, y
// the operands listed with each opcode.
type op struct {
	k    uint32
	x, y uint32
}

// Opcodes.
const (
	opWork   = iota // count Node calls plus x | y<<32 ticks of Work
	opAccess        // one timed access of count words at address x, or at offset y of segment x
	opRun           // runLen single-word accesses runStride words apart, from an address given as opAccess's
	opAlloc         // Alloc of x words, which becomes segment y
	opFree          // Free of segment x, y words long
	opPlace         // PlaceLocal of count words at address x, or at offset y of segment x
	opFork          // a fork node with stack hint x; op y is its pop-if, and its join lies count ops past that
	opPopIf         // the join decision: run the right side inline, or skip to the join at op x
	opJoin          // the join node
)

// Flags in the low byte of op.k, and the count above it. A run op splits
// the count into an 8-bit length and a signed 16-bit stride.
const (
	opMask   = 0xf
	opWrite  = 1 << 4 // the access writes
	opLoad   = 1 << 5 // the access charges one tick of work (the Load*/Store* helpers)
	opStack  = 1 << 6 // the address is (segment x, offset y) on an execution stack
	maxCount = 1<<24 - 1
	maxRun   = 1<<8 - 1
)

func (o *op) code() uint32     { return o.k & opMask }
func (o *op) count() uint32    { return o.k >> 8 }
func (o *op) runLen() uint32   { return o.k >> 8 & maxRun }
func (o *op) runStride() int64 { return int64(int16(o.k >> 16)) }

// Ops are stored in fixed-size chunks, so recording never copies a grown
// slice and a trace wastes at most one partial chunk.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
)

// Trace is a kernel's op stream, recorded by Engine.Record and interpreted
// by Engine.Replay. It is immutable once recorded, so any number of engines
// may replay one trace at the same time.
type Trace struct {
	chunks [][]op
	n      int
	segs   int // kernel Alloc ops: the size of a replay's segment table

	// mark is the allocator's high-water mark when the recording started:
	// the inputs lie below it, and the root stack begins at it.
	mark           mem.Addr
	rootStackWords int
	b              int
}

func (t *Trace) at(i int) *op { return &t.chunks[i>>chunkShift][i&(chunkLen-1)] }

// Len returns the number of ops in the stream.
func (t *Trace) Len() int { return t.n }

// chunkBytes is the memory one chunk of ops occupies.
const chunkBytes = chunkLen * int64(unsafe.Sizeof(op{}))

// Bytes returns the memory the trace's op chunks occupy.
func (t *Trace) Bytes() int64 { return int64(len(t.chunks)) * chunkBytes }

// ErrNotReplayable is wrapped by Record's error when the kernel's op stream
// may depend on the schedule.
var ErrNotReplayable = errors.New("rws: kernel is not replayable")

// ErrTraceLimit is wrapped by Record's error when the trace would outgrow
// the recording's byte limit.
var ErrTraceLimit = errors.New("rws: trace exceeds its size limit")

// Record walks root serially, depth-first on the calling goroutine, and
// returns the kernel's op stream. The engine must be ready to run, with
// the kernel's inputs allocated: Replay places the root stack where the
// walk put it, just past the inputs. Each Ctx method records its op and
// returns; a fork runs its left side, then its right side inline, and
// allocates and frees its join flag on the root stack where the fork and
// join steps do. No scheduler takes part, so the stream, segment addresses
// included, is a P = 1 run's under any Config. Record returns an error
// wrapping ErrNotReplayable, and no trace, when the kernel
//
//   - touches a root-stack word outside every live segment it allocated;
//   - accesses memory at or past the pre-run allocation mark outside the
//     root stack.
//
// When limit is positive, no trace outgrows it: Record returns an error
// wrapping ErrTraceLimit, and no trace, once the next chunk of ops would
// take Bytes past limit. A rejection unwinds the kernel at once; a panic
// of the kernel's own reaches the caller as it is. Either way the engine
// needs a Reset before its next run.
func (e *Engine) Record(root func(*Ctx), limit int64) (tr *Trace, err error) {
	e.checkFresh("Record")
	mark := e.mach.Alloc.Mark()
	e.root = e.newTask(e.cfg.RootStackWords, false)
	r := &recorder{stack: e.root.stack, mark: mark, limit: limit, tr: &Trace{
		mark: mark, rootStackWords: e.cfg.RootStackWords, b: e.mach.B,
	}}
	defer func() {
		if r.err != nil {
			if pv := recover(); pv != nil && pv != errRecordStopped {
				panic(pv)
			}
			tr, err = nil, r.err
		}
	}()
	if mark > math.MaxUint32 {
		r.reject(ErrNotReplayable, "the inputs end past word 2^32")
	}
	root(&Ctx{e: e, rec: r})
	return r.tr, nil
}

// errRecordStopped unwinds a kernel whose recording was rejected.
var errRecordStopped = errors.New("rws: recording stopped")

// recorder builds a Trace from the Ctx calls of a Record walk. Its first
// rejection stops the walk.
type recorder struct {
	tr    *Trace
	err   error
	stack *exec.Stack // the root stack the walk allocates on
	mark  mem.Addr
	limit int64 // the trace's byte limit; none when not positive
	// forks holds, per open fork, the indexes of its fork op and, once
	// the join decision passed, of its pop-if.
	forks []openFork
	// live holds the kernel's live segments, sorted by base.
	live []liveSeg
}

type openFork struct{ fork, popIf int }

type liveSeg struct {
	base  mem.Addr
	words int
	id    uint32
}

// reject ends the recording with an error wrapping kind and unwinds the
// kernel back to Record.
func (r *recorder) reject(kind error, why string) {
	r.err = fmt.Errorf("%w: %s", kind, why)
	panic(errRecordStopped)
}

func (r *recorder) push(o op) {
	t := r.tr
	if t.n&(chunkLen-1) == 0 {
		if r.limit > 0 && t.Bytes()+chunkBytes > r.limit {
			r.reject(ErrTraceLimit, fmt.Sprintf("more than %d bytes", r.limit))
		}
		t.chunks = append(t.chunks, make([]op, chunkLen))
	}
	*t.at(t.n) = o
	t.n++
}

// last returns the most recent op, or nil.
func (r *recorder) last() *op {
	if r.tr.n == 0 {
		return nil
	}
	return r.tr.at(r.tr.n - 1)
}

// work records nodes Node calls and t ticks of Work, merged into the
// previous op when that is a work op too: pure work charges only defer the
// heap check, so a run of them replays as one.
func (r *recorder) work(nodes uint32, t machine.Tick) {
	if l := r.last(); l != nil && l.code() == opWork && l.count()+nodes <= maxCount {
		w := (uint64(l.x) | uint64(l.y)<<32) + uint64(t)
		l.k += nodes << 8
		l.x, l.y = uint32(w), uint32(w>>32)
		return
	}
	r.push(op{k: opWork | nodes<<8, x: uint32(t), y: uint32(uint64(t) >> 32)})
}

// access records one timed kernel access. A single-word access at a
// constant stride from a run of same-shaped ones extends that run.
func (r *recorder) access(a mem.Addr, n int, write bool, work machine.Tick) {
	if n > maxCount {
		r.reject(ErrNotReplayable, fmt.Sprintf("an access spans %d words", n))
	}
	flags := uint32(0)
	if write {
		flags |= opWrite
	}
	if work != 0 {
		flags |= opLoad
	}
	x, y, stack := r.addr(a, n)
	if stack {
		flags |= opStack
	}
	if l := r.last(); n == 1 && l != nil && l.k&^opMask&0xff == flags && (!stack || l.x == x) {
		// The previous op was a same-shaped access, in the same segment if
		// on the stack: extend it into a run when a keeps the stride.
		first, at := int64(l.x), int64(a)
		if stack {
			first, at = int64(l.y), int64(y)
		}
		switch {
		case l.code() == opAccess && l.count() == 1:
			if d := at - first; d >= math.MinInt16 && d <= math.MaxInt16 {
				l.k = opRun | flags | 2<<8 | uint32(uint16(d))<<16
				return
			}
		case l.code() == opRun && l.runLen() < maxRun:
			if at == first+int64(l.runLen())*l.runStride() {
				l.k += 1 << 8
				return
			}
		}
	}
	r.push(op{k: opAccess | flags | uint32(n)<<8, x: x, y: y})
}

// addr translates the n words at a into the trace's address forms: an
// absolute input address, or an offset into a live kernel segment of the
// root stack. Anything else has a schedule-dependent address, so it
// rejects the recording.
func (r *recorder) addr(a mem.Addr, n int) (x, y uint32, stack bool) {
	end := a + mem.Addr(n)
	if end <= r.mark {
		return uint32(a), 0, false
	}
	if a < r.stack.Base() || end > r.stack.Base()+mem.Addr(r.stack.Words()) {
		r.reject(ErrNotReplayable, "the kernel accesses memory at or past the pre-run allocation mark outside the root stack")
	}
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i].base > a }) - 1
	if i < 0 || end > r.live[i].base+mem.Addr(r.live[i].words) {
		r.reject(ErrNotReplayable, "the kernel touches a root-stack word outside every live segment")
	}
	return r.live[i].id, uint32(a - r.live[i].base), true
}

// alloc allocates a kernel segment of words on the root stack.
func (r *recorder) alloc(words int) exec.Seg {
	seg := r.stack.Alloc(words)
	id := uint32(r.tr.segs)
	r.tr.segs++
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i].base > seg.Base })
	r.live = append(r.live, liveSeg{})
	copy(r.live[i+1:], r.live[i:])
	r.live[i] = liveSeg{base: seg.Base, words: seg.Words, id: id}
	r.push(op{k: opAlloc, x: uint32(seg.Words), y: id})
	return seg
}

func (r *recorder) free(seg exec.Seg) {
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i].base >= seg.Base })
	if i == len(r.live) || r.live[i].base != seg.Base || r.live[i].words != seg.Words {
		r.reject(ErrNotReplayable, "the kernel frees a segment it did not allocate")
	}
	id := r.live[i].id
	r.live = append(r.live[:i], r.live[i+1:]...)
	r.push(op{k: opFree, x: id, y: uint32(seg.Words)})
	r.stack.Free(seg)
}

func (r *recorder) place(a mem.Addr, n int) {
	if n <= 0 {
		// Still a synced operation, though it places nothing.
		r.push(op{k: opPlace})
		return
	}
	if n > maxCount {
		r.reject(ErrNotReplayable, fmt.Sprintf("a placement spans %d words", n))
	}
	x, y, stack := r.addr(a, n)
	k := opPlace | uint32(n)<<8
	if stack {
		k |= opStack
	}
	r.push(op{k: k, x: x, y: y})
}

// fork records a fork and allocates its join flag, as the engine's fork
// step does, and returns the flag's segment.
func (r *recorder) fork(hint int) exec.Seg {
	if int64(hint) > math.MaxUint32 {
		r.reject(ErrNotReplayable, fmt.Sprintf("a fork's stack hint is %d words", hint))
	}
	r.forks = append(r.forks, openFork{fork: r.tr.n})
	r.push(op{k: opFork, x: uint32(max(hint, 0))})
	return r.stack.Alloc(1)
}

// popIf records the join decision; a serial walk always runs the right
// side inline.
func (r *recorder) popIf() {
	f := &r.forks[len(r.forks)-1]
	r.tr.at(f.fork).y = uint32(r.tr.n)
	f.popIf = r.tr.n
	r.push(op{k: opPopIf})
}

// join records a fork's join and frees its join flag, as the engine's
// join step does. The pop-if names the join's position, and the fork op
// its distance from the pop-if, so a replayed fork knows where its right
// side ends without loading the pop-if.
func (r *recorder) join(flag exec.Seg) {
	f := r.forks[len(r.forks)-1]
	span := r.tr.n - f.popIf
	if span > maxCount {
		r.reject(ErrNotReplayable, fmt.Sprintf("a fork's join lies %d ops past its pop-if", span))
	}
	r.tr.at(f.popIf).x = uint32(r.tr.n)
	r.tr.at(f.fork).k |= uint32(span) << 8
	r.forks = r.forks[:len(r.forks)-1]
	r.push(op{k: opJoin})
	r.stack.Free(flag)
}

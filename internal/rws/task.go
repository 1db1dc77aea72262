// Package rws implements the randomized work-stealing scheduler of Section 2
// of the paper on top of the simulated machine.
//
// Computations are written in Cilk-like fork-join style against Ctx. The
// scheduling rules are exactly the paper's: each processor keeps a work
// queue; a newly forked (stealable) task is pushed at the bottom; the owner
// retrieves tasks from the bottom; an idle processor picks a victim
// uniformly at random among the other processors and steals from the *top*
// of its queue; failed steals cost O(s) and are retried (see Parking).
// Joins follow the protocol of Section 4.2: the last of the two sides to
// finish continues the parent computation, which may move the parent
// task's execution to a different processor (a "usurpation").
//
// Victim selection and the per-steal take size are pluggable through
// Config.Policy (see StealPolicy in policy.go): Uniform is the paper's
// discipline and the default, byte-identical to the pre-policy engine;
// Localized, StealHalf, Affinity, Hierarchical and LatencyAware explore
// socket-biased, half-deque, directory-affine, socket-escalating and
// distance-priced disciplines over the machine's Topology. Everything
// else about the attempt protocol — costs, budget, RNG ownership — stays
// fixed in the engine.
//
// Tasks-as-stolen-units own execution stacks (package exec): the original
// task and every stolen task get their own stack S_τ (Section 4); the join
// flag ("hidden variable for reporting the completion of a subtask") lives in
// a segment of the parent's stack, so a thief's completion write really does
// invalidate the parent's cached block — the false-sharing channel the paper
// analyzes.
//
// # One protocol, two op sources
//
// The scheduling protocol is implemented once, as the steps in
// protocol.go: work, timed access, the ordering of Alloc, Free and
// PlaceLocal, fork, the join decision with its park, join, and finish. One
// driver loop resumes strands one at a time, and only the resumed strand
// touches engine state. It applies its own requests directly: the engine
// always runs the processor holding the minimum (clock, proc) key, so
// while the strand's processor keeps that minimum it keeps executing
// (run-ahead). When its clock rises past another processor's, or it parks
// on a join, or it finishes, the strand itself runs the engine loop: idle
// processors' pops and steal attempts execute inline, and when another
// strand must run, the step records it as the driver's next strand and
// stops, keeping in the strand's phase where it resumes.
//
// Two op sources feed the steps. A coroutine strand (iter.Pull) runs
// kernel code: each Ctx method calls its step, yielding to the driver
// whenever the step stops — two coroutine switches per strand
// interleaving, none for anything else. A replayed strand is a cursor over
// a recorded Trace: an op index and the forks opened and not yet joined.
// It needs no coroutine, no kernel code and no simulated values. The
// root's finish leaves no next strand, so the driver returns, and the
// engine drains.
//
// The sequence of simulated actions, and therefore every metric and the RNG
// consumption order, is identical to a lockstep one-request-per-handoff
// protocol: Config.DisableFastPath turns off only the run-ahead shortcut
// (re-entering the scheduler after every request), and the differential
// tests assert the two modes produce bit-for-bit equal Results.
//
// # Parking
//
// Once Config.StealBudget is spent on a machine without steal pricing, an
// idle processor whose deque is empty parks: it leaves the clock heap, and
// after the run it is charged the failed attempts it would have made up to
// the root's finish. That is exact. No steal can succeed, only a
// processor's own strand pushes to its deque, and a usurpation resumes a
// strand on the finisher's busy processor, so it never works again. An
// unpriced attempt changes only the thief's clock and counters: its victim
// and the RNG draws that chose it steer nothing later. Priced attempts
// keep running, since their cost depends on the victim.
//
// # Record and replay
//
// Everything the engine takes from a kernel is its op stream: Work and
// Node charges, timed accesses, Alloc and Free, PlaceLocal, and the shape
// of its forks and joins. Engine.Record walks a kernel once, serially and
// depth-first with no scheduler, as a P = 1 run executes it, and keeps
// that stream in a Trace: twelve-byte ops in fixed-size chunks, with runs
// of Work and Node merged and runs of same-shaped single-word accesses at
// a constant stride stored as one op. Engine.Replay interprets a trace
// under any Config and returns the Result Run would, bit for bit, with the
// same Stats. Stack addresses are recorded as (segment, offset) pairs,
// because a stolen task's stack lands wherever the schedule puts it;
// replay resolves them through a per-run table of segment bases.
//
// A kernel is replayable when its op stream does not depend on the
// schedule. A fork-join kernel with no determinacy race reads the same
// values under every schedule, so it qualifies. Value races that steer no
// address and no branch are fine too: several goldens store and load
// neighbouring words from parallel leaves, and only the values race.
// conncomp's in-place jump, label[v] = label[label[v]] across leaves, is
// not: a leaf may read a label another leaf is rewriting, and the labels
// steer later addresses and the number of rounds. Record cannot see value
// races, so callers keep such kernels on coroutines. It rejects what it can
// see: stack accesses outside the kernel's live segments and accesses to
// memory allocated after the run began. Its byte limit rejects a trace that
// would outgrow it, so a caller that caches traces under a budget never
// holds a larger one. The first rejection stops the kernel at once. In
// internal/harness, one function, TraceCache.Run, calls Record and Replay
// for the experiment sweeps and every rwsimd server: it records each trace
// once into a cache of 2 MiB, replays it, and runs a kernel without a
// trace on coroutines.
//
// # Pooling lifecycle
//
// Fork metadata is recycled through per-engine free lists, so the steady
// state allocates nothing:
//
//   - A spawn is created at the fork, consumed exactly once (steal, idle pop,
//     or the owner's inline pop), and recycled by the *forking strand* at the
//     join decision point — after popBottomIf resolved, when any consumer has
//     already copied the fields out. Holding recycling until then keeps the
//     pointer-identity check of popBottomIf sound: a spawn cannot re-enter
//     the pool, and hence reappear in a deque, while its fork still holds it.
//     A multi-take steal policy (StealHalf) *consumes* extra spawns at the
//     steal — the pop copied the fields out, so the forker's recycling
//     stays sound — and re-queues each as a fresh migrant copy on the
//     thief's deque. A migrant has no forking strand holding it, so it can
//     never satisfy popBottomIf's identity check (its forker holds the
//     original pointer) and is instead recycled by startSpawn when some
//     processor finally runs it.
//   - A joinCell has two releases: the forking strand (after it passed the
//     join, parked-and-resumed or not) and the completing child strand (in
//     finishStrand). Whichever release comes second recycles the cell; a
//     fork whose spawn was popped inline releases both at once since no
//     child strand ever existed.
//   - A strand — struct and coroutine — is recycled in finishStrand. Its
//     coroutine returns to its job loop and runs the next (task, fn, jc) it
//     is handed instead of a fresh coroutine per steal. A single-use engine
//     stops every coroutine when Run completes; a Reset engine keeps them
//     suspended in their job loops until Close. A strand gets its
//     coroutine the first time a coroutine run needs one: a strand only
//     replays have used has none, and shutdown skips it.
//   - A stolen Task (and, via exec.Pool, its stack region) is recycled when
//     its last strand finishes, after its kernel-size and stack-audit
//     metrics were recorded.
//
// ForkN trees fork explicit leaf ranges rather than per-node closures, so a
// range spawn carries (lo, hi, body) and its stolen execution re-enters the
// same range walker — no allocation per internal tree node.
//
// # Reset lifecycle
//
// Engine.Reset extends the pooling across runs: after a completed Run, Reset
// reinitializes every piece of per-run state (machine, clocks, deque
// cursors, counters, RNG, free lists' contents) while keeping the backing
// structures — slabs, ring buffers, memory pages, cache recency nodes,
// directory pages (generation-stamped, revalidated lazily) and their node
// columns, and the suspended strand coroutines — so back-to-back runs
// allocate almost nothing and start no coroutines in steady state. Reset
// is also the only initialization: NewEngine, machine.New, cache.New (an
// empty LRU order; the directory holds its block index) and mem.New each
// build an empty value and call its Reset, so a fresh engine is set up by
// the code that resets a used one. Reused runs are bit-for-bit identical
// to fresh-engine runs under arbitrary config changes between runs; the
// golden replay, the randomized reuse differential and FuzzEngineReuse
// check what a previous run could leave behind. A Reset engine is
// persistent and must be released with Close; NewEngine's is single-use.
package rws

import (
	"errors"

	"rwsfs/internal/exec"
	"rwsfs/internal/mem"
)

// Task is a stolen-unit of computation (the original task or a stolen
// subtask): the owner of one execution stack S_τ.
type Task struct {
	id     int64
	stack  *exec.Stack
	stolen bool
	// accesses counts timed word accesses made by strands of this task's
	// kernel; a within-constant-factor proxy for the paper's task size |τ|
	// (Definition 2.1) for limited-access algorithms.
	accesses int64
	// strands still running or parked that belong to this task's kernel.
	liveStrands int
}

// joinCell is the engine-side state of one fork's join, paired with a
// one-word flag on the parent's execution stack at addr.
type joinCell struct {
	addr      mem.Addr
	childDone bool    // set when the spawned (right) side completed
	parked    *strand // continuation waiting for childDone, if any
	// refs counts outstanding releases before the cell may be recycled: the
	// forking strand plus (when the spawn was stolen or idle-popped) the
	// child strand that reports on it.
	refs int8
}

// spawn is a deque entry: the stealable right child of a fork, as the job
// its consumer runs under the forking task, with that fork's join cell.
type spawn struct {
	strandJob
	stackHint int // words of stack a thief should give the stolen task
	// migrant marks a copy re-queued by a multi-take steal: no forking
	// strand holds it, so startSpawn recycles it at consumption.
	migrant bool
}

// strandJob is one unit of kernel execution handed to a pooled strand: the
// task to run under, the kernel code, and the join cell to report on (nil
// for the root). Exactly one of fn (a Fork/ForkHint closure) or body (a
// ForkN leaf-range walker over [lo, hi)) is set; in a replay neither is,
// and [lo, hi) is the job's op range.
type strandJob struct {
	task   *Task
	fn     func(*Ctx)
	body   func(i int, c *Ctx)
	lo, hi int
	hintFn func(lo, hi int) int
	jc     *joinCell
}

// strand is one schedulable thread of control: a pooled coroutine executing
// part of a task's kernel, one strandJob at a time. A task has one strand
// when created; additional strands appear when the owner's processor pops a
// pending spawn of a parked task.
type strand struct {
	task *Task
	job  strandJob // set by newStrand; runJob takes it, a replay keeps it

	// resume and stop are the iter.Pull pair of the strand's coroutine: the
	// driver loop resumes it and Close stops it. yield suspends it back to
	// the driver and reports false once it was stopped. All three stay nil
	// until a coroutine run first needs the strand; a replay never does.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// ctx is the per-job Ctx, embedded so starting a job allocates nothing.
	ctx  Ctx
	proc int // processor currently (or last) executing this strand

	// phase is where the protocol step that stopped the strand resumes
	// (protocol.go).
	phase uint8

	// The replay cursor (see replay.go): the next op and the end of the
	// job's op range, the element of a strided run, and the forks opened
	// and not yet joined.
	pc, end int
	sub     uint32
	frames  []frame
}

// errStrandStopped unwinds a strand that Close stopped while it was
// suspended mid-kernel; the strand's own top frame recovers it.
var errStrandStopped = errors.New("rws: strand stopped")

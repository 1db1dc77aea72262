// Package rws implements the randomized work-stealing scheduler of Section 2
// of the paper on top of the simulated machine.
//
// Computations are written in Cilk-like fork-join style against Ctx. The
// scheduling rules are exactly the paper's: each processor keeps a work
// queue; a newly forked (stealable) task is pushed at the bottom; the owner
// retrieves tasks from the bottom; an idle processor picks a victim uniformly
// at random among the other processors and steals from the *top* of its
// queue; failed steals cost O(s) and are retried. Joins follow the protocol
// of Section 4.2: the last of the two sides to finish continues the parent
// computation, which may move the parent task's execution to a different
// processor (a "usurpation").
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
// # Run-ahead execution
//
// Strands run as goroutines, but there is no scheduler goroutine mediating
// them: exactly one goroutine at a time holds the engine "baton" and is
// allowed to touch engine state. The baton holder applies its own timed
// requests (work, memory accesses, join-flag writes) directly — the engine
// always runs the processor holding the minimum (clock, proc) key, so while
// the holder's processor keeps that minimum it simply keeps executing
// (run-ahead). When its clock rises past another processor's, or it parks on
// a join, or it finishes, the holder itself runs the engine loop: idle
// processors' actions (deque pops, steal attempts) execute inline with no
// goroutine switch, and when another strand must run the baton is handed
// directly to it through its resume channel — one goroutine switch per
// strand interleaving, and zero for everything else. The engine goroutine
// that called Run only starts the root strand, reclaims the baton at the
// end (or on a panic), and drains.
//
// The sequence of simulated actions, and therefore every metric and the RNG
// consumption order, is identical to a lockstep one-request-per-handoff
// protocol: Config.DisableFastPath turns off only the run-ahead shortcut
// (re-entering the scheduler after every request), and the differential
// tests assert the two modes produce bit-for-bit equal Results.
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
//     the engine's reqFinish handling). Whichever release comes second
//     recycles the cell; a fork whose spawn was popped inline releases both
//     at once since no child strand ever existed.
//   - A strand — struct, channels, and goroutine — is recycled when its
//     reqFinish is handled. The parked goroutine blocks on its job channel
//     and picks up the next (task, fn, jc) instead of a fresh `go func` per
//     steal. All strand goroutines exit when Run completes.
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
// structures — slabs, ring buffers, memory pages, cache/directory pages
// (generation-stamped, revalidated lazily), and the parked strand
// goroutines — so back-to-back runs allocate almost nothing and launch no
// goroutines in steady state. Reused runs are bit-for-bit identical to
// fresh-engine runs under arbitrary config changes between runs; the golden
// replay, the randomized reuse differential and FuzzEngineReuse enforce
// that. A Reset engine is persistent and must be released with Close.
package rws

import (
	"sync"

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

// ID returns the task's unique id (0 is the root task).
func (t *Task) ID() int64 { return t.id }

// Stolen reports whether the task was created by a steal.
func (t *Task) Stolen() bool { return t.stolen }

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

// spawn is a deque entry: the stealable right child of a fork. Exactly one
// of fn (a Fork/ForkHint closure) or body (a ForkN leaf-range walker over
// [lo, hi)) is set.
type spawn struct {
	fn        func(*Ctx)
	body      func(i int, c *Ctx)
	lo, hi    int
	hintFn    func(lo, hi int) int
	task      *Task // task whose kernel forked it
	jc        *joinCell
	stackHint int // words of stack a thief should give the stolen task
	// migrant marks a copy re-queued by a multi-take steal: no forking
	// strand holds it, so startSpawn recycles it at consumption.
	migrant bool
}

// strandJob is one unit of kernel execution handed to a pooled strand
// goroutine: the fields of a consumed spawn plus the task to run under.
type strandJob struct {
	task   *Task
	fn     func(*Ctx)
	body   func(i int, c *Ctx)
	lo, hi int
	hintFn func(lo, hi int) int
	jc     *joinCell
}

// strand is one schedulable thread of control: a pooled goroutine executing
// part of a task's kernel, one strandJob at a time. A task has one strand
// when created; additional strands appear when the owner's processor pops a
// pending spawn of a parked task.
//
// The baton discipline admits at most one wake in flight, and a pooled
// strand is handed its next job only after consuming the previous one, so
// single-slot handoffs suffice for both channels and flags.
type strand struct {
	id   int64
	task *Task

	// resume passes the baton: the wake names the processor this strand
	// resumes on. Buffered, so a finishing strand can queue a wake for
	// itself (its own next job) before returning to its job loop. A channel
	// rather than the cond: the Go runtime's direct send-to-waiter handoff
	// is the cheapest goroutine switch available, and baton passes are the
	// hot path.
	resume chan wake

	mu     sync.Mutex
	cond   sync.Cond // L = &mu; signaled on job handoff and shutdown
	job    strandJob
	hasJob bool
	closed bool

	// ctx is the per-job Ctx, embedded so starting a job allocates nothing.
	ctx  Ctx
	proc int // processor currently (or last) executing this strand
}

// wake passes the baton to a strand and tells it which processor it is now
// executing on (it changes across park/resume).
type wake struct {
	proc int
}

// sendWake passes the baton: the strand resumes on processor p.
func (st *strand) sendWake(p int) {
	st.resume <- wake{proc: p}
}

// recvWake blocks until the baton arrives and returns the processor.
func (st *strand) recvWake() int {
	w := <-st.resume
	return w.proc
}

// sendJob hands the pooled goroutine its next job.
func (st *strand) sendJob(job strandJob) {
	st.mu.Lock()
	st.job = job
	st.hasJob = true
	st.mu.Unlock()
	st.cond.Signal()
}

// waitJob blocks until a job arrives (job, true) or the engine shut the
// strand down (_, false).
func (st *strand) waitJob() (strandJob, bool) {
	st.mu.Lock()
	for !st.hasJob && !st.closed {
		st.cond.Wait()
	}
	if !st.hasJob {
		st.mu.Unlock()
		return strandJob{}, false
	}
	job := st.job
	st.hasJob = false
	st.job = strandJob{}
	st.mu.Unlock()
	return job, true
}

// shut ends the goroutine's job loop at its next waitJob.
func (st *strand) shut() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	st.cond.Signal()
}

// batonNote travels baton-holder -> engine goroutine when the run completes
// or algorithm code panics; nil means clean completion.
type batonNote struct {
	proc int
	pv   any // recovered panic value
}

package rws

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"

	"rwsfs/internal/exec"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// Config configures one simulated run.
type Config struct {
	Machine machine.Params
	// Seed drives the single RNG used for victim selection; runs are
	// reproducible bit-for-bit given (Config, root function).
	Seed int64
	// Policy selects steal victims and the per-steal take size; nil means
	// Uniform{}, the paper's discipline. Policies must obey the RNG
	// ownership rule (see StealPolicy): stateless values drawing all
	// randomness from the engine's seeded RNG.
	Policy StealPolicy
	// StealBudget caps the number of successful steals; < 0 means unlimited.
	// Several lemmas (3.1, 4.6, 4.7) bound costs as a function of the steal
	// count S, so experiments sweep S directly via this knob. Once it is
	// spent, idle processors park (see Parking in the package comment).
	StealBudget int64
	// RootStackWords sizes the root task's stack (0: defaultRootStackWords).
	RootStackWords int
	// AuditStackBlocks enables the per-task block-delay audit of Lemmas
	// 4.3/4.4: for every task, the maximum number of moves of any single
	// block of its execution stack during its lifetime is recorded in
	// Result.StackAudits.
	AuditStackBlocks bool
	// DisableFastPath turns off the run-ahead shortcut: the executing strand
	// re-enters the scheduler loop after every timed request instead of
	// continuing while its processor keeps the (clock, proc) minimum.
	// Semantics are identical either way (the differential tests assert
	// it); the knob exists for those tests and for debugging.
	DisableFastPath bool
}

// defaultRootStackWords sizes the root stack of a Config that leaves it 0.
const defaultRootStackWords = 1 << 16

// DefaultConfig returns a Config over machine.DefaultParams(p).
func DefaultConfig(p int) Config {
	return Config{
		Machine:        machine.DefaultParams(p),
		Seed:           1,
		StealBudget:    -1,
		RootStackWords: defaultRootStackWords,
	}
}

// Result summarizes one run: the simulated outcome only. Per-processor
// counters are read with Engine.CopyCounters, and the engine's own
// bookkeeping with Engine.Stats.
type Result struct {
	Params   machine.Params
	Makespan machine.Tick
	Totals   machine.ProcCounters

	Steals       int64 // successful steals S
	FailedSteals int64 // failed attempts, parked processors' settled ones too
	Spawns       int64 // stealable tasks created
	Usurpations  int64
	// SpawnsMigrated counts queued tasks a multi-take policy (StealHalf)
	// moved to the thief's deque beyond the one that started executing;
	// they are consumed later like any queued task, so spawn conservation
	// (Spawns == Steals + InlinePops + IdlePops) is unaffected.
	SpawnsMigrated int64
	// Every spawn is consumed exactly once; the three disjoint ways:
	InlinePops int64 // owner popped its own spawn at the fork's join point
	IdlePops   int64 // an idle processor drained its own queue bottom

	BlockTransfersTotal int64 // Definition 4.1 moves, summed over blocks
	BlockTransfersMax   int64 // max moves of any single block
	MaxWriteCount       int64 // -1 unless Machine.TrackWrites

	// StolenKernelSizes holds, per stolen task, the number of timed word
	// accesses its kernel performed: a proxy for |τ| used by the Lemma 3.1
	// experiments.
	StolenKernelSizes []int64

	RootStackPeak int64 // peak words on the root task's stack (space checks)

	// StackAudits holds the per-task Lemma 4.3/4.4 block-delay audit when
	// Config.AuditStackBlocks was set.
	StackAudits []StackAudit
}

// Stats is the engine's own bookkeeping for its last run: what the run
// cost the simulator, not what it simulated. A replay leaves the same
// Stats as the coroutine run of its recording.
type Stats struct {
	StacksCreated int // fresh stack regions allocated
	StacksReused  int // regions recycled from the pool
	// Handoffs counts passes from one strand to another, each a stop for
	// the driver to resume the next strand.
	Handoffs int64
	// IdleSpun counts idle steps executed, pops and steal attempts, and
	// IdleSettled the attempts settleParked charged instead; their sum is
	// what an engine that never parks spins.
	IdleSpun, IdleSettled int64
}

// Engine runs fork-join computations under simulated RWS. Create with
// NewEngine, populate simulated memory through Machine(), then call Run
// once. To run again — under the same or a completely different Config —
// Reset the engine between runs: a reset engine reuses its slabs, free
// lists, memory pages, and suspended strand coroutines, producing Results
// bit-for-bit identical to a fresh engine's while allocating near-zero in
// steady state (see Reset and harness.Runner, which pools reset engines
// across experiment sweeps).
//
// At runtime exactly one goroutine at a time touches Engine state: the
// goroutine that called Run (start, drain, collect) or the strand coroutine
// its driver loop resumed (see the package comment on the protocol).
// No Engine state is locked; coroutine switches order everything. Record
// and Replay never leave the calling goroutine.
type Engine struct {
	cfg    Config
	mach   *machine.Machine
	pool   *exec.Pool
	rng    *rand.Rand
	policy StealPolicy
	view   PolicyView

	// sched tracks per-processor clocks in a winner tree, so picking the
	// next processor is O(1) and re-ranking one O(log P); clock aliases
	// sched's clocks.
	sched   *clockHeap
	clock   []machine.Tick
	running []*strand
	deques  []deque

	// fastPath enables run-ahead in the protocol steps (settle).
	fastPath bool
	// stealPriced caches mach.StealPriced() so the unpriced attempt path
	// pays one branch, not a method call.
	stealPriced bool
	// consecFail[p] counts p's consecutive failed steal attempts since its
	// last success; Hierarchical reads it through PolicyView.FailedStreak to
	// decide when to escalate a probe beyond the thief's socket. Pure
	// scheduler bookkeeping: it never feeds costs or counters itself.
	consecFail []int32
	// heapDirty marks that the running strand advanced its clock with pure
	// work charges without re-checking the heap; the next shared-state
	// operation syncs (fix + possible yield) before touching anything
	// another processor can observe. No strand switch happens while dirty.
	heapDirty bool
	// next is the strand the driver loop resumes once the running strand
	// yields; nil ends the loop (root finish, a drained strand, a panic).
	next *strand
	// fault is a kernel panic recovered by its strand's coroutine, with the
	// processor it happened on; Run re-raises it.
	fault     any
	faultProc int
	// stats is the engine's bookkeeping for the current run (see Stats).
	stats Stats

	// trace is the stream a Replay interprets, with segs its table of
	// kernel segment bases, indexed by Alloc op. trace is nil on a
	// coroutine run.
	trace *Trace
	segs  []mem.Addr

	stealBudget int64
	done        bool
	finishTime  machine.Tick
	finishProc  int

	taskSeq int64
	root    *Task
	audit   *auditor

	// Free lists for the recycled scheduling metadata (see the package
	// comment's pooling lifecycle). Only the running strand touches them.
	// First use carves objects out of slabs so warming the pools costs a
	// couple of allocations, not one per live object.
	jcFree     []*joinCell
	spFree     []*spawn
	strandFree []*strand
	taskFree   []*Task
	jcSlab     []joinCell
	spSlab     []spawn
	taskSlab   []Task
	strandSlab []strand
	allStrands []*strand // every launched strand, for shutdown

	// persistent keeps the strand coroutines suspended after Run instead of
	// stopping them, so the next Reset+Run reuses them. Set by Reset; a
	// persistent engine must be released with Close.
	persistent bool
	// strandsShut records that shutdown stopped the pooled coroutines; Reset
	// then discards the dead strand pool so the next run creates new ones.
	strandsShut bool
	// closed marks an engine retired by Close: Run panics with a clear
	// message and Reset returns ErrEngineClosed instead of reviving it.
	closed bool

	steals      int64
	failed      int64
	spawns      int64
	inlinePops  int64
	idlePops    int64
	usurpations int64
	migrated    int64
	stolenSizes []int64
}

// NewEngine builds an engine for cfg: it creates the objects Reset works
// on and lets Reset set everything else, so a new engine is a reset one.
// Unlike Reset, it leaves the engine single-use, needing no Close.
func NewEngine(cfg Config) (*Engine, error) {
	if err := checkProcs(cfg); err != nil {
		return nil, err
	}
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		mach:  m,
		pool:  exec.NewPool(m.Alloc),
		rng:   rand.New(rand.NewSource(0)), // Reset seeds it
		sched: &clockHeap{},
		// Pre-size the metadata free lists past typical peak live counts
		// so recycling never regrows them mid-run.
		jcFree:     make([]*joinCell, 0, slabLen),
		spFree:     make([]*spawn, 0, slabLen),
		strandFree: make([]*strand, 0, slabLen),
		taskFree:   make([]*Task, 0, slabLen),
		allStrands: make([]*strand, 0, slabLen),
	}
	e.view = PolicyView{e: e}
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	e.persistent = false
	return e, nil
}

// checkProcs rejects a processor count the scheduler's keys cannot hold.
func checkProcs(cfg Config) error {
	if cfg.Machine.P > maxProcs {
		return fmt.Errorf("rws: P=%d exceeds the scheduler's limit of %d processors", cfg.Machine.P, maxProcs)
	}
	return nil
}

// ErrEngineClosed is returned by Reset on an engine that was released with
// Close. A closed engine is retired for good: its pooled strand coroutines
// are stopped and it cannot be revived — construct a new engine instead.
var ErrEngineClosed = errors.New("rws: engine is closed")

// MustNewEngine is NewEngine but panics on error.
func MustNewEngine(cfg Config) *Engine {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Reset reinitializes the engine for another Run under cfg — which may
// differ arbitrarily from the previous configuration (processor count,
// policy, topology, pricing, budget) — while keeping every reusable backing
// structure alive: metadata slabs and free lists, deque ring buffers, the
// clock heap, simulated memory pages (recycled through the mem free list),
// cache and directory pages (invalidated by generation stamps, revalidated
// lazily), exec stack structs, and the suspended strand coroutines. It is
// all of NewEngine's set-up, so a reset engine returns what NewEngine(cfg)
// returns; the reuse differentials and FuzzEngineReuse check what a previous
// run leaves behind.
//
// Reset marks the engine persistent: subsequent Runs leave the strand
// coroutines suspended in their job loops instead of stopping them, so
// back-to-back runs create no coroutines in steady state. A persistent
// engine must be released with Close once it is no longer needed.
//
// Reset is only valid before the first Run or after a Run that returned
// normally; an engine whose Run panicked must be discarded. On an invalid
// cfg the engine is left untouched and stays usable. Reset on a closed
// engine returns ErrEngineClosed: Close retires an engine permanently.
func (e *Engine) Reset(cfg Config) error {
	if e.closed {
		return ErrEngineClosed
	}
	if cfg.RootStackWords <= 0 {
		cfg.RootStackWords = defaultRootStackWords
	}
	if err := checkProcs(cfg); err != nil {
		return err
	}
	if err := e.mach.Reset(cfg.Machine); err != nil {
		return err
	}
	e.cfg = cfg
	e.pool.Reset()
	e.rng.Seed(cfg.Seed)
	p := cfg.Machine.P
	e.sched.reset(p)
	e.clock = e.sched.clock
	if p <= cap(e.running) {
		e.running = e.running[:p]
	} else {
		e.running = make([]*strand, p)
	}
	clear(e.running)
	if p <= cap(e.deques) {
		e.deques = e.deques[:p]
	} else {
		grown := make([]deque, p)
		copy(grown, e.deques[:cap(e.deques)])
		e.deques = grown
	}
	for i := range e.deques {
		// Ring buffers are kept; a completed run consumed every spawn, so
		// resetting the cursors is all an empty deque needs.
		e.deques[i].head, e.deques[i].tail = 0, 0
	}
	if p <= cap(e.consecFail) {
		e.consecFail = e.consecFail[:p]
	} else {
		e.consecFail = make([]int32, p)
	}
	clear(e.consecFail)
	e.policy = cfg.Policy
	if e.policy == nil {
		e.policy = Uniform{}
	}
	e.fastPath = !cfg.DisableFastPath
	e.stealPriced = e.mach.StealPriced()
	e.heapDirty = false
	e.stealBudget = cfg.StealBudget
	e.done = false
	e.finishTime = 0
	e.taskSeq = 0
	e.stats = Stats{}
	e.trace = nil
	if e.root != nil {
		e.putTask(e.root)
		e.root = nil
	}
	e.audit = nil
	if cfg.AuditStackBlocks {
		e.audit = newAuditor()
		e.mach.OnTransfer = e.audit.observe
	}
	e.steals, e.failed, e.spawns = 0, 0, 0
	e.inlinePops, e.idlePops, e.usurpations, e.migrated = 0, 0, 0, 0
	// The previous Result owns the old StolenKernelSizes backing, so a fresh
	// slice is the one steady-state allocation a reused run keeps. Its
	// capacity carries over from the last run (collect normalizes empty
	// slices to nil, so capacity never shows through). A budgeted run gets
	// one entry per steal, capped for an effectively unlimited budget.
	presize := cap(e.stolenSizes)
	if cfg.StealBudget >= 0 && int64(presize) < cfg.StealBudget {
		presize = int(min(cfg.StealBudget, 1<<16))
	}
	if presize > 0 {
		e.stolenSizes = make([]int64, 0, presize)
	} else {
		e.stolenSizes = nil
	}
	if e.strandsShut {
		// A previous non-persistent Run stopped the pooled coroutines; drop
		// the dead strands so newStrand creates fresh ones.
		e.allStrands = e.allStrands[:0]
		e.strandFree = e.strandFree[:0]
		e.strandSlab = nil
		e.strandsShut = false
	}
	e.persistent = true
	return nil
}

// Close stops a persistent engine's strand coroutines — including any a
// panicked Run left suspended mid-kernel — and retires the engine: a closed
// engine cannot Run again, and Reset on it returns ErrEngineClosed. Close is
// idempotent — second and later calls are no-ops — and safe on an engine
// that never ran (there is nothing to stop yet) or whose coroutines were
// already stopped (a single-use Run).
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if !e.strandsShut {
		e.shutdown()
	}
	e.persistent = false
}

// Machine exposes the simulated machine, e.g. to allocate and initialize
// input arrays before Run and to read outputs after it.
func (e *Engine) Machine() *machine.Machine { return e.mach }

// Run executes root as the original task under RWS and returns the
// simulated outcome; CopyCounters and Stats read the run's per-processor
// counters and the engine's bookkeeping until the next Reset. An Engine
// runs once per configuration: a second Run requires a Reset in between
// (which may re-apply the same Config).
func (e *Engine) Run(rootFn func(*Ctx)) Result {
	e.checkFresh("Run")
	e.execute(e.cfg.RootStackWords, strandJob{fn: rootFn})
	if !e.persistent {
		e.shutdown()
	}
	return e.collect()
}

// RunLean is Run. It is kept only because the benchmark module (bench/)
// compiles against it; a change to the benchmark may switch bench/ to Run
// and delete it.
func (e *Engine) RunLean(rootFn func(*Ctx)) Result { return e.Run(rootFn) }

// checkFresh panics unless the engine may start a computation: it is not
// closed, and it was not run since it was built or Reset.
func (e *Engine) checkFresh(call string) {
	if e.closed {
		panic("rws: Engine." + call + " on a closed engine (Close retires an engine for good)")
	}
	if e.root != nil {
		panic("rws: Engine." + call + " after a run (Reset the engine between runs)")
	}
}

// execute runs one computation to completion from its root job: the root
// kernel of Run, or the whole op range of a Replay.
func (e *Engine) execute(rootStackWords int, job strandJob) {
	e.root = e.newTask(rootStackWords, false)
	st := e.newStrand(e.root, job)
	e.running[0] = st
	st.proc = 0

	// All clocks are zero, so processor 0 holds the minimum: the root strand
	// runs first, and the driver returns once the root finished.
	e.next = st
	e.drive()
	e.drain()
	e.settleParked()
}

// drive is the driver loop: it resumes the next strand — its coroutine, or
// in a replay its op cursor — until a yield leaves none, then re-raises any
// algorithm panic. A single-use engine stops its coroutines first, since no
// Close will.
func (e *Engine) drive() {
	for e.next != nil {
		st := e.next
		e.next = nil
		if e.trace != nil {
			e.replayStrand(st)
		} else {
			st.resume()
		}
	}
	if e.fault != nil {
		if !e.persistent {
			e.shutdown()
		}
		panic(fmt.Sprintf("rws: algorithm panicked on processor %d: %v", e.faultProc, e.fault))
	}
}

// drain retires strands that already reported their join completion but had
// not yet finished when the root completed. At that point every join in the
// dag is complete, so each remaining strand's next action is its finish,
// which returns straight to the driver (finishStrand sees done).
func (e *Engine) drain() {
	for spins := 0; ; spins++ {
		if spins > len(e.running)+4 {
			panic("rws: drain did not converge; strand left in unexpected state")
		}
		pending := false
		for p, st := range e.running {
			if st == nil {
				continue
			}
			pending = true
			st.proc = p
			e.next = st
			e.drive()
			if e.running[p] != nil {
				panic("rws: drained strand did not finish")
			}
		}
		if !pending {
			return
		}
	}
}

// shutdown stops every pooled strand coroutine: one suspended in its job
// loop returns, and one a panic left suspended mid-kernel unwinds with
// errStrandStopped. Persistent engines skip this after Run and keep the
// coroutines for the next Reset+Run; Close calls it when the engine retires.
func (e *Engine) shutdown() {
	for _, st := range e.allStrands {
		if st.stop != nil { // a strand only a replay used has no coroutine
			st.stop()
		}
	}
	e.strandsShut = true
}

// idleStep advances idle processor p by one action: popping its own deque
// bottom (the paper's "retrieves the task from the bottom of its queue") or
// attempting one steal. Runs inline in the running strand. Once the budget
// is spent on a machine without steal pricing, p parks instead: it leaves
// the clock heap for good (see Parking in the package comment).
func (e *Engine) idleStep(p int) {
	if sp := e.deques[p].popBottom(); sp != nil {
		e.idlePops++
		e.clock[p] += e.mach.CostNode
		e.startSpawn(p, sp, false)
	} else if e.stealBudget == 0 && !e.stealPriced && e.mach.P > 1 {
		e.sched.remove(p)
		return
	} else {
		e.stealAttempt(p)
	}
	e.stats.IdleSpun++
	e.sched.fix(p)
}

// nextStrand runs the engine loop — idle processors' pops and steal
// attempts, inline — until a processor with a strand holds the (clock,
// proc) minimum, and returns that strand bound to the processor.
func (e *Engine) nextStrand() *strand {
	for {
		p := e.sched.min()
		if st := e.running[p]; st != nil {
			st.proc = p
			return st
		}
		e.idleStep(p)
	}
}

// settleParked charges each parked processor the failed attempts it would
// have made: one per key (c0 + k·CostFailSteal, p), k ≥ 0, below the key of
// the run's last min-check winner, c0 being p's clock when it parked. That
// winner is the root strand at its finish, since every charge on its way
// there is followed by a check: its key is (finishTime, finishProc).
func (e *Engine) settleParked() {
	f := e.mach.CostFailSteal
	for _, p := range e.sched.removed() {
		n := parkedAttempts(e.clock[p], int(p), e.finishTime, e.finishProc, f)
		e.clock[p] += machine.Tick(n) * f
		e.mach.Proc[p].StealsFail += n
		e.mach.Proc[p].StealTicks += machine.Tick(n) * f
		e.failed += n
		e.stats.IdleSettled += n
	}
}

// parkedAttempts counts the keys (c0 + k·f, p), k ≥ 0, below (c, q):
// ⌈(c−c0)/f⌉ below clock c, and one more at c when f divides c−c0 and p < q.
func parkedAttempts(c0 machine.Tick, p int, c machine.Tick, q int, f machine.Tick) int64 {
	d := c - c0
	n := (d + f - 1) / f
	if d%f == 0 && p < q {
		n++
	}
	return int64(n)
}

// stealAttempt performs one steal attempt by idle processor p. Victim
// choice and the per-steal take size are delegated to the configured
// StealPolicy; the attempt protocol itself — one victim draw per attempt
// (before the budget check, so RNG consumption does not depend on the
// remaining budget), one CostSteal or CostFailSteal charge, one budget
// decrement per successful steal regardless of take size — is fixed here.
func (e *Engine) stealAttempt(p int) {
	pc := &e.mach.Proc[p]
	if e.mach.P == 1 {
		// No victims exist; the lone processor can only be idle after the
		// computation finished, so just let time pass defensively.
		e.clock[p] += e.mach.CostFailSteal
		return
	}
	v := e.policy.Victim(&e.view, p, e.rng)
	if v == p || v < 0 || v >= e.mach.P {
		panic(fmt.Sprintf("rws: policy %q chose invalid victim %d for thief %d of %d",
			e.policy.Name(), v, p, e.mach.P))
	}
	if e.stealPriced {
		// Distance pricing lands at attempt time — the probe crosses the
		// interconnect before the thief learns whether the deque has work —
		// so failed remote probes pay the remote price too.
		price, remote := e.mach.StealPrice(p, v)
		e.clock[p] += price
		pc.StealLatency += price
		if remote {
			pc.RemoteSteals++
		}
	}
	if e.stealBudget != 0 {
		if n := e.deques[v].size(); n > 0 {
			sp := e.deques[v].popTop()
			if e.stealBudget > 0 {
				e.stealBudget--
			}
			e.clock[p] += e.mach.CostSteal
			pc.StealsOK++
			pc.StealTicks += e.mach.CostSteal
			e.steals++
			e.consecFail[p] = 0
			if k := e.policy.Take(n); k > 1 {
				// Multi-take: the tasks beyond the first migrate to the
				// thief's own deque (empty, or the idle step would have
				// popped it), oldest nearest the top, keeping steal order.
				// Each pop consumes the original spawn (the forker's
				// join-decision recycling assumes a popped spawn's fields
				// were copied out) and re-queues a migrant copy; direct
				// deque pushes, since migration creates no new spawns.
				if k > n {
					k = n
				}
				for i := 1; i < k; i++ {
					sp := e.deques[v].popTop()
					if !sp.migrant {
						cp := e.getSpawn()
						*cp = *sp
						cp.migrant = true
						sp = cp
					}
					e.deques[p].pushBottom(sp)
					e.migrated++
				}
			}
			e.startSpawn(p, sp, true)
			return
		}
	}
	e.clock[p] += e.mach.CostFailSteal
	pc.StealsFail++
	pc.StealTicks += e.mach.CostFailSteal
	e.failed++
	e.consecFail[p]++
}

// defaultStackWords sizes a stolen task's stack when its fork site gave no
// hint.
const defaultStackWords = 4096

// startSpawn begins executing spawn sp on processor p. If stolen, sp becomes
// a fresh task with its own execution stack; otherwise it runs as a new
// strand of its owning task's kernel. sp itself stays with the forking
// strand, which recycles it at the join decision point.
func (e *Engine) startSpawn(p int, sp *spawn, stolen bool) {
	task := sp.task
	if stolen {
		hint := sp.stackHint
		if hint <= 0 {
			hint = defaultStackWords
		}
		task = e.newTask(hint, true)
	}
	st := e.newStrand(task, sp.strandJob)
	if sp.migrant {
		// No forking strand holds a migrant copy; recycle it here, its
		// fields now copied into the job.
		e.putSpawn(sp)
	}
	st.proc = p
	e.running[p] = st
}

// slabLen sizes the metadata slabs; peak live object counts beyond it just
// cost another slab.
const slabLen = 64

func (e *Engine) newTask(stackWords int, stolen bool) *Task {
	var t *Task
	if n := len(e.taskFree); n > 0 {
		t = e.taskFree[n-1]
		e.taskFree = e.taskFree[:n-1]
		*t = Task{}
	} else {
		if len(e.taskSlab) == 0 {
			e.taskSlab = make([]Task, slabLen)
		}
		t = &e.taskSlab[0]
		e.taskSlab = e.taskSlab[1:]
	}
	t.id = e.taskSeq
	t.stack = e.pool.Get(stackWords)
	t.stolen = stolen
	e.taskSeq++
	if e.audit != nil {
		e.audit.register(t, e.mach.B)
	}
	return t
}

// putTask recycles a stolen task whose last strand finished; its metrics
// were recorded and its stack already returned to the exec pool.
func (e *Engine) putTask(t *Task) {
	t.stack = nil
	e.taskFree = append(e.taskFree, t)
}

// newStrand binds job to a pooled strand; the strand runs it when the driver
// resumes it. A coroutine run gives the strand a coroutine the first time it
// needs one, a replay points the strand's op cursor at the job's range.
func (e *Engine) newStrand(t *Task, job strandJob) *strand {
	var st *strand
	if n := len(e.strandFree); n > 0 {
		st = e.strandFree[n-1]
		e.strandFree = e.strandFree[:n-1]
	} else {
		if len(e.strandSlab) == 0 {
			e.strandSlab = make([]strand, slabLen)
		}
		st = &e.strandSlab[0]
		e.strandSlab = e.strandSlab[1:]
		e.allStrands = append(e.allStrands, st)
	}
	if e.trace != nil {
		st.pc, st.end, st.phase, st.sub = job.lo, job.hi, 0, 0
		st.frames = st.frames[:0]
	} else if st.resume == nil {
		st.resume, st.stop = iter.Pull(e.runJobs(st))
	}
	st.task = t
	t.liveStrands++
	job.task = t
	st.job = job
	return st
}

// putStrand parks a finished strand on the free list; its coroutine returns
// to its job loop.
func (e *Engine) putStrand(st *strand) {
	st.task = nil
	e.strandFree = append(e.strandFree, st)
}

// runJobs is the body of one pooled strand coroutine: run the strand's job,
// then yield to the driver until it is resumed with the next one — or keep
// going without a switch when finishing handed the strand its own next job
// — until shutdown stops it. The top frame recovers a kernel panic into
// e.fault for Run to re-raise, and the sentinel a stopped strand unwinds
// with.
func (e *Engine) runJobs(st *strand) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		defer func() {
			if pv := recover(); pv != nil && pv != errStrandStopped {
				e.fault, e.faultProc = pv, st.proc
				e.next = nil
			}
		}()
		st.yield = yield
		for {
			e.runJob(st)
			if e.next == st {
				e.next = nil
				continue
			}
			if !yield(struct{}{}) {
				return
			}
		}
	}
}

// runJob executes the strand's job, the fork closure or leaf range, and
// then the finish step, which records the strand the driver resumes next.
func (e *Engine) runJob(st *strand) {
	job := st.job
	st.job = strandJob{}
	st.ctx = Ctx{e: e, s: st}
	c := &st.ctx
	if job.fn != nil {
		job.fn(c)
	} else {
		c.forkRange(job.lo, job.hi, job.hintFn, job.body)
	}
	for e.finish(st, job.jc) {
		c.wait()
	}
}

// finishStrand retires st after its job's body and join report completed:
// it releases the strand (and, for a stolen task's last strand, the task
// and its stack) back to the pools, unparks the forking strand if it waited
// on jc, and records the strand the driver resumes next — none when the
// computation is done, the next runnable strand otherwise. The finish step
// calls it for coroutine and replayed strands alike.
func (e *Engine) finishStrand(st *strand, jc *joinCell) {
	p := st.proc
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
		e.finishTime, e.finishProc = e.clock[p], p
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
		e.stats.Handoffs++
	}
}

// charge applies one timed access of n words at a by processor p for a
// strand of task t: the coherence delay plus work extra ticks. The calling
// step synced first and settles the heap after.
func (e *Engine) charge(t *Task, p int, a mem.Addr, n int, write bool, work machine.Tick) {
	t.accesses += int64(n)
	e.clock[p] += e.mach.AccessRange(p, a, n, write, e.clock[p]) + work
	e.mach.Proc[p].WorkTicks += work
}

// Join-cell and spawn free lists.

func (e *Engine) getJoin(addr mem.Addr) *joinCell {
	var jc *joinCell
	if n := len(e.jcFree); n > 0 {
		jc = e.jcFree[n-1]
		e.jcFree = e.jcFree[:n-1]
	} else {
		if len(e.jcSlab) == 0 {
			e.jcSlab = make([]joinCell, slabLen)
		}
		jc = &e.jcSlab[0]
		e.jcSlab = e.jcSlab[1:]
	}
	jc.addr = addr
	jc.childDone = false
	jc.parked = nil
	jc.refs = 2
	return jc
}

// releaseJoin drops one of a join cell's two holds and recycles the cell
// when the second drop lands.
func (e *Engine) releaseJoin(jc *joinCell) {
	jc.refs--
	if jc.refs == 0 {
		e.putJoin(jc)
	}
}

func (e *Engine) putJoin(jc *joinCell) {
	jc.parked = nil
	e.jcFree = append(e.jcFree, jc)
}

func (e *Engine) getSpawn() *spawn {
	if n := len(e.spFree); n > 0 {
		sp := e.spFree[n-1]
		e.spFree = e.spFree[:n-1]
		return sp
	}
	if len(e.spSlab) == 0 {
		e.spSlab = make([]spawn, slabLen)
	}
	sp := &e.spSlab[0]
	e.spSlab = e.spSlab[1:]
	return sp
}

func (e *Engine) putSpawn(sp *spawn) {
	*sp = spawn{}
	e.spFree = append(e.spFree, sp)
}

// Deque operations. These are called from the running strand or Run's
// goroutine; only one of them is ever active, so no locking is needed.

func (e *Engine) pushBottom(p int, sp *spawn) {
	e.deques[p].pushBottom(sp)
	e.spawns++
}

// popBottomIf removes sp from the bottom of p's deque iff it is still there
// (i.e. it was not stolen, not popped by the idle-path, and not migrated to
// another deque by a multi-take steal policy).
func (e *Engine) popBottomIf(p int, sp *spawn) bool {
	if e.deques[p].popBottomIf(sp) {
		e.inlinePops++
		return true
	}
	return false
}

// CopyCounters appends the last run's per-processor counters to buf
// (which may be nil) and returns the extended slice; Result.Totals is
// their sum. A caller that samples every run reuses one buffer.
func (e *Engine) CopyCounters(buf []machine.ProcCounters) []machine.ProcCounters {
	return append(buf, e.mach.Proc...)
}

// Stats returns the engine's bookkeeping for its last run, which a Reset
// zeroes.
func (e *Engine) Stats() Stats { return e.stats }

func (e *Engine) collect() Result {
	var audits []StackAudit
	if e.audit != nil {
		e.audit.finishAll()
		audits = e.audit.results
	}
	total, maxPer := e.mach.BlockTransfers()
	e.stats.StacksCreated, e.stats.StacksReused = e.pool.Stats()
	sizes := e.stolenSizes
	if len(sizes) == 0 {
		// A budgeted engine pre-sizes the slice; normalizing the no-steal
		// case to nil keeps Results bit-comparable regardless of how the
		// backing was provisioned (fresh construction or Reset carry-over).
		sizes = nil
	}
	return Result{
		Params:              e.mach.Params,
		Makespan:            e.finishTime,
		Totals:              e.mach.Totals(),
		Steals:              e.steals,
		FailedSteals:        e.failed,
		Spawns:              e.spawns,
		Usurpations:         e.usurpations,
		SpawnsMigrated:      e.migrated,
		InlinePops:          e.inlinePops,
		IdlePops:            e.idlePops,
		BlockTransfersTotal: total,
		BlockTransfersMax:   maxPer,
		MaxWriteCount:       e.mach.MaxWriteCount(),
		StolenKernelSizes:   sizes,
		RootStackPeak:       int64(e.root.stack.Peak()),
		StackAudits:         audits,
	}
}

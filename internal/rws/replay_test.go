package rws

import (
	"errors"
	"reflect"
	"testing"

	"rwsfs/internal/exec"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// recordAt records workload over words of input on a fresh engine under
// cfg.
func recordAt(t *testing.T, cfg Config, words int, workload func(*Ctx, mem.Addr)) *Trace {
	t.Helper()
	e := MustNewEngine(cfg)
	base := e.Machine().Alloc.Alloc(words)
	tr, err := e.Record(func(c *Ctx) { workload(c, base) }, 0)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	return tr
}

// TestGoldenReplay records every golden and policy golden under its
// Config, replays it under the same Config, and requires the pinned
// values, and a Result, per-processor counters and Stats equal to Run's:
// the coroutine run and the replay drive the same protocol steps, so they
// must stop at the same points (the handoffs) and park the same processors
// (the idle steps spun and settled), which Result equality cannot see.
func TestGoldenReplay(t *testing.T) {
	for _, g := range append(goldenCases(), policyGoldenCases()...) {
		g := g
		t.Run(g.name, func(t *testing.T) {
			tr := recordAt(t, g.cfg(), g.words, g.workload)
			rep := MustNewEngine(g.cfg())
			res := rep.Replay(tr)
			replayed := outcomeOf(rep, res)
			if res.Makespan != g.makespan || res.Totals != g.totals ||
				res.Steals != g.steals || res.FailedSteals != g.failedSteals ||
				res.Spawns != g.spawns || res.InlinePops != g.inlinePops || res.IdlePops != g.idlePops ||
				res.Usurpations != g.usurpations || res.SpawnsMigrated != g.migrated ||
				res.BlockTransfersTotal != g.transfersTot || res.BlockTransfersMax != g.transfersMax ||
				res.MaxWriteCount != g.maxWriteCount {
				t.Errorf("replay diverged from the pinned golden:\nmakespan %d totals %+v\nsteals %d/%d spawns %d inline %d idle %d usurp %d migrated %d transfers %d/%d maxWrite %d",
					res.Makespan, res.Totals, res.Steals, res.FailedSteals, res.Spawns, res.InlinePops,
					res.IdlePops, res.Usurpations, res.SpawnsMigrated, res.BlockTransfersTotal,
					res.BlockTransfersMax, res.MaxWriteCount)
			}
			e := MustNewEngine(g.cfg())
			base := e.Machine().Alloc.Alloc(g.words)
			if run := outcomeOf(e, e.Run(func(c *Ctx) { g.workload(c, base) })); !reflect.DeepEqual(run, replayed) {
				t.Errorf("replay diverged from Run:\nrun:    %+v\nreplay: %+v", run, replayed)
			}
		})
	}
}

// TestReplayLockstep replays every golden with Config.DisableFastPath set:
// the strands then re-enter the scheduler after every timed request, as
// coroutine strands do, and the Result, per-processor counters and Stats
// but the handoffs must not change.
func TestReplayLockstep(t *testing.T) {
	replay := func(cfg Config, tr *Trace) outcome {
		e := MustNewEngine(cfg)
		return outcomeOf(e, e.Replay(tr)).withoutHandoffs()
	}
	for _, g := range append(goldenCases(), policyGoldenCases()...) {
		tr := recordAt(t, g.cfg(), g.words, g.workload)
		want := replay(g.cfg(), tr)
		cfg := g.cfg()
		cfg.DisableFastPath = true
		if got := replay(cfg, tr); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: lockstep replay diverged:\nfast:     %+v\nlockstep: %+v", g.name, want, got)
		}
	}
}

// TestRecordRejects covers each way a recording can fail: a kernel whose
// stack addresses cannot be expressed as segment offsets, and one that
// touches memory allocated after the run began. Each must fail with
// ErrNotReplayable and no trace, and stop the kernel at the offending
// call: the flag the kernel sets after it stays unset.
func TestRecordRejects(t *testing.T) {
	cases := []struct {
		name   string
		kernel func(e *Engine, after *bool) func(*Ctx)
	}{
		{"stack word past its segment", func(_ *Engine, after *bool) func(*Ctx) {
			return func(c *Ctx) {
				seg := c.Alloc(4)
				c.Write(seg.Base + 4)
				*after = true
				c.Free(seg)
			}
		}},
		{"stack word of a freed segment", func(_ *Engine, after *bool) func(*Ctx) {
			return func(c *Ctx) {
				seg := c.Alloc(4)
				c.Free(seg)
				c.Read(seg.Base)
				*after = true
			}
		}},
		{"memory allocated during the run", func(e *Engine, after *bool) func(*Ctx) {
			return func(c *Ctx) {
				c.Read(e.Machine().Alloc.Alloc(8))
				*after = true
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := MustNewEngine(DefaultConfig(1))
			e.Machine().Alloc.Alloc(64) // inputs below the mark are fine
			after := false
			tr, err := e.Record(tc.kernel(e, &after), 0)
			if !errors.Is(err, ErrNotReplayable) || tr != nil {
				t.Fatalf("Record = %v, %v; want no trace and ErrNotReplayable", tr, err)
			}
			if after {
				t.Fatal("the kernel ran on past the call that rejected its recording")
			}
			t.Log(err)
		})
	}
}

// TestRecordForkSpans: each fork op's count is its join's distance from
// its pop-if, which is where a replayed fork ends its right side, in every
// golden's trace; and a join too far past its pop-if for the count field
// rejects the recording as not replayable. The long span is faked: the
// trace claims the ops without holding them.
func TestRecordForkSpans(t *testing.T) {
	for _, g := range append(goldenCases(), policyGoldenCases()...) {
		tr := recordAt(t, g.cfg(), g.words, g.workload)
		forks := 0
		for i := 0; i < tr.Len(); i++ {
			if o := tr.at(i); o.code() == opFork {
				forks++
				if popIf := tr.at(int(o.y)); popIf.code() != opPopIf || int(o.y)+int(o.count()) != int(popIf.x) {
					t.Fatalf("%s: fork op %d: pop-if at %d, count %d; its join is at %d", g.name, i, o.y, o.count(), popIf.x)
				}
			}
		}
		if forks == 0 {
			t.Fatalf("%s: no fork in the trace", g.name)
		}
	}

	r := &recorder{tr: &Trace{n: 2 + maxCount}, forks: []openFork{{fork: 0, popIf: 1}}}
	defer func() {
		if pv := recover(); pv != errRecordStopped || !errors.Is(r.err, ErrNotReplayable) {
			t.Fatalf("join = panic %v, error %v; want errRecordStopped and ErrNotReplayable", pv, r.err)
		}
	}()
	r.join(exec.Seg{})
	t.Fatalf("a join %d ops past its pop-if was recorded", maxCount+1)
}

// TestRecordLimit holds a recording to its byte limit: a limit the trace
// fits accepts it; one a chunk short rejects it with ErrTraceLimit and no
// trace, and stops the kernel before its loop ends; and a rejected
// recording still leaves the engine ready for Reset.
func TestRecordLimit(t *testing.T) {
	const words = 1 << 10
	iters := 0
	kernel := func(base mem.Addr) func(*Ctx) {
		return func(c *Ctx) {
			for i := 0; i < 3*chunkLen; i++ { // a work op and an access op each
				iters++
				c.Work(1)
				c.Read(base + mem.Addr(i*37%words))
			}
		}
	}
	record := func(limit int64) (*Trace, error) {
		iters = 0
		e := MustNewEngine(DefaultConfig(1))
		defer e.Close()
		tr, err := e.Record(kernel(e.Machine().Alloc.Alloc(words)), limit)
		if rerr := e.Reset(DefaultConfig(1)); rerr != nil {
			t.Fatalf("Reset after Record(limit %d): %v", limit, rerr)
		}
		return tr, err
	}
	full, err := record(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(6) * chunkBytes; full.Bytes() != want {
		t.Fatalf("unlimited trace takes %d bytes, want %d", full.Bytes(), want)
	}
	if tr, err := record(full.Bytes()); err != nil || tr.Bytes() != full.Bytes() || tr.Len() != full.Len() {
		t.Fatalf("Record at a limit the trace fits: %v, %v", tr, err)
	}
	tr, err := record(full.Bytes() - 1)
	if !errors.Is(err, ErrTraceLimit) || tr != nil {
		t.Fatalf("Record a byte short = %v, %v; want no trace and ErrTraceLimit", tr, err)
	}
	if iters >= 3*chunkLen {
		t.Fatalf("the kernel ran all %d iterations after its recording was rejected", iters)
	}
	t.Log(err)
}

// TestRecordKernelPanic checks that a kernel's own panic, raised inside a
// fork, leaves Record with the kernel's own value.
func TestRecordKernelPanic(t *testing.T) {
	e := MustNewEngine(DefaultConfig(1))
	base := e.Machine().Alloc.Alloc(8)
	defer func() {
		if pv := recover(); pv != "boom" {
			t.Fatalf("Record panicked with %v, want the kernel's own value", pv)
		}
	}()
	e.Record(func(c *Ctx) {
		c.Fork(func(c *Ctx) { c.Read(base) }, func(c *Ctx) { panic("boom") })
	}, 0)
	t.Fatal("Record returned after its kernel panicked")
}

// TestRecordIgnoresSchedule records one fork-heavy kernel on engines that
// would steal and park in a run: P in {1, 8, 70}, flat and two sockets
// with priced steals, every policy, unlimited and spent budgets. A
// recording walks the kernel serially, so each trace must equal the P = 1
// trace op for op, and the engine must start no strand and make no
// handoff.
func TestRecordIgnoresSchedule(t *testing.T) {
	const words = 256
	workload := func(c *Ctx, base mem.Addr) {
		var rec func(c *Ctx, lo, hi int)
		rec = func(c *Ctx, lo, hi int) {
			seg := c.Alloc(2)
			c.Write(seg.Base)
			if hi-lo <= 8 {
				c.ForkN(hi-lo, func(j int, c *Ctx) {
					i := lo + j
					c.Work(machine.Tick(1 + i%7))
					c.StoreInt(base+mem.Addr(i), int64(i))
				})
			} else {
				mid := (lo + hi) / 2
				c.PlaceLocal(seg.Base, 2)
				c.ForkHint(64, func(c *Ctx) { rec(c, lo, mid) }, func(c *Ctx) { rec(c, mid, hi) })
			}
			c.Read(seg.Base + 1)
			c.Free(seg)
		}
		rec(c, 0, words)
	}
	want := recordAt(t, DefaultConfig(1), words, workload)
	n := 0
	for _, p := range []int{1, 8, 70} {
		for _, sockets := range []int{0, 2} {
			if sockets > p {
				continue
			}
			for _, pol := range Policies() {
				for _, budget := range []int64{-1, 0} {
					cfg := DefaultConfig(p)
					if sockets > 0 {
						cfg.Machine.Topology = machine.Topology{Sockets: sockets,
							CostMissRemote: 4 * cfg.Machine.CostMiss, CostSteal: 5, CostStealRemote: 25}
					}
					cfg.Policy, cfg.StealBudget = pol, budget
					e := MustNewEngine(cfg)
					base := e.Machine().Alloc.Alloc(words)
					got, err := e.Record(func(c *Ctx) { workload(c, base) }, 0)
					if err != nil {
						t.Fatalf("p=%d sockets=%d %s budget %d: Record: %v", p, sockets, pol.Name(), budget, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("p=%d sockets=%d %s budget %d: trace of %d ops differs from the P = 1 trace of %d",
							p, sockets, pol.Name(), budget, got.Len(), want.Len())
					}
					if len(e.allStrands) != 0 || e.Stats().Handoffs != 0 {
						t.Fatalf("p=%d sockets=%d %s budget %d: recording started %d strands and made %d handoffs",
							p, sockets, pol.Name(), budget, len(e.allStrands), e.Stats().Handoffs)
					}
					n++
				}
			}
		}
	}
	t.Logf("%d recordings, %d ops each", n, want.Len())
}

// TestReplayAndRunShareStrands passes one engine's strand pool between the
// two modes: a replay creates strands without coroutines, the coroutine run
// after it gives them one, and Close stops only the coroutines that exist.
// Every Result, with its per-processor counters and Stats, must equal a
// fresh engine's.
func TestReplayAndRunShareStrands(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Seed = 5
	workload := func(c *Ctx, out mem.Addr) {
		c.ForkN(256, func(j int, c *Ctx) {
			c.Work(machine.Tick(1 + j%7))
			c.StoreInt(out+mem.Addr(j), int64(j))
		})
	}
	fresh := MustNewEngine(cfg)
	out := fresh.Machine().Alloc.Alloc(256)
	want := outcomeOf(fresh, fresh.Run(func(c *Ctx) { workload(c, out) }))
	tr := recordAt(t, cfg, 256, workload)

	e := MustNewEngine(DefaultConfig(1))
	defer e.Close()
	for i, replay := range []bool{true, false, true, false} {
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		var res Result
		if replay {
			res = e.Replay(tr)
		} else {
			out := e.Machine().Alloc.Alloc(256)
			res = e.Run(func(c *Ctx) { workload(c, out) })
		}
		if got := outcomeOf(e, res); !reflect.DeepEqual(want, got) {
			t.Fatalf("run %d (replay %v) diverged from a fresh engine:\nfresh: %+v\ngot:   %+v", i, replay, want, got)
		}
	}
	// An engine that only replayed has no coroutine for Close to stop.
	only := MustNewEngine(cfg)
	only.Replay(tr)
	only.Close()
}

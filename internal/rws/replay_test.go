package rws

import (
	"errors"
	"reflect"
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// recordAt records workload over words of input at P = 1 on a fresh engine
// with cfg's block size and stack sizes.
func recordAt(t *testing.T, cfg Config, words int, workload func(*Ctx, mem.Addr)) *Trace {
	t.Helper()
	rc := cfg
	rc.Machine.P = 1
	rc.Machine.Topology = machine.Topology{}
	e := MustNewEngine(rc)
	base := e.Machine().Alloc.Alloc(words)
	tr, err := e.Record(func(c *Ctx) { workload(c, base) })
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	return tr
}

// TestGoldenReplay records every golden and policy golden at P = 1,
// replays it under the golden's Config, and requires the pinned values, a
// Result equal to RunLean's, and the same number of strand handoffs: the
// coroutine run and the replay drive the same protocol steps, so they must
// stop at the same points, which Result equality cannot see.
func TestGoldenReplay(t *testing.T) {
	for _, g := range append(goldenCases(), policyGoldenCases()...) {
		g := g
		t.Run(g.name, func(t *testing.T) {
			tr := recordAt(t, g.cfg(), g.words, g.workload)
			rep := MustNewEngine(g.cfg())
			res := rep.Replay(tr)
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
			if run := e.RunLean(func(c *Ctx) { g.workload(c, base) }); !reflect.DeepEqual(run, res) {
				t.Errorf("replay diverged from RunLean:\nrun:    %+v\nreplay: %+v", run, res)
			}
			if e.handoffCount() != rep.handoffCount() {
				t.Errorf("run made %d handoffs, replay %d", e.handoffCount(), rep.handoffCount())
			}
		})
	}
}

// TestReplayLockstep replays every golden with Config.DisableFastPath set:
// the strands then re-enter the scheduler after every timed request, as
// coroutine strands do, and the Result must not change.
func TestReplayLockstep(t *testing.T) {
	for _, g := range append(goldenCases(), policyGoldenCases()...) {
		tr := recordAt(t, g.cfg(), g.words, g.workload)
		want := MustNewEngine(g.cfg()).Replay(tr)
		cfg := g.cfg()
		cfg.DisableFastPath = true
		if got := MustNewEngine(cfg).Replay(tr); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: lockstep replay diverged:\nfast:     %+v\nlockstep: %+v", g.name, want, got)
		}
	}
}

// TestRecordRejects covers each way a recording can fail: a kernel whose
// stack addresses cannot be expressed as segment offsets, one that touches
// memory allocated after the run began, and a steal that splits the
// stream. Each must fail with
// ErrNotReplayable and no trace.
func TestRecordRejects(t *testing.T) {
	cases := []struct {
		name   string
		p      int
		kernel func(e *Engine) func(*Ctx)
	}{
		{"stack word past its segment", 1, func(*Engine) func(*Ctx) {
			return func(c *Ctx) {
				seg := c.Alloc(4)
				c.Write(seg.Base + 4)
				c.Free(seg)
			}
		}},
		{"stack word of a freed segment", 1, func(*Engine) func(*Ctx) {
			return func(c *Ctx) {
				seg := c.Alloc(4)
				c.Free(seg)
				c.Read(seg.Base)
			}
		}},
		{"memory allocated during the run", 1, func(e *Engine) func(*Ctx) {
			return func(c *Ctx) { c.Read(e.Machine().Alloc.Alloc(8)) }
		}},
		{"a steal", 2, func(*Engine) func(*Ctx) {
			return func(c *Ctx) { c.ForkN(16, func(_ int, c *Ctx) { c.Work(50) }) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := MustNewEngine(DefaultConfig(tc.p))
			e.Machine().Alloc.Alloc(64) // inputs below the mark are fine
			tr, err := e.Record(tc.kernel(e))
			if !errors.Is(err, ErrNotReplayable) || tr != nil {
				t.Fatalf("Record = %v, %v; want no trace and ErrNotReplayable", tr, err)
			}
			t.Log(err)
		})
	}
}

// TestReplayAndRunShareStrands passes one engine's strand pool between the
// two modes: a replay creates strands without coroutines, the coroutine run
// after it gives them one, and Close stops only the coroutines that exist.
// Every Result must equal a fresh engine's.
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
	want := fresh.RunLean(func(c *Ctx) { workload(c, out) })
	tr := recordAt(t, cfg, 256, workload)

	e := MustNewEngine(DefaultConfig(1))
	defer e.Close()
	for i, replay := range []bool{true, false, true, false} {
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		var got Result
		if replay {
			got = e.Replay(tr)
		} else {
			out := e.Machine().Alloc.Alloc(256)
			got = e.RunLean(func(c *Ctx) { workload(c, out) })
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("run %d (replay %v) diverged from a fresh engine:\nfresh: %+v\ngot:   %+v", i, replay, want, got)
		}
	}
	// An engine that only replayed has no coroutine for Close to stop.
	only := MustNewEngine(cfg)
	only.Replay(tr)
	only.Close()
}

package rws

import (
	"testing"

	"rwsfs/internal/mem"
)

func TestForkNEdgeCases(t *testing.T) {
	e := MustNewEngine(DefaultConfig(2))
	out := e.Machine().Alloc.Alloc(4)
	e.Run(func(c *Ctx) {
		c.ForkN(0, func(i int, c *Ctx) { t.Error("body called for k=0") })
		c.ForkN(1, func(i int, c *Ctx) { c.StoreInt(out+mem.Addr(i), 7) })
		c.ForkN(3, func(i int, c *Ctx) { c.StoreInt(out+mem.Addr(1+i), int64(i)) })
	})
	mm := e.Machine().Mem
	if mm.LoadInt(out) != 7 || mm.LoadInt(out+1) != 0 || mm.LoadInt(out+2) != 1 || mm.LoadInt(out+3) != 2 {
		t.Error("ForkN leaves wrote wrong values")
	}
}

func TestZeroAndNegativeCharges(t *testing.T) {
	e := MustNewEngine(DefaultConfig(1))
	res := e.Run(func(c *Ctx) {
		c.Work(0)
		c.Work(-5)
		c.ReadRange(0, 0)
		c.WriteRange(0, -3)
		c.Node()
	})
	if res.Totals.WorkTicks != 1 { // only the Node's CostNode
		t.Errorf("work ticks %d, want 1", res.Totals.WorkTicks)
	}
	if res.Totals.AccessesTimed != 0 {
		t.Errorf("timed accesses %d, want 0", res.Totals.AccessesTimed)
	}
}

func TestFloatValueHelpers(t *testing.T) {
	e := MustNewEngine(DefaultConfig(1))
	a := e.Machine().Alloc.Alloc(2)
	e.Run(func(c *Ctx) {
		c.StoreFloat(a, 2.5)
		if got := c.LoadFloat(a); got != 2.5 {
			t.Errorf("LoadFloat = %v", got)
		}
		c.StoreInt(a+1, -9)
		if got := c.LoadInt(a + 1); got != -9 {
			t.Errorf("LoadInt = %v", got)
		}
	})
}

func TestCtxAccessors(t *testing.T) {
	e := MustNewEngine(DefaultConfig(2))
	e.Run(func(c *Ctx) {
		if c.s.proc != 0 {
			t.Errorf("root starts on proc %d", c.s.proc)
		}
		if c.s.task == nil || c.s.task.id != 0 || c.s.task.stolen {
			t.Error("root task metadata wrong")
		}
		if c.B() != 16 {
			t.Errorf("B() = %d", c.B())
		}
		if c.Mem() == nil {
			t.Error("Mem() nil")
		}
	})
}

func TestForkNHintUsedForStolenStacks(t *testing.T) {
	// Hints large enough to force a non-default stack class for thieves.
	cfg := DefaultConfig(4)
	cfg.Seed = 5
	e := MustNewEngine(cfg)
	res := e.Run(func(c *Ctx) {
		c.ForkNHint(64,
			func(lo, hi int) int { return (hi - lo) * 6000 },
			func(i int, c *Ctx) {
				seg := c.Alloc(5000) // would overflow a defaultStackWords stack
				c.Work(30)
				c.Free(seg)
			})
	})
	if res.Steals == 0 {
		t.Skip("no steals under this seed")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	cfg := DefaultConfig(0) // invalid P
	if _, err := NewEngine(cfg); err == nil {
		t.Error("NewEngine accepted P=0")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewEngine did not panic on invalid config")
		}
	}()
	MustNewEngine(cfg)
}

func TestAuditRecordsRootAndStolenTasks(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Seed = 9
	cfg.AuditStackBlocks = true
	e := MustNewEngine(cfg)
	out := e.Machine().Alloc.Alloc(128)
	res := e.Run(func(c *Ctx) {
		c.ForkN(128, func(i int, c *Ctx) {
			seg := c.Alloc(4)
			c.Write(seg.Base)
			c.StoreInt(out+mem.Addr(i), int64(i))
			c.Free(seg)
		})
	})
	if len(res.StackAudits) == 0 {
		t.Fatal("no audit records")
	}
	var sawRoot, sawStolen bool
	for _, a := range res.StackAudits {
		if a.Stolen {
			sawStolen = true
		} else {
			sawRoot = true
		}
		if a.MaxBlockMoves < 0 || (a.StackBlocks == 0 && a.MaxBlockMoves > 0) {
			t.Errorf("inconsistent audit record %+v", a)
		}
	}
	if !sawRoot {
		t.Error("root task not audited")
	}
	if res.Steals > 0 && !sawStolen {
		t.Error("stolen tasks not audited despite steals")
	}
}

func TestStolenKernelSizesRecorded(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Seed = 2
	e := MustNewEngine(cfg)
	out := e.Machine().Alloc.Alloc(256)
	res := e.Run(func(c *Ctx) {
		c.ForkN(256, func(i int, c *Ctx) {
			c.Work(20)
			c.StoreInt(out+mem.Addr(i), 1)
		})
	})
	if res.Steals > 0 && int64(len(res.StolenKernelSizes)) != res.Steals {
		t.Errorf("recorded %d kernel sizes for %d steals",
			len(res.StolenKernelSizes), res.Steals)
	}
	for _, sz := range res.StolenKernelSizes {
		if sz < 0 {
			t.Errorf("negative kernel size %d", sz)
		}
	}
}

package rws

import (
	"reflect"
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// TestFastPathDifferential runs identical (Config, workload) pairs with the
// run-ahead fast path enabled and force-disabled and requires bit-for-bit
// equal Results. The fast path claims to change only *which strand
// executes an engine action and when*, never the simulated action sequence;
// this is the test that holds it to that claim across every observable
// metric, including the per-proc counters, the stolen-kernel sizes (order-
// sensitive), the stack audits, and every Stats count but the handoffs.
func TestFastPathDifferential(t *testing.T) {
	type workload struct {
		name  string
		cfg   Config
		words int
		run   func(*Ctx, mem.Addr)
	}
	var cases []workload
	// Every pinned golden case — including the per-policy ones — doubles
	// as a differential case.
	for _, g := range append(goldenCases(), policyGoldenCases()...) {
		cases = append(cases, workload{name: "golden-" + g.name, cfg: g.cfg(), words: g.words, run: g.workload})
	}
	// A steal-budgeted, audit-enabled run across several seeds: the audit
	// path attributes block transfers to live tasks, so it is sensitive to
	// any drift in task lifecycle or access order.
	for _, seed := range []int64{3, 11, 77} {
		cfg := DefaultConfig(5)
		cfg.Seed = seed
		cfg.StealBudget = 9
		cfg.AuditStackBlocks = true
		cases = append(cases, workload{
			name:  "audit-budget-seed" + string(rune('0'+seed%10)),
			cfg:   cfg,
			words: 256,
			run: func(c *Ctx, base mem.Addr) {
				c.ForkN(64, func(j int, c *Ctx) {
					seg := c.Alloc(3)
					c.Write(seg.Base)
					c.Work(machine.Tick(1 + j%13))
					c.StoreInt(base+mem.Addr(j*2%256), int64(j))
					c.Read(seg.Base + 2)
					c.Free(seg)
				})
			},
		})
	}

	// Value-dependent timing across a racy-by-clock pair: the loaded value
	// feeds the load side's simulated work, so any drift in when a store
	// becomes visible relative to lower-clocked loads (the bug this case
	// caught: raw stores landing before the charge's entry sync replayed
	// them) diverges the Results loudly.
	for _, seed := range []int64{1, 2, 6} {
		cfg := DefaultConfig(2)
		cfg.Seed = seed
		cases = append(cases, workload{
			name:  "store-visibility-seed" + string(rune('0'+seed%10)),
			cfg:   cfg,
			words: 8,
			run: func(c *Ctx, base mem.Addr) {
				c.Fork(
					func(c *Ctx) {
						c.Work(500)
						c.StoreInt(base, 1)
					},
					func(c *Ctx) {
						v := c.LoadInt(base)
						c.Work(machine.Tick(10 + v*5000))
					})
			},
		})
	}

	for _, w := range cases {
		w := w
		t.Run(w.name, func(t *testing.T) {
			run := func(disable bool) outcome {
				cfg := w.cfg
				cfg.DisableFastPath = disable
				e := MustNewEngine(cfg)
				base := e.Machine().Alloc.Alloc(w.words)
				return outcomeOf(e, e.Run(func(c *Ctx) { w.run(c, base) })).withoutHandoffs()
			}
			fast := run(false)
			slow := run(true)
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("fast path diverged from lockstep slow path:\nfast: %+v\nslow: %+v", fast, slow)
			}
		})
	}
}

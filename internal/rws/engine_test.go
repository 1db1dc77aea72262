package rws

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// leafSquares builds a computation that writes i*i into out[i] for i < k,
// via a balanced fork tree, with each leaf doing one timed store.
func leafSquares(out mem.Addr, k int) func(*Ctx) {
	return func(c *Ctx) {
		c.ForkN(k, func(i int, c *Ctx) {
			c.Node()
			c.StoreInt(out+mem.Addr(i), int64(i*i))
		})
	}
}

// outcome is everything a run leaves to compare: its Result, the
// per-processor counters and the engine's Stats.
type outcome struct {
	Result
	PerProc []machine.ProcCounters
	Stats   Stats
}

// outcomeOf reads engine e's last run, whose Result is res.
func outcomeOf(e *Engine, res Result) outcome {
	return outcome{res, e.CopyCounters(nil), e.Stats()}
}

// withoutHandoffs drops the handoff count, which DisableFastPath changes by
// design: lockstep strands hand over after every timed request.
func (o outcome) withoutHandoffs() outcome {
	o.Stats.Handoffs = 0
	return o
}

// withoutIdle drops the idle steps spun and settled, which parking moves
// from one count to the other.
func (o outcome) withoutIdle() outcome {
	o.Stats.IdleSpun, o.Stats.IdleSettled = 0, 0
	return o
}

func runSquares(t *testing.T, cfg Config, k int) (Result, *Engine) {
	t.Helper()
	e := MustNewEngine(cfg)
	out := e.Machine().Alloc.Alloc(k)
	res := e.Run(leafSquares(out, k))
	for i := 0; i < k; i++ {
		if got := e.Machine().Mem.LoadInt(out + mem.Addr(i)); got != int64(i*i) {
			t.Fatalf("out[%d] = %d, want %d", i, got, i*i)
		}
	}
	return res, e
}

func TestSingleProcessorNoStealsNoBlockMisses(t *testing.T) {
	cfg := DefaultConfig(1)
	res, _ := runSquares(t, cfg, 256)
	if res.Steals != 0 {
		t.Errorf("p=1: steals = %d, want 0", res.Steals)
	}
	if res.Totals.BlockMisses != 0 {
		t.Errorf("p=1: block misses = %d, want 0", res.Totals.BlockMisses)
	}
	if res.Usurpations != 0 {
		t.Errorf("p=1: usurpations = %d, want 0", res.Usurpations)
	}
	if res.Totals.CacheMisses == 0 {
		t.Errorf("p=1: expected some cold cache misses")
	}
}

func TestParallelRunStealsAndCorrectness(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		cfg := DefaultConfig(p)
		res, _ := runSquares(t, cfg, 512)
		if res.Steals == 0 {
			t.Errorf("p=%d: expected steals > 0", p)
		}
		if res.Spawns == 0 {
			t.Errorf("p=%d: expected spawns > 0", p)
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Seed = 42
	a, ea := runSquares(t, cfg, 300)
	b, eb := runSquares(t, cfg, 300)
	if oa, ob := outcomeOf(ea, a), outcomeOf(eb, b); !reflect.DeepEqual(oa, ob) {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", oa, ob)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Seed = 1
	a, _ := runSquares(t, cfg, 512)
	cfg.Seed = 2
	b, _ := runSquares(t, cfg, 512)
	// Steal schedules should almost surely differ in some counter.
	if reflect.DeepEqual(a, b) {
		t.Fatalf("different seeds produced identical full results (suspicious)")
	}
}

func TestStealBudgetCapsSteals(t *testing.T) {
	for _, budget := range []int64{0, 1, 5, 17} {
		cfg := DefaultConfig(8)
		cfg.StealBudget = budget
		res, _ := runSquares(t, cfg, 512)
		if res.Steals > budget {
			t.Errorf("budget %d: steals = %d", budget, res.Steals)
		}
	}
}

func TestMakespanShrinksWithProcessors(t *testing.T) {
	// Each leaf carries real work, so parallelism must help.
	k := 256
	run := func(p int) machine.Tick {
		cfg := DefaultConfig(p)
		e := MustNewEngine(cfg)
		out := e.Machine().Alloc.Alloc(k)
		res := e.Run(func(c *Ctx) {
			c.ForkN(k, func(i int, c *Ctx) {
				c.Work(500)
				c.StoreInt(out+mem.Addr(i), int64(i))
			})
		})
		return res.Makespan
	}
	t1 := run(1)
	t8 := run(8)
	if t8*2 >= t1 {
		t.Errorf("makespan p=8 (%d) not at least 2x better than p=1 (%d)", t8, t1)
	}
}

func TestNestedForksAndStackDiscipline(t *testing.T) {
	// Deep nesting with local segments allocated and freed at each level:
	// exercises join cells sharing stack blocks and the park/usurp paths.
	cfg := DefaultConfig(4)
	e := MustNewEngine(cfg)
	out := e.Machine().Alloc.Alloc(1)
	var rec func(depth int, c *Ctx) int64
	rec = func(depth int, c *Ctx) int64 {
		if depth == 0 {
			c.Node()
			return 1
		}
		seg := c.Alloc(2)
		defer c.Free(seg)
		var l, r int64
		c.Fork(
			func(c *Ctx) { l = rec(depth-1, c) },
			func(c *Ctx) { r = rec(depth-1, c) },
		)
		// Store the partial on the local segment, timed.
		c.StoreInt(seg.Base, l+r)
		return c.LoadInt(seg.Base)
	}
	res := e.Run(func(c *Ctx) {
		total := rec(10, c)
		c.StoreInt(out, total)
	})
	if got := e.Machine().Mem.LoadInt(out); got != 1024 {
		t.Fatalf("tree sum = %d, want 1024", got)
	}
	if res.RootStackPeak <= 0 {
		t.Errorf("expected nonzero root stack peak")
	}
}

func TestUsurpationsHappenUnderContention(t *testing.T) {
	// With slow leaves and many processors, some joins must be completed
	// last by a thief, transferring the kernel (usurpation).
	cfg := DefaultConfig(8)
	cfg.Seed = 7
	e := MustNewEngine(cfg)
	out := e.Machine().Alloc.Alloc(256)
	res := e.Run(func(c *Ctx) {
		c.ForkN(256, func(i int, c *Ctx) {
			c.Work(machine.Tick(50 + (i%7)*60))
			c.StoreInt(out+mem.Addr(i), int64(i))
		})
	})
	if res.Usurpations == 0 {
		t.Errorf("expected usurpations under contention, got 0")
	}
	if res.Steals == 0 {
		t.Errorf("expected steals, got 0")
	}
}

func TestBlockMissesAriseFromTrueSharing(t *testing.T) {
	// Two forked children repeatedly write words in the same block: with
	// p>=2 and steals, invalidations must produce block misses.
	cfg := DefaultConfig(2)
	cfg.Seed = 3
	e := MustNewEngine(cfg)
	buf := e.Machine().Alloc.Alloc(cfg.Machine.B)
	res := e.Run(func(c *Ctx) {
		c.Fork(
			func(c *Ctx) {
				for i := 0; i < 200; i++ {
					c.Write(buf) // word 0
					c.Work(5)
				}
			},
			func(c *Ctx) {
				for i := 0; i < 200; i++ {
					c.Write(buf + 1) // word 1, same block: false sharing
					c.Work(5)
				}
			},
		)
	})
	if res.Steals == 0 {
		t.Skip("right side was not stolen under this seed; no sharing possible")
	}
	if res.Totals.BlockMisses == 0 {
		t.Errorf("expected false-sharing block misses, got 0")
	}
	if res.BlockTransfersMax < 10 {
		t.Errorf("expected the shared block to bounce many times, max transfers = %d", res.BlockTransfersMax)
	}
}

func TestRunTwicePanics(t *testing.T) {
	e := MustNewEngine(DefaultConfig(1))
	e.Run(func(c *Ctx) { c.Node() })
	defer func() {
		if recover() == nil {
			t.Fatalf("second Run did not panic")
		}
	}()
	e.Run(func(c *Ctx) { c.Node() })
}

func TestAlgorithmPanicSurfaces(t *testing.T) {
	e := MustNewEngine(DefaultConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatalf("algorithm panic did not surface")
		}
	}()
	e.Run(func(c *Ctx) {
		c.Node()
		panic("boom")
	})
}

// TestPanicOnStolenStrandCloseStopsCoroutines: a kernel panics on a stolen
// strand at P=4 while other strands are suspended mid-kernel. Run re-raises
// it with its processor, and every strand coroutine is stopped — by Close
// on a persistent engine, by Run itself on a single-use one — so no
// goroutine outlives the engine.
func TestPanicOnStolenStrandCloseStopsCoroutines(t *testing.T) {
	for _, persistent := range []bool{true, false} {
		before := runtime.NumGoroutine()
		cfg := DefaultConfig(4)
		e := MustNewEngine(cfg)
		if persistent {
			if err := e.Reset(cfg); err != nil {
				t.Fatal(err)
			}
		}
		out := e.Machine().Alloc.Alloc(256)
		panicProc, others := -1, 0
		func() {
			defer func() {
				want := fmt.Sprintf("rws: algorithm panicked on processor %d: boom", panicProc)
				if pv := recover(); pv != want {
					t.Fatalf("persistent=%v: Run panicked with %v, want %q", persistent, pv, want)
				}
			}()
			e.Run(func(c *Ctx) {
				c.ForkN(256, func(j int, c *Ctx) {
					c.Work(5)
					if out := len(e.allStrands) - len(e.strandFree); c.s.task.stolen && out >= 3 {
						panicProc, others = c.s.proc, out-1
						panic("boom")
					}
					c.StoreInt(out+mem.Addr(j), int64(j))
				})
			})
		}()
		if others < 2 {
			t.Fatalf("persistent=%v: only %d other strands were out at the panic", persistent, others)
		}
		if persistent && runtime.NumGoroutine() <= before {
			t.Fatalf("persistent=%v: no suspended coroutines before Close", persistent)
		}
		// A coroutine's stop returns only once it has finished, so Close
		// leaves no goroutine still on its way out.
		e.Close()
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("persistent=%v: %d goroutines after Close, %d before the run", persistent, n, before)
		}
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	// Close before any Run: nothing to shut down, and a second Close is a
	// no-op rather than a double shutdown.
	e := MustNewEngine(DefaultConfig(2))
	e.Close()
	e.Close()

	// Close after a persistent (Reset) Run: suspended coroutines stop once.
	e = MustNewEngine(DefaultConfig(2))
	if err := e.Reset(DefaultConfig(2)); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	e.Run(func(c *Ctx) { c.Node() })
	e.Close()
	e.Close()

	// Close after a single-use Run, whose coroutines were already stopped.
	e = MustNewEngine(DefaultConfig(2))
	e.Run(func(c *Ctx) { c.Node() })
	e.Close()
	e.Close()
}

func TestResetAfterCloseReturnsErrEngineClosed(t *testing.T) {
	e := MustNewEngine(DefaultConfig(2))
	if err := e.Reset(DefaultConfig(4)); err != nil {
		t.Fatalf("Reset before Close: %v", err)
	}
	e.Run(func(c *Ctx) { c.Node() })
	e.Close()
	err := e.Reset(DefaultConfig(4))
	if !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Reset after Close = %v, want ErrEngineClosed", err)
	}
	// The misuse must not have revived anything: a second Reset still fails.
	if err := e.Reset(DefaultConfig(2)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("second Reset after Close = %v, want ErrEngineClosed", err)
	}
}

func TestRunAfterClosePanicsClearly(t *testing.T) {
	e := MustNewEngine(DefaultConfig(2))
	e.Close()
	defer func() {
		pv := recover()
		if pv == nil {
			t.Fatalf("Run on a closed engine did not panic")
		}
		if msg, ok := pv.(string); !ok || !strings.Contains(msg, "closed engine") {
			t.Fatalf("Run on a closed engine panicked with %v, want a closed-engine message", pv)
		}
	}()
	e.Run(func(c *Ctx) { c.Node() })
}

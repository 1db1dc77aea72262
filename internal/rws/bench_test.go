package rws

import (
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// BenchmarkForkJoinThroughput measures simulated-node throughput of the
// engine: the practical limit on experiment sizes.
func BenchmarkForkJoinThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(4)
		e := MustNewEngine(cfg)
		out := e.Machine().Alloc.Alloc(1024)
		e.Run(func(c *Ctx) {
			c.ForkN(1024, func(j int, c *Ctx) {
				c.Node()
				c.StoreInt(out+mem.Addr(j), int64(j))
			})
		})
	}
}

// BenchmarkAccessRangeSim measures bulk access charging.
func BenchmarkAccessRangeSim(b *testing.B) {
	cfg := DefaultConfig(1)
	e := MustNewEngine(cfg)
	buf := e.Machine().Alloc.Alloc(1 << 16)
	n := 0
	e.Run(func(c *Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ReadRange(buf, 1<<12)
			n++
		}
	})
	_ = n
}

// BenchmarkEngineStep measures the scheduler hot loop — minClockProc +
// step + deque traffic — by driving one engine through a fork tree whose
// leaf count scales with b.N. Reported ns/op is ns per simulated leaf, on a
// wide machine where clock selection and steal traffic dominate.
func BenchmarkEngineStep(b *testing.B) {
	cfg := DefaultConfig(64)
	cfg.Seed = 7
	e := MustNewEngine(cfg)
	const span = 1 << 12
	out := e.Machine().Alloc.Alloc(span)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(func(c *Ctx) {
		c.ForkN(b.N, func(j int, c *Ctx) {
			c.StoreInt(out+mem.Addr(j&(span-1)), int64(j))
		})
	})
}

// BenchmarkStealHeavy measures a steal-dominated workload: tiny tasks, many
// processors.
func BenchmarkStealHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(8)
		cfg.Seed = int64(i + 1)
		e := MustNewEngine(cfg)
		out := e.Machine().Alloc.Alloc(512)
		res := e.Run(func(c *Ctx) {
			c.ForkN(512, func(j int, c *Ctx) {
				c.Work(5)
				c.StoreInt(out+mem.Addr(j), int64(j))
			})
		})
		b.ReportMetric(float64(res.Steals), "steals/op")
	}
}

// BenchmarkForkJoinReuse is BenchmarkForkJoinThroughput through one engine
// Reset between iterations: the same simulated runs, but with slabs, free
// lists, memory pages, cache/directory pages and suspended strand coroutines
// carried across runs. Tracked in BENCH_rws.json with an allocs/op ceiling
// (scripts/bench.sh): the steady state must stay at or under 10 allocs/op.
func BenchmarkForkJoinReuse(b *testing.B) {
	cfg := DefaultConfig(4)
	e := MustNewEngine(cfg)
	defer e.Close()
	iter := func() {
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		out := e.Machine().Alloc.Alloc(1024)
		e.Run(func(c *Ctx) {
			c.ForkN(1024, func(j int, c *Ctx) {
				c.Node()
				c.StoreInt(out+mem.Addr(j), int64(j))
			})
		})
	}
	iter() // warm the pools so b.N=1 runs still measure steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// BenchmarkStealHeavyReuse is BenchmarkStealHeavy through one engine Reset
// between iterations (seeds still vary per iteration, as in the fresh-engine
// benchmark). The delta against BenchmarkStealHeavy is the whole per-run
// construction bill: machine, caches, directory, memory pages, stacks and
// strand coroutines.
func BenchmarkStealHeavyReuse(b *testing.B) {
	cfg := DefaultConfig(8)
	e := MustNewEngine(cfg)
	defer e.Close()
	iter := func(seed int64) float64 {
		cfg.Seed = seed
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		out := e.Machine().Alloc.Alloc(512)
		res := e.Run(func(c *Ctx) {
			c.ForkN(512, func(j int, c *Ctx) {
				c.Work(5)
				c.StoreInt(out+mem.Addr(j), int64(j))
			})
		})
		return float64(res.Steals)
	}
	// Warm the pools on the first seeds the loop runs. The strand pool
	// grows to the largest peak any seed has needed, and that peak varies
	// by seed, so one warm-up seed would charge the growth to short runs
	// (the CI gate's 20 iterations) instead of measuring the steady state.
	for s := int64(1); s <= 32; s++ {
		iter(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(iter(int64(i+1)), "steals/op")
	}
}

// recordBench records a benchmark's kernel over words of input at P = 1.
func recordBench(tb testing.TB, words int, kernel func(mem.Addr) func(*Ctx)) *Trace {
	e := MustNewEngine(DefaultConfig(1))
	tr, err := e.Record(kernel(e.Machine().Alloc.Alloc(words)), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// stealHeavyKernel is the steal-heavy workload over 512 words at out: 512
// tiny leaves, each five ticks of work and one store.
func stealHeavyKernel(out mem.Addr) func(*Ctx) {
	return func(c *Ctx) {
		c.ForkN(512, func(j int, c *Ctx) {
			c.Work(5)
			c.StoreInt(out+mem.Addr(j), int64(j))
		})
	}
}

// BenchmarkStealHeavyReplayReuse is BenchmarkStealHeavyReuse replaying the
// workload's recording: the same runs, scheduler, pools and coherence
// model, without strand coroutines or kernel code. It reports the trace's
// size in trace_B; the allocs/op gates on Reuse$ cover it.
func BenchmarkStealHeavyReplayReuse(b *testing.B) { benchStealHeavyReplay(b, 8) }

// BenchmarkStealHeavyReplayP128 is BenchmarkStealHeavyReplayReuse at P =
// 128, the top of rwsimd's default range (-max-p): most of the 128
// processors are idle thieves, and every schedule check replays seven
// matches of the scheduler's winner tree. Its name leaves it outside the
// Reuse$ allocs/op ceiling, but its steady state is the same one
// allocation per run, the StolenKernelSizes slice: the directory's node
// columns are recycled across Resets, so 128 caches stop allocating once
// warm (TestReplayP128SteadyStateAllocs).
func BenchmarkStealHeavyReplayP128(b *testing.B) { benchStealHeavyReplay(b, 128) }

// benchStealHeavyReplay replays the steal-heavy kernel's recording at p
// processors through one Reset engine.
func benchStealHeavyReplay(b *testing.B, p int) {
	tr := recordBench(b, 512, stealHeavyKernel)
	cfg := DefaultConfig(p)
	e := MustNewEngine(cfg)
	defer e.Close()
	iter := func(seed int64) float64 {
		cfg.Seed = seed
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		return float64(e.Replay(tr).Steals)
	}
	for s := int64(1); s <= 32; s++ {
		iter(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(iter(int64(i+1)), "steals/op")
	}
	b.ReportMetric(float64(tr.Bytes()), "trace_B")
}

// BenchmarkRecordStealHeavy records BenchmarkStealHeavyReplayReuse's
// kernel through one engine: per op, a Reset, the kernel's 512 words of
// input and a Record. Not a Reuse benchmark, so the allocs/op gate does
// not hold it: a recording allocates its trace.
func BenchmarkRecordStealHeavy(b *testing.B) {
	cfg := DefaultConfig(1)
	e := MustNewEngine(cfg)
	defer e.Close()
	record := func() {
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		out := e.Machine().Alloc.Alloc(512)
		if _, err := e.Record(func(c *Ctx) {
			c.ForkN(512, func(j int, c *Ctx) {
				c.Work(5)
				c.StoreInt(out+mem.Addr(j), int64(j))
			})
		}, 0); err != nil {
			b.Fatal(err)
		}
	}
	record()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}

// BenchmarkBudgetSpentReplayReuse is the shape of the sweep's budgeted
// experiments (E04's matrix multiply at p = 8 under a small steal budget):
// a recursion with long leaves, recorded at P = 1 and replayed at P = 8
// with a budget of 3 through one Reset engine. The budget is spent early,
// so most idle processors park instead of spinning failed attempts. It
// reports the idle steps spun and settled per op.
func BenchmarkBudgetSpentReplayReuse(b *testing.B) {
	tr := recordBench(b, 1024, func(buf mem.Addr) func(*Ctx) {
		return func(c *Ctx) {
			var rec func(c *Ctx, lo, hi int)
			rec = func(c *Ctx, lo, hi int) {
				if hi-lo <= 16 {
					for i := lo; i < hi; i++ {
						c.Work(40)
						c.StoreInt(buf+mem.Addr(i), int64(i))
						c.LoadInt(buf + mem.Addr((i*5)&1023))
					}
					return
				}
				mid := lo + (hi-lo)/2
				c.Fork(
					func(c *Ctx) { rec(c, lo, mid) },
					func(c *Ctx) { rec(c, mid, hi) })
			}
			rec(c, 0, 1024)
		}
	})
	cfg := DefaultConfig(8)
	cfg.StealBudget = 3
	e := MustNewEngine(cfg)
	defer e.Close()
	var spun, settled int64
	iter := func(seed int64) {
		cfg.Seed = seed
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		e.Replay(tr)
		st := e.Stats()
		spun += st.IdleSpun
		settled += st.IdleSettled
	}
	for s := int64(1); s <= 32; s++ {
		iter(s)
	}
	spun, settled = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter(int64(i + 1))
	}
	b.ReportMetric(float64(spun)/float64(b.N), "idle_spun/op")
	b.ReportMetric(float64(settled)/float64(b.N), "idle_settled/op")
}

// BenchmarkHandoff times strand interleavings: four processors run leaves
// that alternate one tick of work with a timed read, so their clocks cross
// constantly and the running strand hands over to another every few
// charges. It reports wall time per handoff (ns/handoff, from
// Engine.Stats) and handoffs/op. The per-handoff figure includes the
// simulated work between handoffs, so it bounds the switch cost from above.
func BenchmarkHandoff(b *testing.B) {
	cfg := DefaultConfig(4)
	e := MustNewEngine(cfg)
	defer e.Close()
	iter := func(seed int64) int64 {
		cfg.Seed = seed
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		buf := e.Machine().Alloc.Alloc(64)
		e.Run(func(c *Ctx) {
			c.ForkN(64, func(j int, c *Ctx) {
				for k := 0; k < 16; k++ {
					c.Work(1)
					c.Read(buf + mem.Addr((j+k)&63))
				}
			})
		})
		return e.Stats().Handoffs
	}
	iter(999) // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	var handoffs int64
	for i := 0; i < b.N; i++ {
		handoffs += iter(int64(i + 1))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(handoffs), "ns/handoff")
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}

// BenchmarkHandoffReplay is BenchmarkHandoff replaying the workload's
// recording: the same handoffs, each a switch of op cursors instead of two
// coroutine switches. It reports the trace's size in trace_B.
func BenchmarkHandoffReplay(b *testing.B) {
	tr := recordBench(b, 64, func(buf mem.Addr) func(*Ctx) {
		return func(c *Ctx) {
			c.ForkN(64, func(j int, c *Ctx) {
				for k := 0; k < 16; k++ {
					c.Work(1)
					c.Read(buf + mem.Addr((j+k)&63))
				}
			})
		}
	})
	cfg := DefaultConfig(4)
	e := MustNewEngine(cfg)
	defer e.Close()
	iter := func(seed int64) int64 {
		cfg.Seed = seed
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		e.Replay(tr)
		return e.Stats().Handoffs
	}
	iter(999) // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	var handoffs int64
	for i := 0; i < b.N; i++ {
		handoffs += iter(int64(i + 1))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(handoffs), "ns/handoff")
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
	b.ReportMetric(float64(tr.Bytes()), "trace_B")
}

// BenchmarkStealPriced is BenchmarkStealHeavy on a four-socket machine with
// distance-priced steal attempts and the hierarchical probe ladder: every
// attempt takes the StealPrice/consecFail path and every transfer the
// provenance-priced miss path. Tracked in BENCH_rws.json (scripts/bench.sh)
// so pricing stays a branch, not a tax, on the steal hot path.
func BenchmarkStealPriced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(8)
		cfg.Seed = int64(i + 1)
		cfg.Machine.Topology = machine.Topology{
			Sockets: 4, CostMissRemote: 40,
			CostSteal: 5, CostStealRemote: 25,
		}
		cfg.Policy = Hierarchical{}
		e := MustNewEngine(cfg)
		out := e.Machine().Alloc.Alloc(512)
		res := e.Run(func(c *Ctx) {
			c.ForkN(512, func(j int, c *Ctx) {
				c.Work(5)
				c.StoreInt(out+mem.Addr(j), int64(j))
			})
		})
		b.ReportMetric(float64(res.Steals), "steals/op")
	}
}

package rws

import (
	"math/rand"
	"reflect"
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// invariantConfig is one randomized (machine, schedule, workload) point of
// the property suite.
type invariantConfig struct {
	cfg    Config
	leaves int
	shape  int64 // seed for the workload's fork-tree shape
}

// randomInvariantConfig draws a small but varied configuration: processor
// counts 1..8, block sizes 4..32, tight and unlimited budgets, flat and
// multi-socket topologies, and unpriced as well as distance-priced steal
// attempts (including priced-but-flat, where every attempt is local).
func randomInvariantConfig(rng *rand.Rand) invariantConfig {
	p := 1 + rng.Intn(8)
	cfg := DefaultConfig(p)
	cfg.Seed = rng.Int63()
	cfg.Machine.B = []int{4, 8, 16, 32}[rng.Intn(4)]
	cfg.Machine.M = cfg.Machine.B * (16 << rng.Intn(4))
	cfg.Machine.CostMiss = machine.Tick(2 + rng.Intn(9))
	cfg.Machine.CostSteal = cfg.Machine.CostMiss + machine.Tick(rng.Intn(20))
	cfg.Machine.CostFailSteal = 1 + machine.Tick(rng.Intn(int(cfg.Machine.CostSteal)))
	if rng.Intn(3) == 0 {
		cfg.Machine.Arbitration = machine.ArbitrationFree
	}
	cfg.StealBudget = []int64{-1, -1, -1, 0, 3, 17}[rng.Intn(6)]
	if sockets := []int{1, 1, 2, 4}[rng.Intn(4)]; sockets > 1 && sockets <= p {
		cfg.Machine.Topology = machine.Topology{
			Sockets:        sockets,
			CostMissRemote: cfg.Machine.CostMiss * machine.Tick(1+rng.Intn(4)),
		}
		if rng.Intn(2) == 0 {
			local := machine.Tick(rng.Intn(8))
			cfg.Machine.Topology.CostSteal = local
			cfg.Machine.Topology.CostStealRemote = local + machine.Tick(1+rng.Intn(24))
		}
	} else if rng.Intn(4) == 0 {
		// Priced steals on the flat machine: every attempt at the local price.
		cfg.Machine.Topology.CostSteal = machine.Tick(1 + rng.Intn(8))
	}
	return invariantConfig{
		cfg:    cfg,
		leaves: 48 + rng.Intn(150),
		shape:  rng.Int63(),
	}
}

// runInvariantCase executes one randomized lopsided fork tree under ic.cfg
// and the given policy/fast-path mode, asserting the scheduler invariants
// the policy layer must preserve:
//
//   - work conservation: every spawn is consumed exactly once
//     (Spawns == Steals + InlinePops + IdlePops, and Spawns == leaves-1),
//     and every leaf body runs exactly once;
//   - per-processor clock monotonicity, observed from inside the
//     computation (each leaf reads its processor's clock while it runs);
//   - steal count within the configured StealBudget;
//   - migration bookkeeping: only multi-take policies migrate, and the
//     final Result's totals match the per-processor counters;
//   - steal-cost conservation: the distance-priced steal latency equals
//     priced attempts × configured costs exactly — local attempts at
//     Topology.CostSteal, cross-socket attempts (RemoteSteals) at the
//     effective remote price — and is identically zero when pricing is off.
func runInvariantCase(t *testing.T, ic invariantConfig, pol StealPolicy, disableFastPath bool) outcome {
	t.Helper()
	cfg := ic.cfg
	cfg.Policy = pol
	cfg.DisableFastPath = disableFastPath
	e := MustNewEngine(cfg)
	out := e.Machine().Alloc.Alloc(ic.leaves)

	ran := make([]int, ic.leaves)
	lastClock := make([]machine.Tick, cfg.Machine.P)
	monotone := true
	shapeRng := rand.New(rand.NewSource(ic.shape))

	var rec func(lo, hi int, c *Ctx)
	rec = func(lo, hi int, c *Ctx) {
		if hi-lo <= 1 {
			// Leaf: data-dependent work plus a false-sharing-prone write.
			// Only the running strand touches engine state, which makes
			// e.clock safe to read here and orders the host-side ran[]
			// increments.
			p := c.s.proc
			if now := e.clock[p]; now < lastClock[p] {
				monotone = false
			} else {
				lastClock[p] = now
			}
			ran[lo]++
			c.Work(machine.Tick(1 + (lo*13)%29))
			c.StoreInt(out+mem.Addr(lo), int64(lo))
			return
		}
		span := hi - lo
		cut := lo + 1 + shapeRng.Intn(span-1)
		c.Fork(
			func(c *Ctx) { rec(lo, cut, c) },
			func(c *Ctx) { rec(cut, hi, c) })
	}
	res := outcomeOf(e, e.Run(func(c *Ctx) { rec(0, ic.leaves, c) }))

	if !monotone {
		t.Errorf("%s: per-processor clock went backwards", pol.Name())
	}
	if res.Spawns != res.Steals+res.InlinePops+res.IdlePops {
		t.Errorf("%s: spawn conservation violated: %d spawns != %d steals + %d inline + %d idle",
			pol.Name(), res.Spawns, res.Steals, res.InlinePops, res.IdlePops)
	}
	if res.Spawns != int64(ic.leaves-1) {
		t.Errorf("%s: %d spawns from a %d-leaf binary tree, want %d",
			pol.Name(), res.Spawns, ic.leaves, ic.leaves-1)
	}
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("%s: leaf %d ran %d times, want exactly once", pol.Name(), i, n)
		}
	}
	for i := 0; i < ic.leaves; i++ {
		if got := e.Machine().Mem.LoadInt(out + mem.Addr(i)); got != int64(i) {
			t.Fatalf("%s: output[%d] = %d, want %d", pol.Name(), i, got, i)
		}
	}
	if cfg.StealBudget >= 0 && res.Steals > cfg.StealBudget {
		t.Errorf("%s: %d steals exceed budget %d", pol.Name(), res.Steals, cfg.StealBudget)
	}
	if _, multiTake := pol.(StealHalf); !multiTake && res.SpawnsMigrated != 0 {
		t.Errorf("%s: single-take policy migrated %d spawns", pol.Name(), res.SpawnsMigrated)
	}
	if res.Totals != sumCounters(res.PerProc) {
		t.Errorf("%s: Totals %+v != per-proc sum %+v", pol.Name(), res.Totals, sumCounters(res.PerProc))
	}
	// Steal-cost conservation. Every priced attempt is counted in StealsOK or
	// StealsFail (the P==1 no-victim path neither counts nor prices), so the
	// charged latency must reconstruct exactly from the attempt counts and
	// the topology's configured costs — per processor, not just in total.
	topo := cfg.Machine.Topology
	localCost, remoteCost := topo.CostSteal, topo.CostStealRemote
	if remoteCost == 0 {
		remoteCost = localCost
	}
	for pi := range res.PerProc {
		pc := &res.PerProc[pi]
		if !topo.StealPriced() {
			if pc.StealLatency != 0 || pc.RemoteSteals != 0 {
				t.Errorf("%s: proc %d charged steal latency %d / %d remote probes with pricing off",
					pol.Name(), pi, pc.StealLatency, pc.RemoteSteals)
			}
			continue
		}
		attempts := pc.StealsOK + pc.StealsFail
		if pc.RemoteSteals > attempts {
			t.Errorf("%s: proc %d counted %d remote probes out of %d attempts",
				pol.Name(), pi, pc.RemoteSteals, attempts)
			continue
		}
		want := machine.Tick(attempts-pc.RemoteSteals)*localCost + machine.Tick(pc.RemoteSteals)*remoteCost
		if pc.StealLatency != want {
			t.Errorf("%s: proc %d steal latency %d != %d local x %d + %d remote x %d = %d",
				pol.Name(), pi, pc.StealLatency, attempts-pc.RemoteSteals, localCost,
				pc.RemoteSteals, remoteCost, want)
		}
	}
	if topo.Flat() && res.Totals.RemoteSteals != 0 {
		t.Errorf("%s: flat topology counted %d remote steal probes", pol.Name(), res.Totals.RemoteSteals)
	}
	return res
}

func sumCounters(per []machine.ProcCounters) machine.ProcCounters {
	var t machine.ProcCounters
	for i := range per {
		c := &per[i]
		t.WorkTicks += c.WorkTicks
		t.CacheMisses += c.CacheMisses
		t.BlockMisses += c.BlockMisses
		t.MissStall += c.MissStall
		t.BlockWait += c.BlockWait
		t.StealsOK += c.StealsOK
		t.StealsFail += c.StealsFail
		t.StealTicks += c.StealTicks
		t.Usurpations += c.Usurpations
		t.NodesExecuted += c.NodesExecuted
		t.AccessesTimed += c.AccessesTimed
		t.InvalidationsSent += c.InvalidationsSent
		t.RemoteFetches += c.RemoteFetches
		t.RemoteSteals += c.RemoteSteals
		t.StealLatency += c.StealLatency
	}
	return t
}

// TestPolicyInvariants is the property suite of the policy layer: for
// randomized configurations it runs every built-in policy under both the
// run-ahead fast path and the DisableFastPath lockstep mode, checks the
// scheduler invariants in each, and requires the two modes' Results,
// per-processor counters and Stats but the handoffs to be bit-for-bit equal
// per policy.
func TestPolicyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	iters := 18
	if testing.Short() {
		iters = 6
	}
	for iter := 0; iter < iters; iter++ {
		ic := randomInvariantConfig(rng)
		for _, pol := range Policies() {
			fast := runInvariantCase(t, ic, pol, false).withoutHandoffs()
			slow := runInvariantCase(t, ic, pol, true).withoutHandoffs()
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("iter %d %s: fast path diverged from lockstep:\nfast: %+v\nslow: %+v",
					iter, pol.Name(), fast, slow)
			}
			if t.Failed() {
				t.Fatalf("iter %d: config %+v", iter, ic.cfg)
			}
		}
	}
}

// reuseWorkload returns a deterministic lopsided-fork-tree root function for
// an invariantConfig: the same (leaves, shape) always yields the same
// computation, so fresh and reused engines race over identical work.
func reuseWorkload(ic invariantConfig, out mem.Addr) func(*Ctx) {
	shapeRng := rand.New(rand.NewSource(ic.shape))
	var rec func(lo, hi int, c *Ctx)
	rec = func(lo, hi int, c *Ctx) {
		if hi-lo <= 1 {
			c.Work(machine.Tick(1 + (lo*13)%29))
			c.StoreInt(out+mem.Addr(lo), int64(lo))
			return
		}
		span := hi - lo
		cut := lo + 1 + shapeRng.Intn(span-1)
		c.Fork(
			func(c *Ctx) { rec(lo, cut, c) },
			func(c *Ctx) { rec(cut, hi, c) })
	}
	return func(c *Ctx) { rec(0, ic.leaves, c) }
}

// TestEngineReuseMatchesFresh is the reuse differential: one engine is Reset
// through sequences of heterogeneous configurations — processor counts,
// block sizes, policies, topologies, steal pricing, budgets and fast-path
// modes all varying between consecutive runs — and every run's Result,
// per-processor counters and Stats must be bit-for-bit equal to a fresh
// engine's under the identical Config, as must the simulated output
// values. This is the invariant that lets harness.Runner pool engines
// across arbitrary experiment sweeps.
func TestEngineReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	rounds, runsPerRound := 6, 5
	if testing.Short() {
		rounds = 2
	}
	pols := Policies()
	for round := 0; round < rounds; round++ {
		var reused *Engine
		for ri := 0; ri < runsPerRound; ri++ {
			ic := randomInvariantConfig(rng)
			cfg := ic.cfg
			cfg.Policy = pols[rng.Intn(len(pols))]
			cfg.DisableFastPath = rng.Intn(4) == 0
			cfg.Machine.TrackWrites = rng.Intn(8) == 0
			cfg.AuditStackBlocks = rng.Intn(8) == 0

			fresh := MustNewEngine(cfg)
			fOut := fresh.Machine().Alloc.Alloc(ic.leaves)
			fo := outcomeOf(fresh, fresh.Run(reuseWorkload(ic, fOut)))

			if reused == nil {
				reused = MustNewEngine(cfg)
			}
			if err := reused.Reset(cfg); err != nil {
				t.Fatalf("round %d run %d: Reset: %v", round, ri, err)
			}
			rOut := reused.Machine().Alloc.Alloc(ic.leaves)
			ro := outcomeOf(reused, reused.Run(reuseWorkload(ic, rOut)))

			if fOut != rOut {
				t.Fatalf("round %d run %d: allocator diverged: fresh base %d, reused base %d",
					round, ri, fOut, rOut)
			}
			if !reflect.DeepEqual(fo, ro) {
				t.Fatalf("round %d run %d (%s, fastpath=%v): reused engine diverged from fresh:\nfresh:  %+v\nreused: %+v\nconfig: %+v",
					round, ri, cfg.Policy.Name(), !cfg.DisableFastPath, fo, ro, cfg)
			}
			for i := 0; i < ic.leaves; i++ {
				f := fresh.Machine().Mem.LoadInt(fOut + mem.Addr(i))
				r := reused.Machine().Mem.LoadInt(rOut + mem.Addr(i))
				if f != r || r != int64(i) {
					t.Fatalf("round %d run %d: output[%d]: fresh %d, reused %d, want %d",
						round, ri, i, f, r, i)
				}
			}
			// CopyCounters into a caller's buffer must match the fresh
			// engine's counters.
			buf := make([]machine.ProcCounters, 0, cfg.Machine.P)
			if got := reused.CopyCounters(buf); !reflect.DeepEqual(got, fo.PerProc) {
				t.Fatalf("round %d run %d: CopyCounters into a buffer diverged from the fresh engine's", round, ri)
			}
		}
		reused.Close()
	}
}

// TestEngineReuseSteadyStateAllocs pins the tentpole property: after warmup,
// a Reset+Run cycle of a steal-heavy workload performs (almost) no heap
// allocation. The ceiling of 10 allocs per cycle matches the CI benchmark
// gate; the real steady state is 3: the cycle's two kernel closures, and
// the StolenKernelSizes slice each Result takes with it.
func TestEngineReuseSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig(8)
	e := MustNewEngine(cfg)
	defer e.Close()
	cycle := func(seed int64) {
		cfg.Seed = seed
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		out := e.Machine().Alloc.Alloc(512)
		e.Run(func(c *Ctx) {
			c.ForkN(512, func(j int, c *Ctx) {
				c.Work(5)
				c.StoreInt(out+mem.Addr(j), int64(j))
			})
		})
	}
	for s := int64(1); s <= 4; s++ {
		cycle(s)
	}
	avg := testing.AllocsPerRun(10, func() { cycle(5) })
	if avg > 10 {
		t.Errorf("steady-state Reset+Run allocates %.1f times per cycle, want <= 10", avg)
	}
}

// TestReplayP128SteadyStateAllocs pins the steady state of
// BenchmarkStealHeavyReplayP128: once one P = 128 engine has replayed the
// steal-heavy recording on 64 seeds, each run on a fresh seed allocates at
// most once, the StolenKernelSizes slice its Result takes with it. Node
// columns that 128 caches need for stacks at new addresses come from the
// directory's free list, not from new allocations.
func TestReplayP128SteadyStateAllocs(t *testing.T) {
	tr := recordBench(t, 512, stealHeavyKernel)
	cfg := DefaultConfig(128)
	e := MustNewEngine(cfg)
	defer e.Close()
	run := func() {
		cfg.Seed++
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		e.Replay(tr)
	}
	for cfg.Seed = 0; cfg.Seed < 64; {
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg > 1 {
		t.Errorf("a warm P = 128 replay allocates %v times per run, want <= 1", avg)
	}
}

// TestPolicyDisciplinesDiffer is the sanity complement of the invariant
// suite: the policies are not all secretly Uniform. On a multi-socket
// steal-heavy workload, each policy's schedule (and so its Result) should
// differ from Uniform's.
func TestPolicyDisciplinesDiffer(t *testing.T) {
	run := func(pol StealPolicy) Result {
		cfg := DefaultConfig(8)
		cfg.Seed = 99
		cfg.Machine.Topology = machine.Topology{Sockets: 2, CostMissRemote: 30}
		cfg.Policy = pol
		e := MustNewEngine(cfg)
		out := e.Machine().Alloc.Alloc(512)
		return e.Run(func(c *Ctx) {
			c.ForkN(192, func(j int, c *Ctx) {
				c.Work(machine.Tick(1 + j%17))
				c.StoreInt(out+mem.Addr(j*2%512), int64(j))
			})
		})
	}
	base := run(Uniform{})
	for _, pol := range Policies()[1:] {
		if res := run(pol); reflect.DeepEqual(res, base) {
			t.Errorf("%s produced a Result identical to uniform's — policy not taking effect", pol.Name())
		}
	}
}

package rws

import (
	"math/rand"
	"reflect"
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// checkedPolicy wraps a StealPolicy and records protocol violations the
// engine contract forbids: a victim equal to the thief or out of range. It
// is a stateless value (the counter lives behind a pointer the test owns),
// so it obeys the RNG ownership rule like the policy it wraps. The engine
// would panic on such a victim anyway; the wrapper turns that into an
// explicit, countable assertion and keeps fuzzing past it.
type checkedPolicy struct {
	inner StealPolicy
	bad   *int
}

func (cp checkedPolicy) Name() string { return cp.inner.Name() }

func (cp checkedPolicy) Victim(view *PolicyView, thief int, rng *rand.Rand) int {
	v := cp.inner.Victim(view, thief, rng)
	if v == thief || v < 0 || v >= view.P() {
		*cp.bad++
		// Substitute a legal victim so the run can finish and report.
		v = (thief + 1) % view.P()
	}
	return v
}

func (cp checkedPolicy) Take(size int) int { return cp.inner.Take(size) }

// fuzzByte returns ops[i], or a fixed filler past the end, so short fuzz
// inputs still decode to a full configuration.
func fuzzByte(ops []byte, i int) byte {
	if i < len(ops) {
		return ops[i]
	}
	return 0
}

// FuzzStealPolicy fuzzes the whole policy layer under randomized machine
// topologies and steal pricing: the input bytes select a policy (every
// registered one is reachable), a processor count, a socket partition,
// distance-dependent miss and steal costs, a steal budget and the workload
// shape. Each decoded configuration runs four ways — run-ahead fast path,
// DisableFastPath lockstep, an engine that never parks idle processors
// (spinningEngine), and a replay of the workload's recording made under
// the same configuration — and must produce bit-for-bit equal Results and
// per-processor counters, the same Stats (less the handoffs against
// lockstep, and with the idle steps settled by parking spun by the spinning
// engine), legal victims only (never the thief), steals within the budget, and exact
// steal-cost conservation. Seed corpus lives in
// testdata/fuzz/FuzzStealPolicy; CI runs a short -fuzz pass on top of it.
func FuzzStealPolicy(f *testing.F) {
	f.Add([]byte{})
	// One seed per policy, varying topology and pricing.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 255, 40, 1})
	f.Add([]byte{1, 7, 2, 9, 0, 30, 255, 60, 2})
	f.Add([]byte{2, 5, 0, 0, 0, 0, 8, 50, 3})
	f.Add([]byte{3, 3, 4, 20, 4, 28, 255, 80, 4})
	f.Add([]byte{4, 7, 4, 25, 5, 25, 255, 96, 5})
	f.Add([]byte{5, 5, 2, 15, 3, 17, 12, 70, 6})
	// Priced flat machine, tight budget, lone-processor degenerate.
	f.Add([]byte{4, 0, 1, 0, 6, 0, 1, 33, 7})

	pols := Policies()
	f.Fuzz(func(t *testing.T, ops []byte) {
		pol := pols[int(fuzzByte(ops, 0))%len(pols)]
		p := 1 + int(fuzzByte(ops, 1))%8
		cfg := DefaultConfig(p)
		cfg.Machine.CostMiss = 4
		cfg.Machine.CostSteal = 8
		cfg.Machine.CostFailSteal = 4
		if sockets := int(fuzzByte(ops, 2)) % 5; sockets > 1 && sockets <= p {
			remoteMiss := cfg.Machine.CostMiss * machine.Tick(1+int(fuzzByte(ops, 3))%4)
			local := machine.Tick(int(fuzzByte(ops, 4)) % 8)
			remoteSteal := machine.Tick(0)
			if r := int(fuzzByte(ops, 5)) % 32; r > 0 {
				remoteSteal = local + machine.Tick(r)
			}
			cfg.Machine.Topology = machine.Topology{
				Sockets: sockets, CostMissRemote: remoteMiss,
				CostSteal: local, CostStealRemote: remoteSteal,
			}
		} else if fuzzByte(ops, 4)%2 == 1 {
			cfg.Machine.Topology.CostSteal = machine.Tick(1 + int(fuzzByte(ops, 4))%8)
		}
		budget := int64(-1)
		if b := fuzzByte(ops, 6); b != 255 {
			budget = int64(b) % 24
		}
		cfg.StealBudget = budget
		leaves := 8 + int(fuzzByte(ops, 7))%88
		cfg.Seed = int64(fuzzByte(ops, 8))*7919 + 1

		badVictims := 0
		cfg.Policy = checkedPolicy{inner: pol, bad: &badVictims}

		workload := func(c *Ctx, out mem.Addr) {
			c.ForkN(leaves, func(j int, c *Ctx) {
				c.Work(machine.Tick(1 + j%13))
				c.StoreInt(out+mem.Addr(j), int64(j))
			})
		}
		run := func(e *Engine) outcome {
			out := e.Machine().Alloc.Alloc(leaves)
			return outcomeOf(e, e.Run(func(c *Ctx) { workload(c, out) }))
		}
		fast := run(MustNewEngine(cfg))
		lockstep := cfg
		lockstep.DisableFastPath = true
		slow := run(MustNewEngine(lockstep))
		spun := run(spinningEngine(cfg))
		rep := MustNewEngine(cfg)
		replayed := outcomeOf(rep, rep.Replay(recordAt(t, cfg, leaves, workload)))

		if badVictims != 0 {
			t.Fatalf("%s: %d illegal victims (thief or out of range) on p=%d %+v",
				pol.Name(), badVictims, p, cfg.Machine.Topology)
		}
		if !reflect.DeepEqual(fast.withoutHandoffs(), slow.withoutHandoffs()) {
			t.Fatalf("%s: fast path diverged from lockstep:\nfast: %+v\nslow: %+v", pol.Name(), fast, slow)
		}
		if !reflect.DeepEqual(fast.withoutIdle(), spun.withoutIdle()) ||
			fast.Stats.IdleSpun+fast.Stats.IdleSettled != spun.Stats.IdleSpun {
			t.Fatalf("%s: parking diverged from spinning:\nparked:   %+v\nspinning: %+v", pol.Name(), fast, spun)
		}
		if !reflect.DeepEqual(fast, replayed) {
			t.Fatalf("%s: replay diverged from the fast path:\nfast:   %+v\nreplay: %+v", pol.Name(), fast, replayed)
		}
		if budget >= 0 && fast.Steals > budget {
			t.Fatalf("%s: %d steals exceed budget %d", pol.Name(), fast.Steals, budget)
		}
		if fast.Spawns != fast.Steals+fast.InlinePops+fast.IdlePops {
			t.Fatalf("%s: spawn conservation violated: %d != %d+%d+%d",
				pol.Name(), fast.Spawns, fast.Steals, fast.InlinePops, fast.IdlePops)
		}
		topo := cfg.Machine.Topology
		localCost, remoteCost := topo.CostSteal, topo.CostStealRemote
		if remoteCost == 0 {
			remoteCost = localCost
		}
		attempts := fast.Totals.StealsOK + fast.Totals.StealsFail
		want := machine.Tick(0)
		if topo.StealPriced() {
			want = machine.Tick(attempts-fast.Totals.RemoteSteals)*localCost +
				machine.Tick(fast.Totals.RemoteSteals)*remoteCost
		}
		if fast.Totals.StealLatency != want || (!topo.StealPriced() && fast.Totals.RemoteSteals != 0) {
			t.Fatalf("%s: steal-cost conservation violated: latency %d, want %d (%d attempts, %d remote)",
				pol.Name(), fast.Totals.StealLatency, want, attempts, fast.Totals.RemoteSteals)
		}
	})
}

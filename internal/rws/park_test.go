package rws

import (
	"math/rand"
	"reflect"
	"testing"

	"rwsfs/internal/machine"
)

// TestParkedAttemptsClosedForm checks settleParked's count against a brute
// force over keys: a processor parked at clock c0 makes one attempt per key
// (c0 + k·f, p), k ≥ 0, that lies below the last winner's (c, q) in
// (clock, proc) order. Clock ties, where processor order decides, and f = 1
// are covered.
func TestParkedAttemptsClosedForm(t *testing.T) {
	for _, f := range []machine.Tick{1, 2, 3, 7, 10} {
		for c0 := machine.Tick(0); c0 < 25; c0++ {
			for d := machine.Tick(0); d < 45; d++ {
				for p := 0; p < 4; p++ {
					for q := 0; q < 4; q++ {
						c := c0 + d
						if d == 0 && p >= q {
							continue // the parking key must lie below the winner's
						}
						var want int64
						for k := c0; k < c || (k == c && p < q); k += f {
							want++
						}
						if got := parkedAttempts(c0, p, c, q, f); got != want {
							t.Fatalf("f=%d (c0,p)=(%d,%d) (c,q)=(%d,%d): closed form %d, keys below %d",
								f, c0, p, c, q, got, want)
						}
					}
				}
			}
		}
	}
}

// spinningEngine returns an engine for cfg that never parks. It takes the
// priced attempt path, which on a machine without steal pricing charges a
// zero price and leaves every counter as the unpriced path does: the engine
// as it was before parking, step for step.
func spinningEngine(cfg Config) *Engine {
	e := MustNewEngine(cfg)
	e.stealPriced = true
	return e
}

// TestParkingMatchesSpinning holds parking to the engine that keeps
// stepping: across random processor counts, budgets, policies, topologies
// and both fast-path modes, by run and by replay, every Result and handoff
// count must be equal, and the spun and settled steps of the parking engine
// must add up to the spinning engine's idle steps.
func TestParkingMatchesSpinning(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pols := Policies()
	runs, parked := 0, 0
	for _, g := range append(goldenCases(), policyGoldenCases()...) {
		tr := recordAt(t, g.cfg(), g.words, g.workload)
		for i := 0; i < 8; i++ {
			cfg := g.cfg()
			cfg.Machine.P = []int{2, 3, 8, 70}[rng.Intn(4)]
			if cfg.Machine.Topology.Sockets > cfg.Machine.P {
				cfg.Machine.Topology = machine.Topology{}
			}
			cfg.Seed = rng.Int63()
			cfg.StealBudget = []int64{0, 1, 3, 17}[rng.Intn(4)]
			cfg.Policy = pols[rng.Intn(len(pols))]
			cfg.DisableFastPath = rng.Intn(2) == 0
			for _, replay := range []bool{false, true} {
				var res [2]Result
				var engines [2]*Engine
				for j, e := range []*Engine{MustNewEngine(cfg), spinningEngine(cfg)} {
					if replay {
						res[j] = e.Replay(tr)
					} else {
						base := e.Machine().Alloc.Alloc(g.words)
						res[j] = e.Run(func(c *Ctx) { g.workload(c, base) })
					}
					engines[j] = e
				}
				park, spin := engines[0], engines[1]
				if !reflect.DeepEqual(res[0], res[1]) {
					t.Fatalf("%s P=%d budget %d %s replay=%t: parking changed the Result:\nparked:   %+v\nspinning: %+v",
						g.name, cfg.Machine.P, cfg.StealBudget, cfg.Policy.Name(), replay, res[0], res[1])
				}
				if park.handoffs != spin.handoffs || spin.idleSettled != 0 ||
					park.idleSpun+park.idleSettled != spin.idleSpun {
					t.Fatalf("%s P=%d budget %d %s replay=%t: handoffs %d/%d, idle steps spun+settled %d+%d, spinning %d+%d",
						g.name, cfg.Machine.P, cfg.StealBudget, cfg.Policy.Name(), replay, park.handoffs, spin.handoffs,
						park.idleSpun, park.idleSettled, spin.idleSpun, spin.idleSettled)
				}
				runs++
				if park.idleSettled > 0 {
					parked++
				}
			}
		}
	}
	t.Logf("%d of %d runs parked a processor", parked, runs)
	if parked == 0 {
		t.Fatal("no run parked a processor")
	}
}

// TestBudgetSpentParks runs a lopsided recursion on eight processors with
// no steal budget: the seven idle processors park at their first idle step
// instead of spinning to the end of the run, and the Result keeps the
// makespan and FailedSteals of the engine before parking, pinned here.
func TestBudgetSpentParks(t *testing.T) {
	var g golden
	for _, c := range goldenCases() {
		if c.name == "usurp-lopsided-p6" {
			g = c
		}
	}
	cfg := g.cfg()
	cfg.Machine.P = 8
	cfg.StealBudget = 0
	e := MustNewEngine(cfg)
	base := e.Machine().Alloc.Alloc(g.words)
	res := e.Run(func(c *Ctx) { g.workload(c, base) })
	if e.idleSpun > int64(cfg.Machine.P-1) {
		t.Errorf("spun %d idle steps, want at most %d", e.idleSpun, cfg.Machine.P-1)
	}
	if res.Makespan != 8990 || res.FailedSteals != 6293 || e.idleSettled != 6293 {
		t.Errorf("makespan %d, FailedSteals %d, %d settled; the engine before parking made 8990, 6293, 6293",
			res.Makespan, res.FailedSteals, e.idleSettled)
	}
}

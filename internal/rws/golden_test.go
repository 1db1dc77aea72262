package rws

import (
	"reflect"
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// golden pins the externally observable Result of a fixed (Config, workload)
// pair. The values were recorded from the pre-refactor reference
// implementation (container/list LRU, map-based coherence state, O(P) clock
// scan, slice-copy deques); the rewritten hot path must reproduce them
// bit-for-bit — any drift means simulated semantics changed, not just speed.
type golden struct {
	name     string
	cfg      func() Config
	workload func(*Ctx, mem.Addr)
	words    int // simulated words to allocate and pass to the workload

	makespan      machine.Tick
	totals        machine.ProcCounters
	steals        int64
	failedSteals  int64
	spawns        int64
	inlinePops    int64
	idlePops      int64
	usurpations   int64
	migrated      int64
	transfersTot  int64
	transfersMax  int64
	maxWriteCount int64
}

func goldenCases() []golden {
	return []golden{
		{
			// False-sharing-heavy: adjacent word writes from a wide fork tree.
			name: "fs-forkn-p4",
			cfg: func() Config {
				c := DefaultConfig(4)
				c.Seed = 42
				return c
			},
			words: 256,
			workload: func(c *Ctx, base mem.Addr) {
				c.ForkN(128, func(j int, c *Ctx) {
					c.Work(3)
					c.StoreInt(base+mem.Addr(j), int64(j))
					c.LoadInt(base + mem.Addr((j+1)%128))
				})
			},
			makespan: 586,
			totals: machine.ProcCounters{WorkTicks: 894, CacheMisses: 37, BlockMisses: 15,
				MissStall: 520, BlockWait: 180, StealsOK: 13, StealsFail: 50, StealTicks: 760,
				Usurpations: 11, NodesExecuted: 254, AccessesTimed: 523, InvalidationsSent: 31},
			steals: 13, failedSteals: 50, spawns: 127, inlinePops: 114, idlePops: 0, usurpations: 11,
			transfersTot: 52, transfersMax: 15, maxWriteCount: -1,
		},
		{
			// Capacity-miss-heavy: tiny caches, bulk range traffic, recursion.
			name: "capacity-ranges-p8",
			cfg: func() Config {
				c := DefaultConfig(8)
				c.Seed = 7
				c.Machine.M = 128
				c.Machine.B = 8
				c.Machine.CostMiss = 4
				c.Machine.CostSteal = 8
				c.Machine.CostFailSteal = 4
				return c
			},
			words: 1 << 12,
			workload: func(c *Ctx, base mem.Addr) {
				var rec func(c *Ctx, lo, hi int)
				rec = func(c *Ctx, lo, hi int) {
					if hi-lo <= 256 {
						c.ReadRange(base+mem.Addr(lo), hi-lo)
						c.WriteRange(base+mem.Addr(lo), (hi-lo)/2)
						return
					}
					mid := lo + (hi-lo)/2
					c.Fork(
						func(c *Ctx) { rec(c, lo, mid) },
						func(c *Ctx) { rec(c, mid, hi) })
				}
				rec(c, 0, 1<<12)
			},
			makespan: 546,
			totals: machine.ProcCounters{WorkTicks: 30, CacheMisses: 796, BlockMisses: 0,
				MissStall: 3184, BlockWait: 0, StealsOK: 12, StealsFail: 268, StealTicks: 1168,
				Usurpations: 11, NodesExecuted: 30, AccessesTimed: 6186, InvalidationsSent: 9},
			steals: 12, failedSteals: 268, spawns: 15, inlinePops: 3, idlePops: 0, usurpations: 11,
			transfersTot: 796, transfersMax: 6, maxWriteCount: -1,
		},
		{
			// Free arbitration + write tracking + a steal budget.
			name: "free-arb-budget-p3",
			cfg: func() Config {
				c := DefaultConfig(3)
				c.Seed = 123
				c.StealBudget = 5
				c.Machine.Arbitration = machine.ArbitrationFree
				c.Machine.TrackWrites = true
				return c
			},
			words: 512,
			workload: func(c *Ctx, base mem.Addr) {
				c.ForkN(48, func(j int, c *Ctx) {
					c.StoreInt(base+mem.Addr(4*j%512), int64(j))
					c.Work(machine.Tick(1 + j%7))
					c.ReadRange(base, 64)
				})
			},
			makespan: 338,
			totals: machine.ProcCounters{WorkTicks: 331, CacheMisses: 30, BlockMisses: 8,
				MissStall: 380, BlockWait: 0, StealsOK: 5, StealsFail: 21, StealTicks: 310,
				Usurpations: 4, NodesExecuted: 94, AccessesTimed: 3219, InvalidationsSent: 14},
			steals: 5, failedSteals: 21, spawns: 47, inlinePops: 42, idlePops: 0, usurpations: 4,
			transfersTot: 38, transfersMax: 7, maxWriteCount: 2,
		},
		{
			// Steal-heavy and usurpation-rich: a lopsided recursive fork tree
			// with strongly imbalanced leaf work on six processors, so joins
			// are routinely completed last by thieves (usurpations) and the
			// recycled joinCell/spawn/strand pools turn over constantly.
			// Added with the run-ahead engine; values recorded from the
			// channel-lockstep-equivalent slow path (DisableFastPath), which
			// the differential test holds equal to the fast path.
			name: "usurp-lopsided-p6",
			cfg: func() Config {
				c := DefaultConfig(6)
				c.Seed = 2024
				return c
			},
			words: 384,
			workload: func(c *Ctx, base mem.Addr) {
				var rec func(c *Ctx, lo, hi int)
				rec = func(c *Ctx, lo, hi int) {
					if hi-lo <= 2 {
						for i := lo; i < hi; i++ {
							c.Work(machine.Tick(5 + (i%11)*17))
							c.StoreInt(base+mem.Addr(i%384), int64(i))
							c.LoadInt(base + mem.Addr((i*7)%384))
						}
						return
					}
					mid := lo + (hi-lo)/3 + 1 // lopsided split
					c.Fork(
						func(c *Ctx) { rec(c, lo, mid) },
						func(c *Ctx) { rec(c, mid, hi) })
				}
				rec(c, 0, 96)
			},
			makespan: 1985,
			totals: machine.ProcCounters{WorkTicks: 8740, CacheMisses: 90, BlockMisses: 39,
				MissStall: 1290, BlockWait: 86, StealsOK: 18, StealsFail: 146, StealTicks: 1820,
				Usurpations: 15, NodesExecuted: 112, AccessesTimed: 322, InvalidationsSent: 74},
			steals: 18, failedSteals: 146, spawns: 56, inlinePops: 38, idlePops: 0, usurpations: 15,
			transfersTot: 129, transfersMax: 16, maxWriteCount: -1,
		},
	}
}

// policyGoldenCases pins one run per non-default steal policy, on workloads
// chosen to exercise each policy's distinguishing path: Localized on a
// two-socket topology (remote fetches priced 4x), StealHalf on a wide
// ForkN (deep deques make multi-take migrations frequent), Affinity on the
// false-sharing-heavy adjacent-write workload (warm directory sharer bits),
// Hierarchical on a four-socket machine with distance-priced steals (the
// local-then-remote probe ladder and the attempt-time latency charges), and
// LatencyAware on a priced two-socket machine (expected-cost scoring over
// deque sizes and socket distance). Values were recorded from the
// introducing implementation and pin policy semantics against drift,
// exactly like the pre-refactor goldens pin Uniform's.
func policyGoldenCases() []golden {
	return []golden{
		{
			name: "localized-2sock-p8",
			cfg: func() Config {
				c := DefaultConfig(8)
				c.Seed = 71
				c.Policy = Localized{}
				c.Machine.Topology = machine.Topology{Sockets: 2, CostMissRemote: 40}
				return c
			},
			words: 512,
			workload: func(c *Ctx, base mem.Addr) {
				c.ForkN(96, func(j int, c *Ctx) {
					c.Work(machine.Tick(2 + j%9))
					c.StoreInt(base+mem.Addr(j*4%512), int64(j))
					c.LoadInt(base + mem.Addr((j*4+128)%512))
				})
			},
			makespan: 718,
			totals: machine.ProcCounters{WorkTicks: 949, CacheMisses: 113, BlockMisses: 14,
				MissStall: 2170, BlockWait: 423, StealsOK: 22, StealsFail: 179, StealTicks: 2230,
				Usurpations: 20, NodesExecuted: 190, AccessesTimed: 404, InvalidationsSent: 65,
				RemoteFetches: 30},
			steals: 22, failedSteals: 179, spawns: 95, inlinePops: 73, idlePops: 0, usurpations: 20,
			migrated: 0, transfersTot: 127, transfersMax: 6, maxWriteCount: -1,
		},
		{
			name: "stealhalf-p6",
			cfg: func() Config {
				c := DefaultConfig(6)
				c.Seed = 58
				c.Policy = StealHalf{}
				return c
			},
			words: 256,
			workload: func(c *Ctx, base mem.Addr) {
				c.ForkN(128, func(j int, c *Ctx) {
					c.Work(machine.Tick(1 + j%5))
					c.StoreInt(base+mem.Addr(j*2%256), int64(j))
				})
			},
			makespan: 524,
			totals: machine.ProcCounters{WorkTicks: 763, CacheMisses: 60, BlockMisses: 10,
				MissStall: 700, BlockWait: 16, StealsOK: 24, StealsFail: 120, StealTicks: 1680,
				Usurpations: 17, NodesExecuted: 254, AccessesTimed: 407, InvalidationsSent: 43},
			steals: 24, failedSteals: 120, spawns: 127, inlinePops: 102, idlePops: 1, usurpations: 17,
			migrated: 10, transfersTot: 70, transfersMax: 7, maxWriteCount: -1,
		},
		{
			name: "affinity-p4",
			cfg: func() Config {
				c := DefaultConfig(4)
				c.Seed = 42
				c.Policy = Affinity{}
				return c
			},
			words: 256,
			workload: func(c *Ctx, base mem.Addr) {
				c.ForkN(128, func(j int, c *Ctx) {
					c.Work(3)
					c.StoreInt(base+mem.Addr(j), int64(j))
					c.LoadInt(base + mem.Addr((j+1)%128))
				})
			},
			// Same workload and seed as fs-forkn-p4 under Uniform: affinity
			// steers thieves toward tasks whose blocks they cache, and the
			// block misses drop 15 → 5 on this run.
			makespan: 531,
			totals: machine.ProcCounters{WorkTicks: 894, CacheMisses: 35, BlockMisses: 5,
				MissStall: 400, BlockWait: 37, StealsOK: 11, StealsFail: 58, StealTicks: 800,
				Usurpations: 8, NodesExecuted: 254, AccessesTimed: 521, InvalidationsSent: 18},
			steals: 11, failedSteals: 58, spawns: 127, inlinePops: 116, idlePops: 0, usurpations: 8,
			migrated: 0, transfersTot: 40, transfersMax: 9, maxWriteCount: -1,
		},
		{
			name: "hierarchical-4sock-p8-priced",
			cfg: func() Config {
				c := DefaultConfig(8)
				c.Seed = 37
				c.Policy = Hierarchical{}
				c.Machine.Topology = machine.Topology{
					Sockets: 4, CostMissRemote: 40,
					CostSteal: 5, CostStealRemote: 25,
				}
				return c
			},
			words: 512,
			workload: func(c *Ctx, base mem.Addr) {
				var rec func(c *Ctx, lo, hi int)
				rec = func(c *Ctx, lo, hi int) {
					if hi-lo <= 2 {
						for i := lo; i < hi; i++ {
							c.Work(machine.Tick(3 + (i%7)*11))
							c.StoreInt(base+mem.Addr(i*4%512), int64(i))
						}
						return
					}
					mid := lo + (hi-lo)/3 + 1 // lopsided: keeps thieves hungry
					c.Fork(
						func(c *Ctx) { rec(c, lo, mid) },
						func(c *Ctx) { rec(c, mid, hi) })
				}
				rec(c, 0, 96)
			},
			// Hierarchical keeps the probe ladder local: only 44 of 208
			// attempts cross sockets (uniform would expect ~6/7 of them to).
			makespan: 1139,
			totals: machine.ProcCounters{WorkTicks: 3609, CacheMisses: 68, BlockMisses: 11,
				MissStall: 1330, BlockWait: 45, StealsOK: 21, StealsFail: 187, StealTicks: 2290,
				Usurpations: 14, NodesExecuted: 112, AccessesTimed: 229, InvalidationsSent: 43,
				RemoteFetches: 18, RemoteSteals: 44, StealLatency: 1920},
			steals: 21, failedSteals: 187, spawns: 56, inlinePops: 35, idlePops: 0, usurpations: 14,
			migrated: 0, transfersTot: 79, transfersMax: 5, maxWriteCount: -1,
		},
		{
			name: "latencyaware-2sock-p6-priced",
			cfg: func() Config {
				c := DefaultConfig(6)
				c.Seed = 58
				c.Policy = LatencyAware{}
				c.Machine.Topology = machine.Topology{
					Sockets: 2, CostMissRemote: 30,
					CostSteal: 4, CostStealRemote: 20,
				}
				return c
			},
			words: 256,
			workload: func(c *Ctx, base mem.Addr) {
				c.ForkN(128, func(j int, c *Ctx) {
					c.Work(machine.Tick(1 + j%5))
					c.StoreInt(base+mem.Addr(j*2%256), int64(j))
				})
			},
			// Same workload and seed as stealhalf-p6, now expected-cost
			// scored on a priced 2-socket machine: 18 of 82 attempts go
			// remote (uniform would expect ~3/5).
			makespan: 551,
			totals: machine.ProcCounters{WorkTicks: 763, CacheMisses: 63, BlockMisses: 3,
				MissStall: 920, BlockWait: 44, StealsOK: 22, StealsFail: 60, StealTicks: 1040,
				Usurpations: 18, NodesExecuted: 254, AccessesTimed: 404, InvalidationsSent: 35,
				RemoteFetches: 13, RemoteSteals: 18, StealLatency: 616},
			steals: 22, failedSteals: 60, spawns: 127, inlinePops: 105, idlePops: 0, usurpations: 18,
			migrated: 0, transfersTot: 66, transfersMax: 7, maxWriteCount: -1,
		},
	}
}

// TestGoldenDeterminism replays the pinned runs — the pre-refactor Uniform
// cases plus one per steal policy — and compares every externally
// observable metric against the recorded reference values.
func TestGoldenDeterminism(t *testing.T) {
	for _, g := range append(goldenCases(), policyGoldenCases()...) {
		g := g
		t.Run(g.name, func(t *testing.T) {
			e := MustNewEngine(g.cfg())
			base := e.Machine().Alloc.Alloc(g.words)
			res := e.Run(func(c *Ctx) { g.workload(c, base) })

			if res.Makespan != g.makespan {
				t.Errorf("Makespan = %d, golden %d", res.Makespan, g.makespan)
			}
			if res.Totals != g.totals {
				t.Errorf("Totals = %+v\n     golden %+v", res.Totals, g.totals)
			}
			if res.Steals != g.steals || res.FailedSteals != g.failedSteals {
				t.Errorf("Steals = %d/%d failed, golden %d/%d",
					res.Steals, res.FailedSteals, g.steals, g.failedSteals)
			}
			if res.Spawns != g.spawns || res.InlinePops != g.inlinePops || res.IdlePops != g.idlePops {
				t.Errorf("Spawns/InlinePops/IdlePops = %d/%d/%d, golden %d/%d/%d",
					res.Spawns, res.InlinePops, res.IdlePops, g.spawns, g.inlinePops, g.idlePops)
			}
			if res.Usurpations != g.usurpations {
				t.Errorf("Usurpations = %d, golden %d", res.Usurpations, g.usurpations)
			}
			if res.SpawnsMigrated != g.migrated {
				t.Errorf("SpawnsMigrated = %d, golden %d", res.SpawnsMigrated, g.migrated)
			}
			if res.BlockTransfersTotal != g.transfersTot || res.BlockTransfersMax != g.transfersMax {
				t.Errorf("BlockTransfers = %d total / %d max, golden %d/%d",
					res.BlockTransfersTotal, res.BlockTransfersMax, g.transfersTot, g.transfersMax)
			}
			if res.MaxWriteCount != g.maxWriteCount {
				t.Errorf("MaxWriteCount = %d, golden %d", res.MaxWriteCount, g.maxWriteCount)
			}
			if t.Failed() {
				// Emit a ready-to-paste literal so re-pinning after an
				// *intentional* semantic change is mechanical.
				t.Logf("observed: makespan: %d,\ntotals: machine.ProcCounters{WorkTicks: %d, CacheMisses: %d, BlockMisses: %d, MissStall: %d, BlockWait: %d, StealsOK: %d, StealsFail: %d, StealTicks: %d, Usurpations: %d, NodesExecuted: %d, AccessesTimed: %d, InvalidationsSent: %d, RemoteFetches: %d, RemoteSteals: %d, StealLatency: %d},\nsteals: %d, failedSteals: %d, spawns: %d, inlinePops: %d, idlePops: %d, usurpations: %d, migrated: %d,\ntransfersTot: %d, transfersMax: %d, maxWriteCount: %d,",
					res.Makespan,
					res.Totals.WorkTicks, res.Totals.CacheMisses, res.Totals.BlockMisses,
					res.Totals.MissStall, res.Totals.BlockWait, res.Totals.StealsOK,
					res.Totals.StealsFail, res.Totals.StealTicks, res.Totals.Usurpations,
					res.Totals.NodesExecuted, res.Totals.AccessesTimed, res.Totals.InvalidationsSent,
					res.Totals.RemoteFetches, res.Totals.RemoteSteals, res.Totals.StealLatency,
					res.Steals, res.FailedSteals, res.Spawns, res.InlinePops, res.IdlePops,
					res.Usurpations, res.SpawnsMigrated, res.BlockTransfersTotal, res.BlockTransfersMax, res.MaxWriteCount)
			}
		})
	}
}

// TestGoldenDeterminismReused replays every pinned golden case through ONE
// engine, Reset between cases, and requires each Result to be bit-for-bit
// equal to a fresh engine's, with the same per-processor counters and
// Stats. The golden sequence is deliberately
// heterogeneous — different processor counts, policies, topologies and steal
// pricing back to back — so any state leaking across Reset (stale coherence
// pages, RNG position, counters, allocator high-water) shows up against the
// same reference values the fresh-engine golden test pins.
func TestGoldenDeterminismReused(t *testing.T) {
	cases := append(goldenCases(), policyGoldenCases()...)
	var reused *Engine
	defer func() {
		if reused != nil {
			reused.Close()
		}
	}()
	for _, g := range cases {
		cfg := g.cfg()
		fresh := MustNewEngine(cfg)
		fBase := fresh.Machine().Alloc.Alloc(g.words)
		fo := outcomeOf(fresh, fresh.Run(func(c *Ctx) { g.workload(c, fBase) }))

		if reused == nil {
			reused = MustNewEngine(cfg)
		}
		if err := reused.Reset(cfg); err != nil {
			t.Fatalf("%s: Reset: %v", g.name, err)
		}
		rBase := reused.Machine().Alloc.Alloc(g.words)
		ro := outcomeOf(reused, reused.Run(func(c *Ctx) { g.workload(c, rBase) }))

		if !reflect.DeepEqual(fo, ro) {
			t.Errorf("%s: reused engine diverged from fresh:\nfresh:  %+v\nreused: %+v", g.name, fo, ro)
		}
		if ro.Makespan != g.makespan || ro.Totals != g.totals {
			t.Errorf("%s: reused engine diverged from pinned golden: makespan %d (want %d), totals %+v (want %+v)",
				g.name, ro.Makespan, g.makespan, ro.Totals, g.totals)
		}
	}
}

// TestUniformExplicitMatchesDefault is the cross-policy differential: an
// engine with Policy: Uniform{} set explicitly must reproduce the
// nil-policy runs — and therefore the pre-refactor goldens — bit-for-bit.
// The policy extraction must not have changed the default discipline's RNG
// consumption or action order in any way.
func TestUniformExplicitMatchesDefault(t *testing.T) {
	for _, g := range goldenCases() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			run := func(pol StealPolicy) outcome {
				cfg := g.cfg()
				cfg.Policy = pol
				e := MustNewEngine(cfg)
				base := e.Machine().Alloc.Alloc(g.words)
				return outcomeOf(e, e.Run(func(c *Ctx) { g.workload(c, base) }))
			}
			def := run(nil)
			uni := run(Uniform{})
			if !reflect.DeepEqual(def, uni) {
				t.Errorf("explicit Uniform diverged from default policy:\ndefault: %+v\nuniform: %+v", def, uni)
			}
		})
	}
}

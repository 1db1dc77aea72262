package rws

import (
	"reflect"
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
)

// FuzzEngineReuse fuzzes the Reset lifecycle: the input bytes decode a
// *sequence* of run configurations — each chunk selects a policy, processor
// count, socket partition, steal pricing, budget, workload size, seed and
// fast-path mode — and the whole sequence is run twice, once through fresh
// engines and once through a single engine Reset between runs, which
// alternates Run with Replay of the workload's recording. Every run's
// Result, per-processor counters and Stats, and every Run's simulated
// output, must be bit-for-bit equal
// across the two, so any state that leaks across Reset or between the two
// modes (directory or cache pages from a stale generation, RNG position,
// allocator high-water, pooled metadata and strands) is caught on
// arbitrary config transitions, including P growing and shrinking and
// pricing toggling between consecutive runs. Seed corpus lives in
// testdata/fuzz/FuzzEngineReuse; CI runs a short -fuzz pass on top of it.
func FuzzEngineReuse(f *testing.F) {
	f.Add([]byte{})
	// Two-run sequences crossing the interesting boundaries: policy change,
	// P change, flat→priced topology, budget change, lockstep mode.
	f.Add([]byte{
		0, 3, 0, 0, 255, 40, 1, 0,
		1, 7, 2, 9, 255, 60, 2, 0,
	})
	f.Add([]byte{
		4, 7, 4, 25, 255, 96, 5, 0,
		0, 0, 0, 0, 8, 20, 3, 1,
	})
	f.Add([]byte{
		2, 5, 0, 0, 8, 50, 3, 0,
		5, 5, 2, 15, 12, 70, 6, 0,
		3, 3, 4, 20, 255, 80, 4, 1,
	})
	// P shrinking to 1 (no steals possible) and growing back.
	f.Add([]byte{
		1, 6, 2, 12, 255, 48, 9, 0,
		0, 0, 0, 0, 255, 16, 2, 0,
		5, 7, 4, 18, 255, 64, 11, 0,
	})

	pols := Policies()
	f.Fuzz(func(t *testing.T, ops []byte) {
		const chunk = 8
		runs := len(ops) / chunk
		if runs == 0 {
			runs = 1
		}
		if runs > 6 {
			runs = 6
		}
		var reused *Engine
		defer func() {
			if reused != nil {
				reused.Close()
			}
		}()
		for r := 0; r < runs; r++ {
			at := func(i int) byte { return fuzzByte(ops, r*chunk+i) }
			pol := pols[int(at(0))%len(pols)]
			p := 1 + int(at(1))%8
			cfg := DefaultConfig(p)
			cfg.Machine.CostMiss = 4
			cfg.Machine.CostSteal = 8
			cfg.Machine.CostFailSteal = 4
			if sockets := int(at(2)) % 5; sockets > 1 && sockets <= p {
				cfg.Machine.Topology = machine.Topology{
					Sockets:        sockets,
					CostMissRemote: cfg.Machine.CostMiss * machine.Tick(1+int(at(3))%4),
				}
				if st := int(at(3)) % 8; st > 0 {
					cfg.Machine.Topology.CostSteal = machine.Tick(st)
					cfg.Machine.Topology.CostStealRemote = machine.Tick(st + 1 + int(at(3))%16)
				}
			}
			if b := at(4); b != 255 {
				cfg.StealBudget = int64(b) % 24
			}
			leaves := 8 + int(at(5))%88
			cfg.Seed = int64(at(6))*7919 + 1
			cfg.Policy = pol
			cfg.DisableFastPath = at(7)%2 == 1

			workload := func(c *Ctx, out mem.Addr) {
				c.ForkN(leaves, func(j int, c *Ctx) {
					c.Work(machine.Tick(1 + j%13))
					c.StoreInt(out+mem.Addr(j), int64(j))
				})
			}
			fresh := MustNewEngine(cfg)
			fOut := fresh.Machine().Alloc.Alloc(leaves)
			fo := outcomeOf(fresh, fresh.Run(func(c *Ctx) { workload(c, fOut) }))

			if reused == nil {
				reused = MustNewEngine(cfg)
			}
			if err := reused.Reset(cfg); err != nil {
				t.Fatalf("run %d: Reset: %v", r, err)
			}
			if r%2 == 1 {
				// Odd runs replay the workload's recording instead, so the
				// one engine's strands, pools and machine pass back and
				// forth between coroutine runs and replays.
				ro := outcomeOf(reused, reused.Replay(recordAt(t, cfg, leaves, workload)))
				if !reflect.DeepEqual(fo, ro) {
					t.Fatalf("run %d (%s, p=%d): replay on the reused engine diverged from fresh:\nfresh:  %+v\nreplay: %+v",
						r, pol.Name(), p, fo, ro)
				}
				continue
			}
			rOut := reused.Machine().Alloc.Alloc(leaves)
			ro := outcomeOf(reused, reused.Run(func(c *Ctx) { workload(c, rOut) }))

			if fOut != rOut {
				t.Fatalf("run %d: allocator diverged: fresh base %d, reused base %d", r, fOut, rOut)
			}
			if !reflect.DeepEqual(fo, ro) {
				t.Fatalf("run %d (%s, p=%d): reused engine diverged from fresh:\nfresh:  %+v\nreused: %+v",
					r, pol.Name(), p, fo, ro)
			}
			for j := 0; j < leaves; j++ {
				if got := reused.Machine().Mem.LoadInt(rOut + mem.Addr(j)); got != int64(j) {
					t.Fatalf("run %d: reused output[%d] = %d, want %d", r, j, got, j)
				}
			}
		}
	})
}

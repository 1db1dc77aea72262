// False sharing, three ways: first measured exactly on the simulated flat
// machine (block misses, per-block transfers), then on a two-socket machine
// with distance-priced steals where Ctx.PlaceLocal keeps result blocks off
// the interconnect, then timed on your real CPU with padded vs unpadded
// per-goroutine counters.
//
//	go run ./examples/falsesharing
package main

import (
	"fmt"
	"runtime"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
	"rwsfs/internal/native"
	"rwsfs/internal/rws"
)

func main() {
	simulated()
	placed()
	nativeHost()
}

// simulated reproduces Section 2.1's scenario on the simulator: two tasks
// write distinct words of one block vs of two separate blocks.
func simulated() {
	fmt.Println("— simulated machine (exact counts) —")
	run := func(gap int) rws.Result {
		cfg := rws.DefaultConfig(2)
		cfg.Seed = 3
		e := rws.MustNewEngine(cfg)
		buf := e.Machine().Alloc.Alloc(2 * cfg.Machine.B)
		return e.Run(func(c *rws.Ctx) {
			c.Fork(
				func(c *rws.Ctx) {
					for i := 0; i < 300; i++ {
						c.Write(buf)
						c.Work(3)
					}
				},
				func(c *rws.Ctx) {
					for i := 0; i < 300; i++ {
						c.Write(buf + mem.Addr(gap))
						c.Work(3)
					}
				},
			)
		})
	}
	shared := run(1)                             // two words, one block
	apart := run(rws.DefaultConfig(2).Machine.B) // two words, two blocks
	fmt.Printf("  same block:      blockMisses=%4d  maxTransfers=%4d  makespan=%6d\n",
		shared.Totals.BlockMisses, shared.BlockTransfersMax, shared.Makespan)
	fmt.Printf("  separate blocks: blockMisses=%4d  maxTransfers=%4d  makespan=%6d\n",
		apart.Totals.BlockMisses, apart.BlockTransfersMax, apart.Makespan)
	fmt.Println("  (with a steal, the same-block run bounces its block on every write pair)")
	fmt.Println()
}

// placed moves the same write-contention story onto a two-socket machine
// with distance-priced stealing: a socket-0 root initializes one result
// slot (a full block) per leaf, so every remote leaf's first fetch crosses
// the interconnect — unless the leaf re-places its slot locally first with
// Ctx.PlaceLocal (the NUMA first-touch the helpers model). Steal attempts
// pay 5 ticks inside a socket and 25 across, charged at probe time.
func placed() {
	fmt.Println("— simulated 2-socket machine (steal price 5 local / 25 remote) —")
	run := func(place bool) rws.Result {
		cfg := rws.DefaultConfig(4)
		cfg.Seed = 3
		cfg.Policy = rws.Hierarchical{}
		cfg.Machine.Topology = machine.Topology{
			Sockets: 2, CostMissRemote: 4 * cfg.Machine.CostMiss,
			CostSteal: 5, CostStealRemote: 25,
		}
		e := rws.MustNewEngine(cfg)
		B := cfg.Machine.B
		leaves := 64
		slots := e.Machine().Alloc.Alloc(leaves * B)
		return e.Run(func(c *rws.Ctx) {
			c.WriteRange(slots, leaves*B) // root's socket owns every slot
			c.ForkN(leaves, func(j int, c *rws.Ctx) {
				slot := slots + mem.Addr(j*B)
				if place {
					c.PlaceLocal(slot, B)
				}
				c.Work(9)
				c.WriteRange(slot, B)
			})
		})
	}
	inherited := run(false)
	local := run(true)
	fmt.Printf("  root-owned slots: remoteFetches=%4d  stealLatency=%5d  makespan=%6d\n",
		inherited.Totals.RemoteFetches, inherited.Totals.StealLatency, inherited.Makespan)
	fmt.Printf("  PlaceLocal slots: remoteFetches=%4d  stealLatency=%5d  makespan=%6d\n",
		local.Totals.RemoteFetches, local.Totals.StealLatency, local.Makespan)
	fmt.Println("  (placement re-binds each slot to its consumer's socket; only genuinely")
	fmt.Println("   shared blocks still cross the interconnect)")
	fmt.Println()
}

// nativeHost times the same contrast on the real machine.
func nativeHost() {
	fmt.Println("— native host (wall clock) —")
	workers := 4
	if n := runtime.GOMAXPROCS(0); n < workers {
		workers = n
	}
	r := native.MeasureFalseSharing(workers, 2_000_000)
	fmt.Printf("  %d workers x %d increments\n", r.Workers, r.Iterations)
	fmt.Printf("  unpadded (one cache line):  %v\n", r.Unpadded)
	fmt.Printf("  padded (line per counter):  %v\n", r.Padded)
	fmt.Printf("  slowdown from false sharing: %.2fx\n", r.Slowdown)
}

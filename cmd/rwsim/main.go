// Command rwsim runs one algorithm on the simulated machine under randomized
// work stealing and prints the cost metrics the paper's analysis bounds:
// steals, cache misses, block misses (false sharing), per-block transfer
// maxima, and makespan.
//
// Usage:
//
//	rwsim -alg matmul-la -n 64 -p 8 [-seed 1] [-B 16] [-M 4096]
//	      [-b 10] [-s 20] [-budget -1] [-seq]
//	      [-policy uniform|localized|stealhalf|affinity|hierarchical|latencyaware]
//	      [-sockets 1] [-remote 0] [-steal-cost 0] [-steal-cost-remote 0]
//	      [-cpuprofile out.prof] [-memprofile out.prof]
//
// Algorithms: matmul-ip, matmul-la, matmul-log, prefix, prefix-padded,
// transpose, rm2bi, bi2rm, bi2rm-natural, bi2rm-rowgather, sort-merge,
// sort-col, fft, listrank, conncomp.
//
// -policy selects the steal discipline (default: the paper's uniform
// victim, one task per steal). -sockets partitions the processors into
// that many sockets and -remote sets the cross-socket block-transfer cost
// in ticks (0 = same as -b). -steal-cost and -steal-cost-remote price the
// steal protocol itself: every steal attempt pays the same-socket
// (-steal-cost) or cross-socket (-steal-cost-remote, requires -sockets > 1,
// 0 = same as -steal-cost) latency at probe time, failed probes included.
// The extra policy/topology/steal-latency metrics are printed only when
// these flags leave their defaults, so default output is unchanged.
//
// The profile flags exist so hot-path work on the simulator starts from a
// real workload profile instead of guesswork.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"rwsfs/internal/harness"
	"rwsfs/internal/machine"
	"rwsfs/internal/rws"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: it parses args, executes the requested
// simulation, writes the report to stdout, and returns the process exit
// code (0 success, 2 usage/validation error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rwsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	alg := fs.String("alg", "matmul-la", "algorithm to run")
	n := fs.Int("n", 64, "problem size (matrix side, vector length, ...)")
	p := fs.Int("p", 8, "processors")
	seed := fs.Int64("seed", 1, "scheduling seed")
	bWords := fs.Int("B", 16, "block size in words")
	mWords := fs.Int("M", 4096, "cache size in words")
	bCost := fs.Int64("b", 10, "cache miss cost (ticks)")
	sCost := fs.Int64("s", 20, "steal cost (ticks)")
	budget := fs.Int64("budget", -1, "steal budget (-1 = unlimited)")
	policyName := fs.String("policy", "uniform",
		"steal policy: uniform, localized, stealhalf, affinity, hierarchical, latencyaware")
	sockets := fs.Int("sockets", 1, "socket count (1 = the paper's flat machine)")
	remote := fs.Int64("remote", 0, "cross-socket block transfer cost in ticks (0 = same as -b)")
	stealCost := fs.Int64("steal-cost", 0, "same-socket steal-attempt latency in ticks (0 = unpriced)")
	stealCostRemote := fs.Int64("steal-cost-remote", 0,
		"cross-socket steal-attempt latency in ticks (0 = same as -steal-cost; requires -sockets > 1)")
	seq := fs.Bool("seq", false, "also run p=1 baseline and report speedup")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/-help printed usage; that is a successful run
		}
		return 2
	}

	if err := harness.CheckSize(*alg, *n); err != nil {
		fmt.Fprintf(stderr, "rwsim: %v\n", err)
		return 2
	}
	mk, _ := harness.WorkloadMaker(*alg, *n)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "rwsim: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "rwsim: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "rwsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "rwsim: %v\n", err)
			}
		}()
	}

	pol, ok := rws.PolicyByName(*policyName)
	if !ok {
		fmt.Fprintf(stderr, "rwsim: unknown policy %q\n", *policyName)
		return 2
	}
	if *remote != 0 && *sockets <= 1 {
		fmt.Fprintln(stderr, "rwsim: -remote requires -sockets > 1 (a flat machine has no remote transfers)")
		return 2
	}
	if *stealCostRemote != 0 && *sockets <= 1 {
		fmt.Fprintln(stderr, "rwsim: -steal-cost-remote requires -sockets > 1 (a flat machine has no remote probes)")
		return 2
	}

	cfg := rws.DefaultConfig(*p)
	cfg.Machine.B = *bWords
	cfg.Machine.M = *mWords
	cfg.Machine.CostMiss = machine.Tick(*bCost)
	cfg.Machine.CostSteal = machine.Tick(*sCost)
	cfg.Machine.CostFailSteal = machine.Tick(*bCost)
	cfg.Seed = *seed
	cfg.StealBudget = *budget
	cfg.Policy = pol
	if *sockets > 1 {
		cfg.Machine.Topology = machine.Topology{Sockets: *sockets, CostMissRemote: machine.Tick(*remote)}
	}
	cfg.Machine.Topology.CostSteal = machine.Tick(*stealCost)
	cfg.Machine.Topology.CostStealRemote = machine.Tick(*stealCostRemote)
	if err := cfg.Machine.Validate(); err != nil {
		fmt.Fprintf(stderr, "rwsim: %v\n", err)
		return 2
	}

	// One-shot pool: the sequential baseline below reuses the priced run's
	// engine via Reset instead of constructing a second machine.
	var pool harness.Runner
	defer pool.Close()
	e, root := mk(&pool, cfg)
	res := e.Run(root)
	report(stdout, *alg, *n, res, e.Stats(), *policyName)
	pool.Recycle(e)

	if *seq && *p > 1 {
		c1 := cfg
		c1.Machine.P = 1
		// The sequential baseline is by definition a flat one-processor
		// machine; keeping a multi-socket topology or distance pricing
		// would fail validation (and could not fire anyway: no victims).
		c1.Machine.Topology = machine.Topology{}
		e1, root1 := mk(&pool, c1)
		r1 := e1.Run(root1)
		pool.Recycle(e1)
		fmt.Fprintf(stdout, "%-24s %d\n", "seq makespan:", r1.Makespan)
		fmt.Fprintf(stdout, "%-24s %.2fx\n", "speedup:", float64(r1.Makespan)/float64(res.Makespan))
	}
	return 0
}

func report(w io.Writer, alg string, n int, r rws.Result, st rws.Stats, policy string) {
	fmt.Fprintf(w, "algorithm %s, n=%d, p=%d, B=%d, M=%d, b=%d, s=%d, seed-dependent schedule\n",
		alg, n, r.Params.P, r.Params.B, r.Params.M, r.Params.CostMiss, r.Params.CostSteal)
	rows := [][2]string{
		{"makespan (ticks):", fmt.Sprint(r.Makespan)},
		{"work ticks:", fmt.Sprint(r.Totals.WorkTicks)},
		{"successful steals:", fmt.Sprint(r.Steals)},
		{"failed steals:", fmt.Sprint(r.FailedSteals)},
		{"spawns:", fmt.Sprint(r.Spawns)},
		{"usurpations:", fmt.Sprint(r.Usurpations)},
		{"cache misses:", fmt.Sprint(r.Totals.CacheMisses)},
		{"block misses:", fmt.Sprint(r.Totals.BlockMisses)},
		{"block wait ticks:", fmt.Sprint(r.Totals.BlockWait)},
		{"block transfers:", fmt.Sprint(r.BlockTransfersTotal)},
		{"max transfers/block:", fmt.Sprint(r.BlockTransfersMax)},
		{"root stack peak:", fmt.Sprint(r.RootStackPeak)},
		{"stacks created/reused:", fmt.Sprintf("%d/%d", st.StacksCreated, st.StacksReused)},
	}
	// The policy/topology/steal-pricing rows appear only off the defaults,
	// keeping the paper-configuration output byte-identical to earlier
	// releases.
	if policy != "uniform" || !r.Params.Topology.Flat() {
		rows = append(rows,
			[2]string{"steal policy:", policy},
			[2]string{"migrated spawns:", fmt.Sprint(r.SpawnsMigrated)},
			[2]string{"sockets:", fmt.Sprint(max(r.Params.Topology.Sockets, 1))},
			[2]string{"remote fetches:", fmt.Sprint(r.Totals.RemoteFetches)})
	}
	if r.Params.Topology.StealPriced() {
		rows = append(rows,
			[2]string{"remote steal probes:", fmt.Sprint(r.Totals.RemoteSteals)},
			[2]string{"steal latency (ticks):", fmt.Sprint(r.Totals.StealLatency)})
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-24s %s\n", row[0], row[1])
	}
}

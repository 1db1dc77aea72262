package harness

import (
	"fmt"
	"math"

	"rwsfs/internal/alg/matmul"
	"rwsfs/internal/alg/prefix"
	"rwsfs/internal/analysis"
	"rwsfs/internal/machine"
	"rwsfs/internal/rws"
)

// The policy/topology experiments (E16–E21) compare the paper's uniform
// stealing discipline against the pluggable alternatives on the
// false-sharing metrics the analysis bounds, and price steal attempts and
// block transfers by socket distance. Each lists its points, policy and
// topology in the Config, for sweep like every other experiment. Every run
// owns its engine and consumes only its own RNG (see the StealPolicy RNG
// ownership rule), so a policy value shared by the points of a batch
// couples no runs, and the output is byte-identical for any worker count.

// E16 compares every registered steal policy on one false-sharing-heavy BP
// workload over the flat machine.
func E16(s Scale) Table {
	n := 4096
	if s == Quick {
		n = 1024
	}
	mk := prefixKernel(n, prefix.Config{Chunk: 1})
	t := Table{
		ID:    "E16",
		Title: fmt.Sprintf("steal policies on prefix sums (n=%d, p=8, flat topology, avg of 3 seeds)", n),
		Note: "Victim selection and take size are the policy knobs the paper fixes to (uniform, 1); " +
			"this table compares the disciplines' steal and false-sharing profiles on identical work. " +
			"Spawn counts must not vary: policies change who consumes a spawn, never how many exist.",
		Header: []string{"policy", "S(avg)", "migrated", "blockMiss", "blockWait", "makespan"},
	}
	pols := rws.Policies()
	pts := make([]point, len(pols))
	for i, pol := range pols {
		base := rws.DefaultConfig(8)
		base.Policy = pol
		pts[i] = point{mk, base}
	}
	rows := sweep(pts, seeds)
	conserved := true
	var spawns []int64
	for i, pol := range pols {
		for _, res := range rows[i] {
			if res.Spawns != res.Steals+res.InlinePops+res.IdlePops {
				conserved = false
			}
		}
		spawns = append(spawns, rows[i][0].Spawns)
		sm, runs := sum(rows[i])
		t.AddRow(pol.Name(), fmtF(float64(sm.Steals)/float64(runs)), fmtI(sm.SpawnsMigrated/runs),
			fmtI(sm.Totals.BlockMisses/runs), fmtI(int64(sm.Totals.BlockWait)/runs), fmtI(int64(sm.Makespan)/runs))
	}
	t.Checked("every run conserves spawns (S + inline + idle pops)", conserved,
		"consumption identity held for all policy runs")
	sameSpawns := true
	for _, sp := range spawns[1:] {
		if sp != spawns[0] {
			sameSpawns = false
		}
	}
	t.Checked("spawn count is policy-invariant", sameSpawns,
		fmt.Sprintf("all policies spawned %d tasks", spawns[0]))
	return t
}

// E17 puts uniform and localized stealing on multi-socket topologies and
// measures how victim locality shifts cross-socket block traffic.
func E17(s Scale) Table {
	n := 4096
	if s == Quick {
		n = 1024
	}
	mk := prefixKernel(n, prefix.Config{Chunk: 1})
	t := Table{
		ID:    "E17",
		Title: fmt.Sprintf("uniform vs localized stealing across socket topologies (prefix n=%d, p=8, remote=4b, avg of 3 seeds)", n),
		Note: "Localized steals stay in the thief's socket 3 attempts in 4, so stolen tasks' blocks " +
			"cross the interconnect less often; remoteFetch counts block transfers whose last owner " +
			"was in another socket (always 0 on the flat machine).",
		Header: []string{"sockets", "policy", "S(avg)", "remoteFetch", "blockMiss", "makespan"},
	}
	sockets := []int{1, 2, 4}
	pols := []rws.StealPolicy{rws.Uniform{}, rws.Localized{}}
	var pts []point
	for _, sk := range sockets {
		for _, pol := range pols {
			base := rws.DefaultConfig(8)
			base.Policy = pol
			if sk > 1 {
				base.Machine.Topology = machine.Topology{Sockets: sk, CostMissRemote: 4 * base.Machine.CostMiss}
			}
			pts = append(pts, point{mk, base})
		}
	}
	rows := sweep(pts, seeds)
	localizedNoWorse := true
	for si, sk := range sockets {
		var remote [2]int64
		for pi, pol := range pols {
			sm, runs := sum(rows[si*len(pols)+pi])
			remote[pi] = sm.Totals.RemoteFetches
			t.AddRow(fmtI(int64(sk)), pol.Name(), fmtF(float64(sm.Steals)/float64(runs)),
				fmtI(sm.Totals.RemoteFetches/runs), fmtI(sm.Totals.BlockMisses/runs), fmtI(int64(sm.Makespan)/runs))
		}
		if sk > 1 && remote[1] > remote[0] {
			localizedNoWorse = false
		}
	}
	t.Checked("flat topology has zero remote fetches", rows[0][0].Totals.RemoteFetches == 0,
		"provenance pricing is inert on the paper's machine")
	t.Checked("localized stealing does not increase cross-socket traffic", localizedNoWorse,
		"avg remote fetches, localized <= uniform, on every multi-socket topology")
	return t
}

// E18 sweeps policy × (p, B) on the depth-n limited-access MM and checks
// the Lemma 4.5 block-miss shape holds under every discipline.
func E18(s Scale) Table {
	n := 64 // BI layouts need power-of-two sides
	if s == Quick {
		n = 32
	}
	t := Table{
		ID:    "E18",
		Title: fmt.Sprintf("policy × (p, B) false-sharing sweep on depth-n MM (n=%d, M=256B, avg of 2 seeds)", n),
		Note: "Lemma 4.5's O(S·B) block-miss bound is proved for uniform stealing; this sweep asks " +
			"whether the alternative disciplines stay within the same shape (they should: the bound " +
			"counts O(1) shared writable blocks per stolen task, a property of the algorithm, not the victim choice).",
		Header: []string{"p", "B", "policy", "S(avg)", "blockMiss", "blk/(S·B)"},
	}
	pols := rws.Policies()
	shapes := []struct{ p, B int }{{4, 8}, {8, 8}, {4, 32}, {8, 32}}
	mk := mmKernel(matmul.LimitedAccessDepthN, n, 4)
	var pts []point
	for _, sh := range shapes {
		for _, pol := range pols {
			base := rws.DefaultConfig(sh.p)
			base.Machine.B = sh.B
			base.Machine.M = 256 * sh.B
			base.Policy = pol
			pts = append(pts, point{mk, base})
		}
	}
	rows := sweep(pts, seeds[:2])
	var ratios []float64
	for si, sh := range shapes {
		cs := costs(machine.DefaultParams(sh.p))
		cs.B = sh.B
		for pi, pol := range pols {
			sm, runs := sum(rows[si*len(pols)+pi])
			avgS := float64(sm.Steals) / float64(runs)
			avgB := float64(sm.Totals.BlockMisses) / float64(runs)
			perSB := math.NaN()
			if avgS > 0 {
				perSB = avgB / (analysis.BlockDelayPerSteal(avgS, cs))
				ratios = append(ratios, perSB)
			}
			t.AddRow(fmtI(int64(sh.p)), fmtI(int64(sh.B)), pol.Name(), fmtF(avgS), fmtF(avgB), fmtF(perSB))
		}
	}
	t.Checked("block misses stay O(S·B) under every policy", maxOf(ratios) <= 2,
		fmt.Sprintf("worst blockMiss/(S·B) ratio %.2f across the sweep", maxOf(ratios)))
	return t
}

// E19 prices steal attempts by socket distance on a four-socket machine and
// compares the disciplines' total steal latency at matched steal counts: a
// shared steal budget pins the successful-steal count, so the latency
// difference isolates where each policy's probes land, not how many tasks
// it moves.
func E19(s Scale) Table {
	n := 4096
	if s == Quick {
		n = 1024
	}
	budget := int64(48)
	mk := prefixKernel(n, prefix.Config{Chunk: 1})
	t := Table{
		ID: "E19",
		Title: fmt.Sprintf("distance-priced stealing on a 4-socket machine (prefix n=%d, p=8, steal price 5 local / 25 remote, budget S=%d, avg of 3 seeds)",
			n, budget),
		Note: "Every steal attempt pays the topology's distance price at probe time — failed remote probes " +
			"included — so a discipline that keeps its probes inside the thief's socket cuts total steal " +
			"latency without stealing any less. remoteProbes counts cross-socket attempts.",
		Header: []string{"policy", "S(avg)", "attempts", "remoteProbes", "stealLatency", "makespan"},
	}
	pols := []rws.StealPolicy{rws.Uniform{}, rws.Localized{}, rws.Hierarchical{}, rws.LatencyAware{}}
	pts := make([]point, len(pols))
	for i, pol := range pols {
		base := rws.DefaultConfig(8)
		base.Policy = pol
		base.Machine.Topology = machine.Topology{
			Sockets: 4, CostMissRemote: 4 * base.Machine.CostMiss,
			CostSteal: 5, CostStealRemote: 25,
		}
		pts[i] = at(mk, base, 8, budget)
	}
	rows := sweep(pts, seeds)
	lat := make([]int64, len(pols))
	stealsMatch := true
	conserved := true
	for i, pol := range pols {
		for _, res := range rows[i] {
			if res.Steals != budget {
				stealsMatch = false
			}
			local := (res.Totals.StealsOK + res.Totals.StealsFail) - res.Totals.RemoteSteals
			if int64(res.Totals.StealLatency) != local*5+res.Totals.RemoteSteals*25 {
				conserved = false
			}
		}
		sm, runs := sum(rows[i])
		lat[i] = int64(sm.Totals.StealLatency)
		t.AddRow(pol.Name(), fmtF(float64(sm.Steals)/float64(runs)), fmtI((sm.Totals.StealsOK+sm.Totals.StealsFail)/runs),
			fmtI(sm.Totals.RemoteSteals/runs), fmtI(lat[i]/runs), fmtI(int64(sm.Makespan)/runs))
	}
	t.Checked("steal counts match across policies (budget binds)", stealsMatch,
		fmt.Sprintf("every run hit the shared budget of %d successful steals", budget))
	t.Checked("steal latency == priced attempts x configured costs", conserved,
		"local x 5 + remote x 25 reconstructed every run's charged latency exactly")
	hier := float64(lat[2]) / float64(lat[0])
	t.Checked("hierarchical cuts total steal latency >=15% vs uniform", hier <= 0.85,
		fmt.Sprintf("hierarchical/uniform latency ratio %.2f at equal steal counts", hier))
	return t
}

// E20 re-runs the Theorem 5.1 steal-count sweep (E07's shape) with
// distance-priced steal attempts switched on: pricing changes when idle
// processors' clocks advance, not how many steals the bound allows, so
// S = O(p·h(t)) must survive unchanged.
func E20(s Scale) Table {
	n := 32
	mk := mmKernel(matmul.LimitedAccessDepthN, n, 4)
	base := rws.DefaultConfig(2)
	base.Machine.Topology = machine.Topology{
		Sockets: 2, CostMissRemote: 4 * base.Machine.CostMiss,
		CostSteal: 5, CostStealRemote: 25,
	}
	cs := costs(base.Machine)
	tinf := float64(6 * n) // depth-n recursion with log-depth fork trees
	h := analysis.HRootGeneral(tinf, float64(base.Machine.B), cs)
	t := Table{
		ID:    "E20",
		Title: fmt.Sprintf("Theorem 5.1 steal bound under distance-priced stealing (depth-n MM, n=%d, 2 sockets, price 5/25)", n),
		Note: fmt.Sprintf("Steal pricing slows thieves down (every attempt pays the distance) but the bound "+
			"S = O(p·h(t)·(1+a)) with h(t) = %.0f counts steals, not their latency: the priced sweep must "+
			"keep the same shape as E07's unpriced one. Rows average 3 scheduling seeds; a=1.", h),
		Header: []string{"p", "S(avg)", "bound p·h·2", "S/bound", "remoteProbes", "stealLatency"},
	}
	ps := []int{2, 4, 8, 16}
	if s == Quick {
		ps = []int{2, 4, 8}
	}
	pts := make([]point, len(ps))
	for i, p := range ps {
		pts[i] = at(mk, base, p, -1)
	}
	rows := sweep(pts, seeds)
	var ratios []float64
	priced := true
	for i, p := range ps {
		for _, res := range rows[i] {
			if res.Totals.StealLatency == 0 && res.Totals.StealsOK+res.Totals.StealsFail > 0 {
				priced = false
			}
		}
		sm, runs := sum(rows[i])
		avg := float64(sm.Steals) / float64(runs)
		bound := analysis.StealBoundGeneral(p, h, 1)
		ratios = append(ratios, avg/bound)
		t.AddRow(fmtI(int64(p)), fmtF(avg), fmtF(bound), fmtF(avg/bound),
			fmtI(sm.Totals.RemoteSteals/runs), fmtI(int64(sm.Totals.StealLatency)/runs))
	}
	t.Checked("priced steals stay under p·h(t)·(1+a)", maxOf(ratios) <= 1,
		fmt.Sprintf("worst S/bound %.3f with attempt pricing on", maxOf(ratios)))
	t.Checked("pricing actually engaged", priced,
		"every run with steal attempts charged nonzero steal latency")
	return t
}

// E21 measures the Ctx placement helpers: leaves on a four-socket machine
// write into result slots a socket-0 root initialized, with and without
// each leaf first re-placing its slot via Ctx.PlaceLocal (NUMA first-touch:
// the slot's blocks bind to the consumer's socket instead of inheriting the
// initializer's provenance).
func E21(s Scale) Table {
	leaves := 512
	if s == Quick {
		leaves = 192
	}
	t := Table{
		ID:    "E21",
		Title: fmt.Sprintf("Ctx.PlaceLocal on root-initialized result slots (4 sockets, p=8, %d leaves, remote=4b, avg of 3 seeds)", leaves),
		Note: "Without placement every leaf's first fetch of its result slot crosses to the root's socket " +
			"(the root's initializing writes own the blocks); PlaceLocal re-binds a slot to the leaf's " +
			"socket before use, so only genuinely shared traffic stays remote. Same timed work either way.",
		Header: []string{"variant", "remoteFetch", "blockMiss", "missStall", "makespan"},
	}
	base := rws.DefaultConfig(8)
	base.Machine.Topology = machine.Topology{Sockets: 4, CostMissRemote: 4 * base.Machine.CostMiss}
	rows := sweep([]point{
		{placementKernel(leaves, false), base},
		{placementKernel(leaves, true), base},
	}, seeds)
	var remote [2]int64 // unplaced, placed
	for i, name := range []string{"root-owned slots", "PlaceLocal slots"} {
		sm, runs := sum(rows[i])
		remote[i] = sm.Totals.RemoteFetches
		t.AddRow(name, fmtI(sm.Totals.RemoteFetches/runs), fmtI(sm.Totals.BlockMisses/runs),
			fmtI(int64(sm.Totals.MissStall)/runs), fmtI(int64(sm.Makespan)/runs))
	}
	ratio := float64(remote[1]) / float64(remote[0])
	t.Checked("placement cuts cross-socket fetches", remote[1] < remote[0],
		fmt.Sprintf("remote fetches placed/unplaced ratio %.2f", ratio))
	return t
}

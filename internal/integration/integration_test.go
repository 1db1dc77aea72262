// Package integration_test exercises cross-module behaviour: the paper's
// lemma-level invariants verified on whole algorithm runs (per-task block
// delay audits, space bounds, cost-model monotonicity) and end-to-end
// pipelines combining several algorithms.
package integration_test

import (
	"testing"

	"rwsfs/internal/alg/convert"
	"rwsfs/internal/alg/matmul"
	"rwsfs/internal/alg/prefix"
	"rwsfs/internal/alg/sorthbp"
	"rwsfs/internal/analysis"
	"rwsfs/internal/harness"
	"rwsfs/internal/layout"
	"rwsfs/internal/machine"
	"rwsfs/internal/matrix"
	"rwsfs/internal/rws"
)

// intPool reuses engines across the integration tests' maker-driven runs,
// exercising the harness pooling path from outside the harness package.
var intPool harness.Runner

// TestLemma43PerTaskBlockDelayTreeAlgorithm audits every task of a BP (tree)
// computation: no block of a task's own execution stack may move more than
// O(min{B, ht(τ)}) times during the task's lifetime (Lemma 4.3).
func TestLemma43PerTaskBlockDelayTreeAlgorithm(t *testing.T) {
	n := 2048
	for _, seed := range []int64{1, 2, 3} {
		cfg := rws.DefaultConfig(8)
		cfg.Seed = seed
		cfg.AuditStackBlocks = true
		cfg.RootStackWords = prefix.StackWords(prefix.Config{Chunk: 1}, n) + (1 << 12)
		e := rws.MustNewEngine(cfg)
		mm := e.Machine()
		in := mm.Alloc.Alloc(n)
		out := mm.Alloc.Alloc(n)
		res := e.Run(prefix.Build(prefix.Config{Chunk: 1}, in, out, n))

		ht := 2 * log2(n) // down-pass + up-pass
		bound := int64(analysis.TreeBlockDelay(ht, cfg.Machine.B))
		// Constant slack: e accesses per variable, two passes, join flags.
		allowed := 6*bound + 16
		for _, a := range res.StackAudits {
			if a.MaxBlockMoves > allowed {
				t.Errorf("seed %d task %d (stolen=%v, |τ|≈%d): block moved %d times > allowed %d",
					seed, a.TaskID, a.Stolen, a.KernelAccesses, a.MaxBlockMoves, allowed)
			}
		}
		if len(res.StackAudits) == 0 {
			t.Fatal("audit produced no records")
		}
	}
}

// TestLemma44PerTaskBlockDelayHBP audits the limited-access depth-n MM: the
// per-task block delay must obey Y(|τ|, B) = O(min{c·B, |τ|}) (Lemma 4.4
// with Sl(n) = Θ(n), c = 2 collections).
func TestLemma44PerTaskBlockDelayHBP(t *testing.T) {
	a := matrix.Random(32, 1)
	b := matrix.Random(32, 2)
	for _, seed := range []int64{1, 2, 3} {
		cfg := rws.DefaultConfig(8)
		cfg.Seed = seed
		cfg.AuditStackBlocks = true
		res, got := matmul.Run(cfg, matmul.Config{Variant: matmul.LimitedAccessDepthN, Base: 4}, a, b)
		if !matrix.Equal(got, matrix.Multiply(a, b)) {
			t.Fatal("wrong product")
		}
		for _, au := range res.StackAudits {
			y := int64(analysis.YBoundLinear(int(max(au.KernelAccesses, 1)), cfg.Machine.B, 2))
			allowed := 6*y + 16
			if au.MaxBlockMoves > allowed {
				t.Errorf("seed %d task %d (stolen=%v, |τ|≈%d): block moved %d times > Y-bound slack %d",
					seed, au.TaskID, au.Stolen, au.KernelAccesses, au.MaxBlockMoves, allowed)
			}
		}
	}
}

// TestConversionPipelineAroundMM is Section 4.3's composition: inputs in RM,
// convert to BI, multiply, convert back — the end-to-end path whose costs
// the paper argues are dominated by the MM itself.
func TestConversionPipelineAroundMM(t *testing.T) {
	n := 16
	aVals := matrix.Random(n, 5)
	bVals := matrix.Random(n, 6)
	want := matrix.Multiply(aVals, bVals)

	cfg := rws.DefaultConfig(8)
	cfg.Seed = 9
	mmCfg := matmul.Config{Variant: matmul.LimitedAccessDepthN, Base: 4}
	cfg.RootStackWords = mmCfg.StackWords(n) + convert.StackWordsBIToRM(n) + (1 << 13)
	e := rws.MustNewEngine(cfg)
	mm := e.Machine()

	aRM := matrix.New(mm.Alloc, n, layout.RowMajor)
	bRM := matrix.New(mm.Alloc, n, layout.RowMajor)
	outRM := matrix.New(mm.Alloc, n, layout.RowMajor)
	aBI := matrix.New(mm.Alloc, n, layout.BitInterleaved)
	bBI := matrix.New(mm.Alloc, n, layout.BitInterleaved)
	oBI := matrix.New(mm.Alloc, n, layout.BitInterleaved)
	aRM.Fill(mm.Mem, aVals)
	bRM.Fill(mm.Mem, bVals)

	e.Run(func(c *rws.Ctx) {
		convert.RMToBI(aRM, aBI)(c)
		convert.RMToBI(bRM, bBI)(c)
		matmul.Build(mmCfg, aBI, bBI, oBI)(c)
		convert.BIToRM(oBI, outRM)(c)
	})

	if !matrix.Equal(outRM.Read(mm.Mem), want) {
		t.Fatal("RM→BI→multiply→RM pipeline produced a wrong product")
	}
}

// TestMakespanMonotoneInMissCost raises the miss cost b and expects the
// makespan not to improve (cost-model sanity for Theorem 6.4's bQ/p term).
func TestMakespanMonotoneInMissCost(t *testing.T) {
	mk := harness.SortMaker(sorthbp.Mergesort, 1024)
	var prev machine.Tick
	for i, bCost := range []machine.Tick{5, 10, 20, 40} {
		cfg := rws.DefaultConfig(4)
		cfg.Seed = 7
		cfg.Machine.CostMiss = bCost
		cfg.Machine.CostSteal = 2 * bCost
		cfg.Machine.CostFailSteal = bCost
		e, root := mk(&intPool, cfg)
		res := e.Run(root)
		if i > 0 && res.Makespan < prev {
			t.Errorf("makespan decreased when miss cost rose to %d: %d < %d", bCost, res.Makespan, prev)
		}
		prev = res.Makespan
	}
}

// TestArbitrationFreeNeverSlower compares FIFO block arbitration (contended
// fetches serialize) against the free model at identical seeds.
func TestArbitrationFreeNeverSlower(t *testing.T) {
	mk := harness.MMMaker(matmul.LimitedAccessDepthN, 32, 4)
	for _, seed := range []int64{1, 2, 3} {
		mkRun := func(arb machine.Arbitration) machine.Tick {
			cfg := rws.DefaultConfig(8)
			cfg.Seed = seed
			cfg.Machine.Arbitration = arb
			e, root := mk(&intPool, cfg)
			return e.Run(root).Makespan
		}
		fifo := mkRun(machine.ArbitrationFIFO)
		free := mkRun(machine.ArbitrationFree)
		// Not strictly deterministic across models (timing feeds back into
		// scheduling), so allow slack: free should not be much slower.
		if float64(free) > 1.1*float64(fifo) {
			t.Errorf("seed %d: free arbitration slower than FIFO: %d vs %d", seed, free, fifo)
		}
	}
}

// TestStealTickAccounting checks the exact identity between steal counters
// and steal time (Theorem 5.1's second claim is about this total).
func TestStealTickAccounting(t *testing.T) {
	mk := harness.PrefixMaker(4096, prefix.Config{Chunk: 4})
	cfg := rws.DefaultConfig(8)
	cfg.Seed = 3
	e, root := mk(&intPool, cfg)
	res := e.Run(root)
	want := machine.Tick(res.Steals)*cfg.Machine.CostSteal +
		machine.Tick(res.FailedSteals)*cfg.Machine.CostFailSteal
	if res.Totals.StealTicks != want {
		t.Errorf("steal ticks %d, want %d from %d ok + %d failed",
			res.Totals.StealTicks, want, res.Steals, res.FailedSteals)
	}
}

// TestDeterminismAcrossAllAlgorithms runs every maker twice at the same seed
// and expects identical headline metrics.
func TestDeterminismAcrossAllAlgorithms(t *testing.T) {
	makers := map[string]harness.Maker{
		"matmul-la":  harness.MMMaker(matmul.LimitedAccessDepthN, 16, 4),
		"matmul-log": harness.MMMaker(matmul.DepthLog2, 16, 4),
		"prefix":     harness.PrefixMaker(512, prefix.Config{}),
		"transpose":  harness.TransposeMaker(32),
		"rm2bi":      harness.RMToBIMaker(32),
		"bi2rm":      harness.BIToRMMaker(32, false),
		"sort-merge": harness.SortMaker(sorthbp.Mergesort, 512),
		"sort-col":   harness.SortMaker(sorthbp.Columnsort, 256),
		"fft":        harness.FFTMaker(256),
		"listrank":   harness.ListRankMaker(512),
		"conncomp":   harness.ConnCompMaker(256, 512),
	}
	for name, mk := range makers {
		run := func() rws.Result {
			cfg := rws.DefaultConfig(4)
			cfg.Seed = 11
			e, root := mk(&intPool, cfg)
			return e.Run(root)
		}
		a, b := run(), run()
		if a.Makespan != b.Makespan || a.Steals != b.Steals ||
			a.Totals.CacheMisses != b.Totals.CacheMisses ||
			a.Totals.BlockMisses != b.Totals.BlockMisses {
			t.Errorf("%s: nondeterministic run: %+v vs %+v", name, a.Totals, b.Totals)
		}
	}
}

// TestRootStackPeakWithinDeclaredBounds validates the algorithms' StackWords
// estimates (the paper's Sp(n) path-space bounds, Definition 4.6).
func TestRootStackPeakWithinDeclaredBounds(t *testing.T) {
	cases := []struct {
		name     string
		mk       harness.Maker
		declared int
	}{
		{"matmul-la n=32", harness.MMMaker(matmul.LimitedAccessDepthN, 32, 4),
			matmul.Config{Variant: matmul.LimitedAccessDepthN, Base: 4}.StackWords(32)},
		{"sort-merge n=1024", harness.SortMaker(sorthbp.Mergesort, 1024), sorthbp.StackWords(sorthbp.Mergesort, 1024)},
		{"sort-col n=1024", harness.SortMaker(sorthbp.Columnsort, 1024), sorthbp.StackWords(sorthbp.Columnsort, 1024)},
		{"prefix n=4096", harness.PrefixMaker(4096, prefix.Config{}), prefix.StackWords(prefix.Config{}, 4096)},
	}
	for _, tc := range cases {
		cfg := rws.DefaultConfig(8)
		cfg.Seed = 2
		e, root := tc.mk(&intPool, cfg)
		res := e.Run(root)
		if res.RootStackPeak > int64(tc.declared) {
			t.Errorf("%s: root stack peak %d exceeds declared bound %d",
				tc.name, res.RootStackPeak, tc.declared)
		}
	}
}

// TestStolenTaskSizesShrinkDownTheTree: Lemma 3.1's counting argument needs
// many small stolen tasks and few large ones; verify the size distribution
// is heavy at the bottom.
func TestStolenTaskSizesShrinkDownTheTree(t *testing.T) {
	cfg := rws.DefaultConfig(8)
	cfg.Seed = 4
	res, _ := matmul.Run(cfg, matmul.Config{Variant: matmul.LimitedAccessDepthN, Base: 4},
		matrix.Random(32, 1), matrix.Random(32, 2))
	if len(res.StolenKernelSizes) == 0 {
		t.Skip("no steals at this seed")
	}
	var small, large int
	for _, sz := range res.StolenKernelSizes {
		if sz <= 512 {
			small++
		} else {
			large++
		}
	}
	if small <= large {
		t.Errorf("stolen-task size distribution inverted: %d small vs %d large", small, large)
	}
}

func log2(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	return l
}

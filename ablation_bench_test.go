package rwsfs

// Ablation benchmarks for the simulator's main design choices. Each
// reports the metric the paper's analysis says should move:
//
//   - steal cost ratio s/b: h(t) carries a (b/s)·E term, so raising s
//     relative to b should *reduce* the number of steal-driven block misses
//     per unit work while raising per-steal cost;
//   - block arbitration: FIFO serialization vs free service isolates how
//     much of the makespan is contention delay rather than miss count;
//   - MM base-case size: deeper recursion means more stealable tasks and
//     more block misses (more shared join flags), at equal arithmetic;
//   - padded BP (Remark 4.1): stack padding vs block traffic;
//   - steal budget: throttling S trades parallelism against coherence
//     traffic along the Lemma 4.5 O(S·B) line.
import (
	"testing"

	"rwsfs/internal/alg/matmul"
	"rwsfs/internal/alg/prefix"
	"rwsfs/internal/harness"
	"rwsfs/internal/machine"
	"rwsfs/internal/rws"
)

// ablationPool reuses engines across ablation iterations like the
// experiment sweeps do.
var ablationPool harness.Runner

func runOnce(b *testing.B, mk harness.Maker, cfg rws.Config) rws.Result {
	b.Helper()
	e, root := mk(&ablationPool, cfg)
	res := e.Run(root)
	ablationPool.Recycle(e)
	return res
}

func BenchmarkAblationStealCostRatio(b *testing.B) {
	mk := harness.MMMaker(matmul.LimitedAccessDepthN, 32, 4)
	for _, ratio := range []int{1, 2, 4, 8} {
		ratio := ratio
		b.Run(map[int]string{1: "s=b", 2: "s=2b", 4: "s=4b", 8: "s=8b"}[ratio], func(b *testing.B) {
			var steals, bm int64
			for i := 0; i < b.N; i++ {
				cfg := rws.DefaultConfig(8)
				cfg.Seed = int64(i + 1)
				cfg.Machine.CostMiss = 10
				cfg.Machine.CostSteal = machine.Tick(10 * ratio)
				cfg.Machine.CostFailSteal = 10
				res := runOnce(b, mk, cfg)
				steals += res.Steals
				bm += res.Totals.BlockMisses
			}
			b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
			b.ReportMetric(float64(bm)/float64(b.N), "blockMiss/op")
		})
	}
}

func BenchmarkAblationArbitration(b *testing.B) {
	mk := harness.MMMaker(matmul.LimitedAccessDepthN, 32, 4)
	for _, arb := range []machine.Arbitration{machine.ArbitrationFIFO, machine.ArbitrationFree} {
		arb := arb
		name := "fifo"
		if arb == machine.ArbitrationFree {
			name = "free"
		}
		b.Run(name, func(b *testing.B) {
			var span, wait int64
			for i := 0; i < b.N; i++ {
				cfg := rws.DefaultConfig(8)
				cfg.Seed = int64(i + 1)
				cfg.Machine.Arbitration = arb
				res := runOnce(b, mk, cfg)
				span += int64(res.Makespan)
				wait += int64(res.Totals.BlockWait)
			}
			b.ReportMetric(float64(span)/float64(b.N), "makespan/op")
			b.ReportMetric(float64(wait)/float64(b.N), "blockWait/op")
		})
	}
}

func BenchmarkAblationMMBaseCase(b *testing.B) {
	for _, base := range []int{2, 4, 8, 16} {
		base := base
		b.Run(map[int]string{2: "base2", 4: "base4", 8: "base8", 16: "base16"}[base], func(b *testing.B) {
			mk := harness.MMMaker(matmul.LimitedAccessDepthN, 32, base)
			var steals, bm int64
			for i := 0; i < b.N; i++ {
				cfg := rws.DefaultConfig(8)
				cfg.Seed = int64(i + 1)
				res := runOnce(b, mk, cfg)
				steals += res.Steals
				bm += res.Totals.BlockMisses
			}
			b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
			b.ReportMetric(float64(bm)/float64(b.N), "blockMiss/op")
		})
	}
}

func BenchmarkAblationPaddedBP(b *testing.B) {
	for _, padded := range []bool{false, true} {
		padded := padded
		name := "plain"
		if padded {
			name = "padded"
		}
		b.Run(name, func(b *testing.B) {
			mk := harness.PrefixMaker(4096, prefix.Config{Chunk: 1, Padded: padded})
			var maxXfer int64
			for i := 0; i < b.N; i++ {
				cfg := rws.DefaultConfig(8)
				cfg.Seed = int64(i + 1)
				res := runOnce(b, mk, cfg)
				maxXfer += res.BlockTransfersMax
			}
			b.ReportMetric(float64(maxXfer)/float64(b.N), "maxBlockXfer/op")
		})
	}
}

func BenchmarkAblationStealBudget(b *testing.B) {
	mk := harness.MMMaker(matmul.LimitedAccessDepthN, 32, 4)
	for _, budget := range []int64{0, 16, 64, -1} {
		budget := budget
		name := map[int64]string{0: "budget0", 16: "budget16", 64: "budget64", -1: "unlimited"}[budget]
		b.Run(name, func(b *testing.B) {
			var span, bm int64
			for i := 0; i < b.N; i++ {
				cfg := rws.DefaultConfig(8)
				cfg.Seed = int64(i + 1)
				cfg.StealBudget = budget
				res := runOnce(b, mk, cfg)
				span += int64(res.Makespan)
				bm += int64(res.Totals.BlockMisses)
			}
			b.ReportMetric(float64(span)/float64(b.N), "makespan/op")
			b.ReportMetric(float64(bm)/float64(b.N), "blockMiss/op")
		})
	}
}

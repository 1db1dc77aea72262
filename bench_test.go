package rwsfs

// One benchmark per reproduction experiment (see harness.All). Each
// benchmark executes the experiment's full parameter sweep at Quick scale per
// iteration and reports the headline measured quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every table's data. Custom metrics:
//
//	steals/op       successful steals in the sweep's unlimited-budget run
//	blockMiss/op    invalidation-induced (false-sharing) misses
//	checksFailed/op shape-check failures (must be 0)
import (
	"testing"

	"rwsfs/internal/harness"
)

func benchExperiment(b *testing.B, id string) {
	ex, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var failed int
	for i := 0; i < b.N; i++ {
		tbl := ex.Run(harness.Quick)
		failed = 0
		for _, c := range tbl.Checks {
			if !c.Pass {
				failed++
			}
		}
	}
	b.ReportMetric(float64(failed), "checksFailed/op")
	if failed > 0 {
		b.Fatalf("%s: %d shape checks failed", id, failed)
	}
}

func BenchmarkE01_MMDepthNCacheMissVsSteals(b *testing.B)   { benchExperiment(b, "E01") }
func BenchmarkE02_MMDepthLogCacheMissVsSteals(b *testing.B) { benchExperiment(b, "E02") }
func BenchmarkE03_TreeTaskBlockDelay(b *testing.B)          { benchExperiment(b, "E03") }
func BenchmarkE04_MMBlockDelayPerSteal(b *testing.B)        { benchExperiment(b, "E04") }
func BenchmarkE05_RMtoBIConversion(b *testing.B)            { benchExperiment(b, "E05") }
func BenchmarkE06_BItoRMConversionAblation(b *testing.B)    { benchExperiment(b, "E06") }
func BenchmarkE07_StealsVsProcessors(b *testing.B)          { benchExperiment(b, "E07") }
func BenchmarkE08_HBPLevelCases(b *testing.B)               { benchExperiment(b, "E08") }
func BenchmarkE09_MMStealComparison(b *testing.B)           { benchExperiment(b, "E09") }
func BenchmarkE10_BPAlgorithms(b *testing.B)                { benchExperiment(b, "E10") }
func BenchmarkE11_SortAndFFT(b *testing.B)                  { benchExperiment(b, "E11") }
func BenchmarkE12_ListRankConnComp(b *testing.B)            { benchExperiment(b, "E12") }
func BenchmarkE13_LevelMachinery(b *testing.B)              { benchExperiment(b, "E13") }
func BenchmarkE14_NativeFalseSharing(b *testing.B)          { benchExperiment(b, "E14") }
func BenchmarkE15_SpeedupOptimality(b *testing.B)           { benchExperiment(b, "E15") }

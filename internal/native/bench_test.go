package native

import (
	"runtime"
	"testing"
)

// BenchmarkFalseSharingUnpadded and ...Padded are the host-machine
// realization of the paper's block-miss cost: same logical work, different
// line sharing.
func BenchmarkFalseSharingUnpadded(b *testing.B) {
	w := min(4, runtime.GOMAXPROCS(0))
	for i := 0; i < b.N; i++ {
		r := MeasureFalseSharing(w, 200_000)
		b.ReportMetric(r.Slowdown, "slowdown")
	}
}

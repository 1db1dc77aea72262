package native

import "testing"

func TestMeasureFalseSharingChecksums(t *testing.T) {
	// Small run: just verifies both variants compute correct counts and
	// produce positive timings. The performance assertion lives in the
	// benchmarks, not here (CI machines are noisy).
	r := MeasureFalseSharing(4, 50000)
	if r.Unpadded <= 0 || r.Padded <= 0 {
		t.Fatalf("non-positive timings: %+v", r)
	}
	t.Logf("false sharing slowdown at p=4: %.2fx", r.Slowdown)
}

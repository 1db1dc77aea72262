// Package native measures on the host machine, outside the simulator, a
// phenomenon the simulator counts exactly: false sharing of adjacent words
// is a real cost (experiment E14 and examples/falsesharing).
//
// The paper's counters (cache misses, block misses) are not observable from
// portable Go; wall-clock time is, and that is what this package reports.
package native

import (
	"sync"
	"time"
)

// CacheLineBytes is the assumed coherence granularity of the host (the
// paper's B, in bytes). 64 is correct for essentially all current x86 and
// most ARM server cores.
const CacheLineBytes = 64

// paddedCounter occupies a full cache line, so per-worker counters in a
// slice of paddedCounter never share a line.
type paddedCounter struct {
	n int64
	_ [CacheLineBytes - 8]byte
}

// FalseSharingResult reports one padded-vs-unpadded comparison.
type FalseSharingResult struct {
	Workers    int
	Iterations int
	Unpadded   time.Duration // adjacent int64 counters: false sharing
	Padded     time.Duration // line-padded counters: no sharing
	Slowdown   float64       // Unpadded / Padded
}

// MeasureFalseSharing has `workers` goroutines each increment a private
// counter `iterations` times, once with the counters packed into adjacent
// words of one array (classic false sharing: distinct variables, same cache
// line) and once with line-padded counters. It is the host-machine analogue
// of the simulator's block-miss counter: the paper's Section 2.1 scenario
// where "two different processors seek to access distinct locations in the
// same block".
//
// Counters are written with plain stores from a single owner goroutine each,
// so there is no logical race; the cost difference is pure coherence
// traffic. Each counter is read back into the checksum so the work cannot be
// optimized away.
func MeasureFalseSharing(workers, iterations int) FalseSharingResult {
	res := FalseSharingResult{Workers: workers, Iterations: iterations}

	run := func(inc func(w int), read func(w int) int64) time.Duration {
		var wg sync.WaitGroup
		wg.Add(workers)
		start := time.Now()
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iterations; i++ {
					inc(w)
				}
			}(w)
		}
		wg.Wait()
		el := time.Since(start)
		var sum int64
		for w := 0; w < workers; w++ {
			sum += read(w)
		}
		if sum != int64(workers)*int64(iterations) {
			panic("native: counter checksum mismatch")
		}
		return el
	}

	// Unpadded: counters in adjacent words. The extra slack words on both
	// sides keep slice headers / allocator metadata off the measured line.
	unpadded := make([]int64, workers+16)
	res.Unpadded = run(
		func(w int) { unpadded[8+w]++ },
		func(w int) int64 { return unpadded[8+w] },
	)

	padded := make([]paddedCounter, workers+2)
	res.Padded = run(
		func(w int) { padded[1+w].n++ },
		func(w int) int64 { return padded[1+w].n },
	)

	if res.Padded > 0 {
		res.Slowdown = float64(res.Unpadded) / float64(res.Padded)
	}
	return res
}

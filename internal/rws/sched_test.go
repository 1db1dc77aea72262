package rws

import (
	"math/rand"
	"testing"

	"rwsfs/internal/machine"
)

// TestClockHeapMatchesLinearScan drives the heap through random monotone
// clock advances and checks min() against the pre-refactor linear scan
// (first processor with the strictly smallest clock) at every step.
func TestClockHeapMatchesLinearScan(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 64, 100} {
		rng := rand.New(rand.NewSource(int64(p)))
		h := &clockHeap{}
		h.reset(p)
		for i := 0; i < 10_000; i++ {
			best := 0
			for q := 1; q < p; q++ {
				if h.clock[q] < h.clock[best] {
					best = q
				}
			}
			if got := h.min(); got != best {
				t.Fatalf("p=%d step %d: min() = %d, linear scan %d (clocks %v)", p, i, got, best, h.clock)
			}
			// Advance the chosen processor as the engine does; sometimes by
			// zero to exercise ties.
			h.clock[best] += machine.Tick(rng.Intn(20))
			h.fix(best)
		}
	}
}

// TestDequeMatchesSliceReference drives the ring deque and a plain-slice
// reference (the pre-refactor representation) through the same random
// push/pop/steal stream.
func TestDequeMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var d deque
	var ref []*spawn
	spawns := make([]*spawn, 64)
	for i := range spawns {
		spawns[i] = &spawn{}
	}
	for i := 0; i < 20_000; i++ {
		switch rng.Intn(7) {
		case 0, 1, 2:
			sp := spawns[rng.Intn(len(spawns))]
			d.pushBottom(sp)
			ref = append(ref, sp)
		case 3:
			got := d.popBottom()
			var want *spawn
			if n := len(ref); n > 0 {
				want = ref[n-1]
				ref = ref[:n-1]
			}
			if got != want {
				t.Fatalf("step %d: popBottom = %p, reference %p", i, got, want)
			}
		case 4:
			got := d.popTop()
			var want *spawn
			if len(ref) > 0 {
				want = ref[0]
				ref = ref[1:]
			}
			if got != want {
				t.Fatalf("step %d: popTop = %p, reference %p", i, got, want)
			}
		case 5:
			// popBottomIf with the true bottom half the time, a random
			// (usually wrong) spawn otherwise.
			sp := spawns[rng.Intn(len(spawns))]
			if len(ref) > 0 && rng.Intn(2) == 0 {
				sp = ref[len(ref)-1]
			}
			want := len(ref) > 0 && ref[len(ref)-1] == sp
			if got := d.popBottomIf(sp); got != want {
				t.Fatalf("step %d: popBottomIf = %v, reference %v", i, got, want)
			}
			if want {
				ref = ref[:len(ref)-1]
			}
		case 6:
			if d.size() != len(ref) {
				t.Fatalf("step %d: size = %d, reference %d", i, d.size(), len(ref))
			}
		}
	}
}

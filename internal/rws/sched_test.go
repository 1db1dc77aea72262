package rws

import (
	"math/rand"
	"slices"
	"testing"

	"rwsfs/internal/machine"
)

// driveClockHeap resets h to p processors, runs the op stream ops on it and
// on a reference, plain clocks scanned linearly for the smallest (clock,
// proc) key among the processors not removed, and fails t at the first
// difference in min, rootStillMin's answer or removed. Each op byte b:
//
//   - b%4 == 0: advance the minimum by b/4%8 ticks and call rootStillMin,
//     as the run-ahead fast path does after a charge;
//   - b%4 == 1: advance the minimum by b/4%8 ticks and fix it, as an idle
//     step does;
//   - b%4 == 2: remove live processor b/4 (mod the live count), as a
//     parking processor leaves; the last live processor stays;
//   - b%4 == 3: give live processor b/4 (mod the live count) the minimum's
//     clock plus b/64 minus 1, at least 0, and fix it: a key change of
//     any sign on any processor.
//
// Zero advances and equal clocks make ties, which the processor ID breaks.
func driveClockHeap(t *testing.T, h *clockHeap, p int, ops []byte) {
	t.Helper()
	h.reset(p)
	gone := make([]bool, p)
	var removed []int32
	var live []int
	refMin := func() int {
		best := -1
		for q := 0; q < p; q++ {
			if !gone[q] && (best < 0 || h.clock[q] < h.clock[best]) {
				best = q
			}
		}
		return best
	}
	for i, b := range ops {
		w := h.min()
		if want := refMin(); w != want {
			t.Fatalf("p=%d op %d: min() = %d, linear scan %d (clocks %v, removed %v)", p, i, w, want, h.clock, removed)
		}
		arg := int(b / 4)
		switch b % 4 {
		case 0:
			h.clock[w] += machine.Tick(arg % 8)
			if got, want := h.rootStillMin(), refMin() == w; got != want {
				t.Fatalf("p=%d op %d: rootStillMin() = %v, linear scan says %v (clocks %v)", p, i, got, want, h.clock)
			}
		case 1:
			h.clock[w] += machine.Tick(arg % 8)
			h.fix(w)
		case 2, 3:
			live = live[:0]
			for q := 0; q < p; q++ {
				if !gone[q] {
					live = append(live, q)
				}
			}
			q := live[arg%len(live)]
			if b%4 == 3 {
				h.clock[q] = max(h.clock[w]+machine.Tick(b/64)-1, 0)
				h.fix(q)
			} else if len(live) > 1 {
				h.remove(q)
				gone[q] = true
				removed = append(removed, int32(q))
			}
		}
		if got := h.removed(); !slices.Equal(got, removed) {
			t.Fatalf("p=%d op %d: removed() = %v, want %v", p, i, got, removed)
		}
	}
	if got, want := h.min(), refMin(); got != want {
		t.Fatalf("p=%d end: min() = %d, linear scan %d (clocks %v)", p, got, want, h.clock)
	}
}

// TestClockHeapMatchesLinearScan checks the winner tree against a linear
// (clock, proc) scan under random streams of the operations the engine
// performs, at processor counts from 1 past the top of rwsimd's default
// range (128), including ones that are not powers of two. One tree serves
// every count, growing and then shrinking, as an engine's does across
// Resets.
func TestClockHeapMatchesLinearScan(t *testing.T) {
	ps := []int{1, 2, 3, 5, 8, 16, 64, 100, 130}
	h := &clockHeap{}
	for i := range 2 * len(ps) {
		p := ps[i%len(ps)]
		if i >= len(ps) {
			p = ps[2*len(ps)-1-i]
		}
		rng := rand.New(rand.NewSource(int64(p)))
		ops := make([]byte, 20_000)
		for i := range ops {
			// Mostly advances of the minimum, as in a run; one op in 64 a
			// removal, so processors stay live for most of the stream.
			switch r := rng.Intn(64); {
			case r == 0:
				ops[i] = byte(rng.Intn(64))*4 + 2
			case r < 8:
				ops[i] = byte(rng.Intn(64))*4 + 3
			default:
				ops[i] = byte(rng.Intn(128))&^3 | byte(rng.Intn(2))
			}
		}
		driveClockHeap(t, h, p, ops)
	}
}

// FuzzClockHeap is TestClockHeapMatchesLinearScan over fuzzed op streams:
// the first byte picks p in [1, 130] and the rest are driveClockHeap's
// ops, run on a tree last used at 130 processors.
func FuzzClockHeap(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0, 4, 1, 2, 3})
	f.Add([]byte{129, 4, 8, 12, 2, 6, 10, 3, 67, 131, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := &clockHeap{}
		driveClockHeap(t, h, 130, data[1:])
		driveClockHeap(t, h, 1+int(data[0])%130, data[1:])
	})
}

// TestClockKeyRange checks the key's range boundary without running an
// engine: the largest clock and processor ID still order correctly below
// the empty key, a clock past maxClock panics when its key is built, a tree
// of maxProcs processors works, and an engine refuses one processor more.
func TestClockKeyRange(t *testing.T) {
	top := key(maxClock, maxProcs-1)
	if top >= emptyKey || key(maxClock, 0) >= top || key(maxClock-1, maxProcs-1) >= key(maxClock, 0) {
		t.Fatalf("keys at the top of the range misorder: %#x %#x %#x", key(maxClock-1, maxProcs-1), key(maxClock, 0), top)
	}
	if got := int(top & procMask); got != maxProcs-1 {
		t.Fatalf("processor field of the top key = %d, want %d", got, maxProcs-1)
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("key(maxClock+1, 0)", func() { key(maxClock+1, 0) })
	mustPanic("key(-1, 0)", func() { key(-1, 0) })

	h := &clockHeap{}
	h.reset(maxProcs)
	for _, q := range []int{0, maxProcs / 2, maxProcs - 1} {
		h.clock[q] = maxClock
		h.fix(q)
	}
	if got := h.min(); got != 1 {
		t.Fatalf("min() = %d with processors 0, %d and %d at maxClock, want 1", got, maxProcs/2, maxProcs-1)
	}
	for q := 1; q < maxProcs-1; q++ {
		if q != maxProcs/2 {
			h.remove(q)
		}
	}
	if got := h.min(); got != 0 {
		t.Fatalf("min() = %d with the rest removed, want 0 (ties break by ID)", got)
	}
	h.clock[0]++
	mustPanic("fix of a clock past maxClock", func() { h.fix(0) })

	cfg := DefaultConfig(maxProcs + 1)
	if _, err := NewEngine(cfg); err == nil {
		t.Errorf("NewEngine accepted P=%d", maxProcs+1)
	}
	e := MustNewEngine(DefaultConfig(2))
	defer e.Close()
	if err := e.Reset(cfg); err == nil {
		t.Errorf("Reset accepted P=%d", maxProcs+1)
	}
	if err := e.Reset(DefaultConfig(2)); err != nil {
		t.Fatalf("Reset after a refused config: %v", err)
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

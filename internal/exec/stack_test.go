package exec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rwsfs/internal/mem"
)

func TestAllocFirstFitLowestAddress(t *testing.T) {
	s := NewStack(0, 100)
	a := s.Alloc(10)
	b := s.Alloc(10)
	if a.Base != 0 || b.Base != 10 {
		t.Fatalf("sequential allocs at %d, %d", a.Base, b.Base)
	}
	s.Free(a)
	c := s.Alloc(5)
	if c.Base != 0 {
		t.Errorf("first fit should reuse the lowest hole, got %d", c.Base)
	}
	d := s.Alloc(5)
	if d.Base != 5 {
		t.Errorf("remaining hole should be used next, got %d", d.Base)
	}
}

func TestFreeCoalesces(t *testing.T) {
	s := NewStack(0, 64)
	a := s.Alloc(16)
	b := s.Alloc(16)
	c := s.Alloc(16)
	s.Free(a)
	s.Free(c)
	if len(s.FreeSpans()) != 3 { // [0,16) [32,48) [48,64)... c coalesces with tail
		// After freeing c it coalesces with the tail span: expect 2 spans.
	}
	s.Free(b) // b bridges a's hole and c's hole: one span remains
	spans := s.FreeSpans()
	if len(spans) != 1 || spans[0].Base != 0 || spans[0].Words != 64 {
		t.Fatalf("coalescing failed: %+v", spans)
	}
	if s.InUse() != 0 {
		t.Errorf("InUse = %d after freeing everything", s.InUse())
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	s := NewStack(0, 100)
	a := s.Alloc(40)
	b := s.Alloc(30)
	s.Free(b)
	s.Free(a)
	if s.Peak() != 70 {
		t.Errorf("peak %d, want 70", s.Peak())
	}
	if s.Allocations() != 2 {
		t.Errorf("allocations %d, want 2", s.Allocations())
	}
}

func TestOverflowPanics(t *testing.T) {
	s := NewStack(0, 10)
	s.Alloc(8)
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	s.Alloc(4)
}

func TestDoubleFreePanics(t *testing.T) {
	s := NewStack(0, 32)
	a := s.Alloc(8)
	s.Free(a)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	s.Free(a)
}

func TestFreeOutsideRegionPanics(t *testing.T) {
	s := NewStack(64, 32)
	defer func() {
		if recover() == nil {
			t.Error("foreign free did not panic")
		}
	}()
	s.Free(Seg{Base: 0, Words: 8})
}

func TestLiveSegmentsDisjointProperty(t *testing.T) {
	// Random alloc/free sequences: live segments never overlap, and
	// InUse always equals the sum of live segment sizes.
	f := func(ops []uint8) bool {
		s := NewStack(0, 4096)
		var live []Seg
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 { // free a pseudo-random segment
				i := int(op) % len(live)
				s.Free(live[i])
				live = append(live[:i], live[i+1:]...)
				continue
			}
			n := int(op)%64 + 1
			if s.InUse()+n > 4096 {
				continue
			}
			live = append(live, s.Alloc(n))
		}
		sum := 0
		for i := range live {
			sum += live[i].Words
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.Base < b.Base+mem.Addr(b.Words) && b.Base < a.Base+mem.Addr(a.Words) {
					return false
				}
			}
		}
		return sum == s.InUse()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFreeSpansMatchWordMap checks the free list against a word-by-word
// map after every Alloc and Free of random sequences that mix
// last-in-first-out frees with frees out of order: it must list exactly the
// maximal runs of free words, lowest first, and Alloc must take the lowest
// run that fits.
func TestFreeSpansMatchWordMap(t *testing.T) {
	const words = 256
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		s := NewStack(64, words)
		used := make([]bool, words)
		var live []Seg
		for step := 0; step < 100; step++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := len(live) - 1 // last in, first out
				if rng.Intn(3) == 0 {
					i = rng.Intn(len(live))
				}
				s.Free(live[i])
				for w := live[i].Base; w < live[i].Base+mem.Addr(live[i].Words); w++ {
					used[w-64] = false
				}
				live = append(live[:i], live[i+1:]...)
			} else if n := rng.Intn(12) + 1; firstFit(used, n) >= 0 {
				seg := s.Alloc(n)
				if want := mem.Addr(64 + firstFit(used, n)); seg.Base != want {
					t.Fatalf("round %d step %d: Alloc(%d) at %d, first fit %d", round, step, n, seg.Base, want)
				}
				for w := seg.Base; w < seg.Base+mem.Addr(seg.Words); w++ {
					used[w-64] = true
				}
				live = append(live, seg)
			}
			var want []Seg
			for w := 0; w < words; w++ {
				if used[w] {
					continue
				}
				if k := len(want); k > 0 && want[k-1].Base+mem.Addr(want[k-1].Words) == mem.Addr(64+w) {
					want[k-1].Words++
				} else {
					want = append(want, Seg{Base: mem.Addr(64 + w), Words: 1})
				}
			}
			if got := s.FreeSpans(); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("round %d step %d: free spans %v, word map %v", round, step, got, want)
			}
		}
	}
}

// firstFit returns the lowest index that starts n free words of used, or
// -1 when no run is that long.
func firstFit(used []bool, n int) int {
	run := 0
	for w, u := range used {
		if run = run + 1; u {
			run = 0
		}
		if run == n {
			return w - n + 1
		}
	}
	return -1
}

func TestResetRestoresFullSpan(t *testing.T) {
	s := NewStack(128, 64)
	s.Alloc(10)
	s.Alloc(20)
	s.Reset()
	spans := s.FreeSpans()
	if len(spans) != 1 || spans[0].Base != 128 || spans[0].Words != 64 {
		t.Fatalf("Reset left %+v", spans)
	}
}

func TestPoolRecyclesBySizeClass(t *testing.T) {
	m := mem.New(16)
	al := mem.NewAllocator(m)
	p := NewPool(al)
	a := p.Get(300) // class 512
	if a.Words() != 512 {
		t.Errorf("size class = %d, want 512", a.Words())
	}
	p.Put(a)
	b := p.Get(400) // same class: recycled
	if b != a {
		t.Error("pool did not recycle same-class stack")
	}
	created, reused := p.Stats()
	if created != 1 || reused != 1 {
		t.Errorf("stats (%d,%d), want (1,1)", created, reused)
	}
	// A different class allocates fresh, block-aligned.
	c := p.Get(2000)
	if c.Base()%16 != 0 {
		t.Error("pool stack not block aligned")
	}
}

func TestPoolMinimumClass(t *testing.T) {
	m := mem.New(16)
	p := NewPool(mem.NewAllocator(m))
	s := p.Get(1)
	if s.Words() != 256 {
		t.Errorf("minimum class = %d, want 256", s.Words())
	}
}

func TestPoolReset(t *testing.T) {
	m := mem.New(16)
	al := mem.NewAllocator(m)
	p := NewPool(al)
	a := p.Get(400)
	a.Alloc(100)
	b := p.Get(2000)
	_ = b
	p.Put(a)

	p.Reset()
	al.Reset()
	if created, reused := p.Stats(); created != 0 || reused != 0 {
		t.Errorf("stats (%d,%d) after Reset, want (0,0)", created, reused)
	}
	// The next Get must behave exactly like a fresh pool: allocate a region
	// from the (reset) allocator rather than recycle a stale-address stack —
	// while reusing a recycled Stack struct.
	s := p.Get(400)
	if s.Base() != 0 {
		t.Errorf("first stack after Reset at base %d, want 0", s.Base())
	}
	if s != a && s != b {
		t.Error("Reset pool did not recycle a Stack struct")
	}
	if s.InUse() != 0 || s.Peak() != 0 || s.Allocations() != 0 {
		t.Errorf("recycled struct kept stats: inUse=%d peak=%d allocs=%d", s.InUse(), s.Peak(), s.Allocations())
	}
	if created, reused := p.Stats(); created != 1 || reused != 0 {
		t.Errorf("stats (%d,%d) after first post-Reset Get, want (1,0)", created, reused)
	}
}

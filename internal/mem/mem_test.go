package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidatesBlockSize(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
	if New(16).BlockWords() != 16 {
		t.Error("BlockWords mismatch")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(16)
	m.StoreInt(5, -42)
	if m.LoadInt(5) != -42 {
		t.Error("int round trip")
	}
	m.StoreFloat(6, 3.25)
	if m.LoadFloat(6) != 3.25 {
		t.Error("float round trip")
	}
	m.StoreBits(7, 0xdeadbeef)
	if m.LoadBits(7) != 0xdeadbeef {
		t.Error("bits round trip")
	}
	// Unwritten memory reads as zero.
	if m.LoadInt(1<<30) != 0 {
		t.Error("fresh memory not zero")
	}
}

func TestFloatBitPatternPreserved(t *testing.T) {
	m := New(8)
	f := func(bits uint64) bool {
		m.StoreFloat(0, math.Float64frombits(bits))
		return m.LoadBits(0) == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	m := New(8)
	f := func(a uint32, v int64) bool {
		addr := Addr(a)
		m.StoreInt(addr, v)
		return m.LoadInt(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// blockSizes are the block sizes the arithmetic tests cover: every power
// of two from 1 to 64 words.
var blockSizes = []int{1, 2, 4, 8, 16, 32, 64}

// TestBlockArithmetic checks Block, BlockStart and BlocksSpanned against
// integer division by B, the definition BlockID = Addr / B, for every block
// size, at fixed boundaries and at addresses past 2^32; a negative address
// panics.
func TestBlockArithmetic(t *testing.T) {
	m := New(16)
	if m.Block(0) != 0 || m.Block(15) != 0 || m.Block(16) != 1 {
		t.Error("Block boundaries wrong")
	}
	if m.BlockStart(3) != 48 {
		t.Error("BlockStart wrong")
	}
	if m.BlocksSpanned(0, 16) != 1 || m.BlocksSpanned(15, 2) != 2 || m.BlocksSpanned(0, 0) != 0 {
		t.Error("BlocksSpanned wrong")
	}
	if m.BlocksSpanned(8, 16) != 2 {
		t.Error("BlocksSpanned straddle wrong")
	}
	for _, b := range blockSizes {
		m := New(b)
		B := int64(b)
		for _, base := range []int64{0, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 40, 1<<62 - 1} {
			for d := int64(-2 * B); d <= 2*B; d++ {
				a := base + d
				if a < 0 {
					continue
				}
				if got, want := m.Block(Addr(a)), BlockID(a/B); got != want {
					t.Fatalf("B=%d: Block(%d) = %d, want %d", b, a, got, want)
				}
				if got, want := m.BlockStart(BlockID(a/B)), Addr(a/B*B); got != want {
					t.Fatalf("B=%d: BlockStart(%d) = %d, want %d", b, a/B, got, want)
				}
				for _, n := range []int{-1, 0, 1, 2, b - 1, b, b + 1, 3 * b} {
					want := 0
					if n > 0 {
						want = int((a+int64(n)-1)/B - a/B + 1)
					}
					if got := m.BlocksSpanned(Addr(a), n); got != want {
						t.Fatalf("B=%d: BlocksSpanned(%d, %d) = %d, want %d", b, a, n, got, want)
					}
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("B=%d: Block(-1) did not panic", b)
				}
			}()
			m.Block(-1)
		}()
	}
}

// TestBlockSpanProperty checks BlocksSpanned against the distinct blocks a
// range touches word by word, and Block against division, for every block
// size at random addresses below 2^40.
func TestBlockSpanProperty(t *testing.T) {
	for _, b := range blockSizes {
		m := New(b)
		f := func(a uint64, n uint8) bool {
			a %= 1 << 40
			if n == 0 {
				return m.BlocksSpanned(Addr(a), 0) == 0
			}
			spanned := m.BlocksSpanned(Addr(a), int(n))
			// Must equal the count of distinct blocks touched word by word.
			seen := map[BlockID]bool{}
			for i := 0; i < int(n); i++ {
				bid := m.Block(Addr(a) + Addr(i))
				if bid != BlockID((a+uint64(i))/uint64(b)) {
					return false
				}
				seen[bid] = true
			}
			return spanned == len(seen)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("B=%d: %v", b, err)
		}
	}
}

func TestNegativeAddressPanics(t *testing.T) {
	m := New(16)
	defer func() {
		if recover() == nil {
			t.Error("negative address did not panic")
		}
	}()
	m.LoadInt(-1)
}

func TestLazyPaging(t *testing.T) {
	m := New(16)
	if m.TouchedPages() != 0 {
		t.Error("fresh memory has pages")
	}
	m.StoreInt(0, 1)
	m.StoreInt(1<<20, 2)
	if got := m.TouchedPages(); got != 2 {
		t.Errorf("TouchedPages = %d, want 2 (sparse addresses)", got)
	}
	// Values survive page switching.
	if m.LoadInt(0) != 1 || m.LoadInt(1<<20) != 2 {
		t.Error("values lost across pages")
	}
}

func TestAllocatorBlockAlignment(t *testing.T) {
	m := New(16)
	al := NewAllocator(m)
	a := al.Alloc(1)
	b := al.Alloc(17)
	c := al.Alloc(16)
	for _, addr := range []Addr{a, b, c} {
		if addr%16 != 0 {
			t.Errorf("allocation at %d not block aligned", addr)
		}
	}
	// Property 4.3: no two allocations share a block.
	if m.Block(a) == m.Block(b) || m.Block(b+16) == m.Block(c) {
		t.Error("allocations share a block")
	}
}

func TestAllocatorDisjointnessProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(8)
		al := NewAllocator(m)
		type region struct {
			base Addr
			n    int
		}
		var regions []region
		for _, s := range sizes {
			n := int(s)%100 + 1
			regions = append(regions, region{al.Alloc(n), n})
		}
		// All pairs block-disjoint.
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				iEnd := m.Block(regions[i].base + Addr(regions[i].n-1))
				jStart := m.Block(regions[j].base)
				if jStart <= iEnd && m.Block(regions[j].base+Addr(regions[j].n-1)) >= m.Block(regions[i].base) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorMarkRelease(t *testing.T) {
	m := New(16)
	al := NewAllocator(m)
	al.Alloc(64)
	mark := al.Mark()
	al.Alloc(128)
	al.Release(mark)
	if al.Mark() != mark {
		t.Error("Release did not restore mark")
	}
	if al.Reserved() != int64(mark) {
		t.Error("Reserved inconsistent with mark")
	}
	defer func() {
		if recover() == nil {
			t.Error("Release beyond high-water did not panic")
		}
	}()
	al.Release(mark + 1024)
}

func TestMemoryReset(t *testing.T) {
	m := New(16)
	m.StoreInt(5, 42)
	m.StoreInt(3000, 7) // second page
	if m.TouchedPages() != 2 {
		t.Fatalf("TouchedPages = %d, want 2", m.TouchedPages())
	}
	m.Reset(8)
	if m.BlockWords() != 8 {
		t.Errorf("Reset did not adopt the new block size")
	}
	if m.TouchedPages() != 0 || m.FreePages() != 2 {
		t.Errorf("after Reset: touched %d free %d, want 0 and 2", m.TouchedPages(), m.FreePages())
	}
	// Recycled pages must read as zero, exactly like fresh ones.
	if m.LoadInt(5) != 0 || m.LoadInt(3000) != 0 {
		t.Error("recycled page leaked values from before Reset")
	}
	// The two touches above re-materialized both pages from the free list
	// with no new page allocations.
	if m.TouchedPages() != 2 || m.FreePages() != 0 {
		t.Errorf("reuse: touched %d free %d, want 2 and 0", m.TouchedPages(), m.FreePages())
	}
	m.StoreInt(5, 9)
	if m.LoadInt(5) != 9 {
		t.Error("store after Reset lost")
	}
}

func TestAllocatorReset(t *testing.T) {
	m := New(16)
	al := NewAllocator(m)
	first := al.Alloc(64)
	al.Alloc(128)
	al.Reset()
	if al.Reserved() != 0 {
		t.Errorf("Reserved = %d after Reset, want 0", al.Reserved())
	}
	if again := al.Alloc(64); again != first {
		t.Errorf("first allocation after Reset at %d, want %d", again, first)
	}
}

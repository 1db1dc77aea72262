// Package mem provides the simulated word-addressed shared memory of the
// machine model in Section 2 of Cole & Ramachandran, "Analysis of Randomized
// Work Stealing with False Sharing".
//
// Memory is a flat array of 64-bit words grouped into blocks (cache lines) of
// B words. Addresses are word indices. The package deliberately knows nothing
// about caches or costs; it only stores values and does block arithmetic.
// Pages are allocated lazily so that a large simulated address space (stacks
// for many stolen tasks) does not consume host memory until touched.
package mem

import (
	"fmt"
	"math"
	"math/bits"
)

// Addr is a simulated memory address, in words.
type Addr int64

// BlockID identifies a cache block (line): BlockID = Addr / B.
type BlockID int64

// pageShift sets the lazy-allocation page size: 2^pageShift words per page
// (2048 words = 16 KiB). Kept modest: most runs touch narrow value ranges
// (inputs, outputs) inside a much larger reserved address space, and page
// zeroing is pure overhead for the untouched remainder.
const pageShift = 11

const pageWords = 1 << pageShift

// dirShift sets the page-table fan-out: each directory node maps 2^dirShift
// consecutive pages (8 KiB of pointers). Two levels replace the old
// map[int64][]uint64: Allocator hands out addresses densely from zero, so a
// radix walk is two loads with no hashing — the page map was one of the few
// remaining hash lookups on the simulator's value hot path.
const dirShift = 10

const dirLen = 1 << dirShift

// Memory is a lazily-paged simulated shared memory.
//
// The zero value is not usable; call New.
type Memory struct {
	blockWords int
	// blockShift is log2(blockWords): a block ID is an address shifted
	// right by it. Shifts mask it with 63, which changes nothing and lets
	// the compiler drop its check for shifts past 63.
	blockShift uint
	// dir is the two-level page table: dir[page>>dirShift][page&(dirLen-1)]
	// is the page's word slice, nil until touched.
	dir     [][][]uint64
	touched int
	// freePages holds page slices recycled by Reset; they are re-zeroed when
	// handed out again, so reuse is indistinguishable from a fresh page while
	// the garbage collector never sees the buffers die.
	freePages [][]uint64
	// One-entry lookaside for the most recently touched page; raw value
	// accesses during base-case kernels are strongly local.
	lastPage  int64
	lastSlice []uint64
}

// New returns an empty memory whose blocks hold blockWords words each.
// blockWords must be a power of two.
func New(blockWords int) *Memory {
	m := &Memory{}
	m.Reset(blockWords)
	return m
}

// Reset empties the memory for another run: every materialized page moves to
// the free list (to be re-zeroed on its next use) and the block size is
// re-set. Directory nodes are kept, so a reused memory re-materializes its
// working set without allocating. Reset must also work on a zero Memory:
// New is Reset on one.
func (m *Memory) Reset(blockWords int) {
	if blockWords <= 0 || blockWords&(blockWords-1) != 0 {
		panic(fmt.Sprintf("mem: block size %d is not a positive power of two", blockWords))
	}
	m.blockWords = blockWords
	m.blockShift = uint(bits.TrailingZeros(uint(blockWords)))
	for _, node := range m.dir {
		if node == nil {
			continue
		}
		for i, s := range node {
			if s != nil {
				m.freePages = append(m.freePages, s)
				node[i] = nil
			}
		}
	}
	m.touched = 0
	m.lastPage, m.lastSlice = -1, nil
}

// BlockWords reports the number of words per block (the paper's B).
func (m *Memory) BlockWords() int { return m.blockWords }

// Block returns the block containing address a.
func (m *Memory) Block(a Addr) BlockID {
	if a < 0 {
		panic(fmt.Sprintf("mem: negative address %d", a))
	}
	return BlockID(a >> (m.blockShift & 63))
}

// BlockStart returns the first address of block b.
func (m *Memory) BlockStart(b BlockID) Addr { return Addr(b << (m.blockShift & 63)) }

// BlocksSpanned returns how many distinct blocks the range [a, a+n) touches.
func (m *Memory) BlocksSpanned(a Addr, n int) int {
	if n <= 0 {
		return 0
	}
	return int(m.Block(a+Addr(n-1)) - m.Block(a) + 1)
}

func (m *Memory) word(a Addr) *uint64 {
	if a < 0 {
		panic(fmt.Sprintf("mem: negative address %d", a))
	}
	page := int64(a) >> pageShift
	if page != m.lastPage {
		m.lastPage, m.lastSlice = page, m.pageFor(page)
	}
	return &m.lastSlice[int(a)&(pageWords-1)]
}

// pageFor resolves a page number, materializing directory nodes and the page
// itself as needed. Recycled pages are zeroed here, so a page handed out
// after Reset reads exactly like a fresh one.
func (m *Memory) pageFor(page int64) []uint64 {
	d := uint64(page) >> dirShift
	if d >= uint64(len(m.dir)) {
		grown := make([][][]uint64, d+1)
		copy(grown, m.dir)
		m.dir = grown
	}
	node := m.dir[d]
	if node == nil {
		node = make([][]uint64, dirLen)
		m.dir[d] = node
	}
	s := node[page&(dirLen-1)]
	if s == nil {
		if n := len(m.freePages); n > 0 {
			s = m.freePages[n-1]
			m.freePages[n-1] = nil
			m.freePages = m.freePages[:n-1]
			clear(s)
		} else {
			s = make([]uint64, pageWords)
		}
		node[page&(dirLen-1)] = s
		m.touched++
	}
	return s
}

// LoadBits returns the raw 64-bit pattern at a.
func (m *Memory) LoadBits(a Addr) uint64 { return *m.word(a) }

// StoreBits writes a raw 64-bit pattern at a.
func (m *Memory) StoreBits(a Addr, v uint64) { *m.word(a) = v }

// LoadInt returns the word at a interpreted as a signed integer.
func (m *Memory) LoadInt(a Addr) int64 { return int64(*m.word(a)) }

// StoreInt writes a signed integer at a.
func (m *Memory) StoreInt(a Addr, v int64) { *m.word(a) = uint64(v) }

// LoadFloat returns the word at a interpreted as a float64.
func (m *Memory) LoadFloat(a Addr) float64 { return math.Float64frombits(*m.word(a)) }

// StoreFloat writes a float64 at a.
func (m *Memory) StoreFloat(a Addr, v float64) { *m.word(a) = math.Float64bits(v) }

// TouchedPages reports how many pages have been materialized since New or
// the last Reset; useful for asserting that lazy paging keeps host memory
// proportional to data touched.
func (m *Memory) TouchedPages() int { return m.touched }

// FreePages reports how many recycled page slices are waiting on the free
// list; for tests of the Reset lifecycle.
func (m *Memory) FreePages() int { return len(m.freePages) }

// Allocator hands out disjoint, block-aligned regions of simulated memory.
//
// It implements Property 4.3 of the paper (the Space Allocation Property):
// whenever a processor requests space it is allocated in block-sized units,
// allocations to different requests are disjoint, and no block is shared
// between two allocations.
//
// The allocator is a bump allocator, which makes BlockIDs *dense*: every
// block a simulation can touch lies in [0, Reserved()/B], with no holes
// beyond rounding slack. The cache and machine layers depend on this — their
// block-indexed state (LRU index, coherence directory) lives in lazily-paged
// dense arrays indexed directly by BlockID instead of hash maps, which is
// what keeps the simulator's hot path allocation-free. Code that mints
// BlockIDs some other way (there is none today) would break that assumption.
type Allocator struct {
	m    *Memory
	next Addr
}

// NewAllocator returns an allocator for m starting at address 0.
func NewAllocator(m *Memory) *Allocator {
	return &Allocator{m: m}
}

// Alloc reserves words of simulated memory rounded up to whole blocks and
// returns the (block-aligned) base address.
func (al *Allocator) Alloc(words int) Addr {
	if words <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%d)", words))
	}
	b := int64(al.m.blockWords)
	base := al.next
	n := (int64(words) + b - 1) / b * b
	al.next += Addr(n)
	return base
}

// Mark returns the current high-water address, and Release rolls the
// allocator back to a previous mark. Release is used by the stack pool to
// recycle entire stack regions; rolling back is only valid when every
// allocation made after the mark is dead.
func (al *Allocator) Mark() Addr { return al.next }

// Release rolls the allocation point back to mark.
func (al *Allocator) Release(mark Addr) {
	if mark > al.next {
		panic("mem: Release beyond high-water mark")
	}
	al.next = mark
}

// Reserved reports the total words of address space handed out.
func (al *Allocator) Reserved() int64 { return int64(al.next) }

// Reset rolls the allocator back to address 0 for a fresh run. Only valid
// when every previous allocation is dead — the engine Reset lifecycle
// guarantees that, since the memory underneath is reset with it.
func (al *Allocator) Reset() { al.next = 0 }

package cache

import (
	"container/list"
	"math/rand"
	"testing"

	"rwsfs/internal/mem"
)

// refLRU is the pre-refactor reference implementation (container/list + map),
// kept verbatim as the behavioral oracle for the intrusive array-backed LRU.
type refLRU struct {
	capacity int
	ll       *list.List
	index    map[mem.BlockID]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[mem.BlockID]*list.Element, capacity),
	}
}

func (c *refLRU) Len() int { return c.ll.Len() }

func (c *refLRU) Contains(b mem.BlockID) bool {
	_, ok := c.index[b]
	return ok
}

func (c *refLRU) Touch(b mem.BlockID) bool {
	e, ok := c.index[b]
	if !ok {
		return false
	}
	c.ll.MoveToFront(e)
	return true
}

func (c *refLRU) Insert(b mem.BlockID) (victim mem.BlockID, evicted bool) {
	if e, ok := c.index[b]; ok {
		c.ll.MoveToFront(e)
		return 0, false
	}
	if c.ll.Len() >= c.capacity {
		back := c.ll.Back()
		victim = back.Value.(mem.BlockID)
		c.ll.Remove(back)
		delete(c.index, victim)
		evicted = true
	}
	c.index[b] = c.ll.PushFront(b)
	return victim, evicted
}

func (c *refLRU) Remove(b mem.BlockID) bool {
	e, ok := c.index[b]
	if !ok {
		return false
	}
	c.ll.Remove(e)
	delete(c.index, b)
	return true
}

func (c *refLRU) Flush() {
	c.ll.Init()
	for k := range c.index {
		delete(c.index, k)
	}
}

func (c *refLRU) Resident() []mem.BlockID {
	out := make([]mem.BlockID, 0, c.ll.Len())
	for e := c.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(mem.BlockID))
	}
	return out
}

func sameResident(t *testing.T, step int, got, want []mem.BlockID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: resident length %d, reference %d\n got %v\nwant %v",
			step, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: resident[%d] = %d, reference %d\n got %v\nwant %v",
				step, i, got[i], want[i], got, want)
		}
	}
}

// TestLRUDifferential drives the intrusive LRU and the container/list
// reference through the same long randomized operation stream and requires
// identical observable behavior at every step: return values, membership,
// length, the MRU block, and full MRU→LRU order. The intrusive LRU keeps no
// block index, so the test keeps one (index, as the machine's directory
// does) and passes nodes to Touch and Remove; an Insert of a resident block
// is a touch of its node, and the reference's occasional Flush is a Reset.
func TestLRUDifferential(t *testing.T) {
	const ops = 20_000
	for _, capacity := range []int{1, 2, 7, 64, 256} {
		capacity := capacity
		rng := rand.New(rand.NewSource(int64(100 + capacity)))
		got := New(capacity)
		ix := index{}
		want := newRefLRU(capacity)
		// Block universe ~3x capacity so inserts regularly evict.
		universe := 3*capacity + 2
		for i := 0; i < ops; i++ {
			b := mem.BlockID(rng.Intn(universe))
			n, resident := ix[b]
			switch rng.Intn(10) {
			case 0, 1, 2:
				if resident {
					got.Touch(n)
				}
				if w := want.Touch(b); resident != w {
					t.Fatalf("cap %d step %d: Touch(%d) resident = %v, reference %v", capacity, i, b, resident, w)
				}
			case 3, 4, 5, 6:
				gv, ge := ix.access(got, b)
				wv, we := want.Insert(b)
				if gv != wv || ge != we {
					t.Fatalf("cap %d step %d: Insert(%d) = (%d, %v), reference (%d, %v)",
						capacity, i, b, gv, ge, wv, we)
				}
			case 7, 8:
				ix.remove(got, b)
				if w := want.Remove(b); resident != w {
					t.Fatalf("cap %d step %d: Remove(%d) resident = %v, reference %v", capacity, i, b, resident, w)
				}
			case 9:
				if w := want.Contains(b); resident != w {
					t.Fatalf("cap %d step %d: Contains(%d) = %v, reference %v", capacity, i, b, resident, w)
				}
				if rng.Intn(200) == 0 {
					got.Reset(capacity)
					clear(ix)
					want.Flush()
				}
			}
			if got.Len() != want.Len() {
				t.Fatalf("cap %d step %d: Len = %d, reference %d", capacity, i, got.Len(), want.Len())
			}
			wantMRU := mem.BlockID(-1)
			if e := want.ll.Front(); e != nil {
				wantMRU = e.Value.(mem.BlockID)
			}
			if got.MRU() != wantMRU {
				t.Fatalf("cap %d step %d: MRU = %d, reference %d", capacity, i, got.MRU(), wantMRU)
			}
			if i%257 == 0 || i == ops-1 {
				sameResident(t, i, got.Resident(), want.Resident())
			}
		}
	}
}

// TestLRUNoSteadyStateAllocs verifies the point of the intrusive list:
// Touch, Insert (with and without an eviction) and Remove do not allocate.
func TestLRUNoSteadyStateAllocs(t *testing.T) {
	c := New(32)
	for b := 0; b < 96; b++ {
		c.Insert(mem.BlockID(b))
	}
	b := mem.BlockID(96)
	avg := testing.AllocsPerRun(1000, func() {
		n, _, _ := c.Insert(b) // evicts: the cache is full
		m, _, _ := c.Insert(b + 1)
		c.Touch(n)
		c.Remove(m)
		c.Remove(n)
		c.Insert(b + 2) // takes a free node
		c.Insert(b + 3)
		b += 4
	})
	if avg != 0 {
		t.Fatalf("steady-state ops allocate %v times per run, want 0", avg)
	}
}

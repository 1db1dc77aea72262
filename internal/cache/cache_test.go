package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"rwsfs/internal/mem"
)

func TestInsertEvictsLRU(t *testing.T) {
	c := New(2)
	c.Insert(1)
	c.Insert(2)
	if _, v, ev := c.Insert(3); !ev || v != 1 {
		t.Errorf("expected eviction of 1, got (%d, %v)", v, ev)
	}
	if got := c.Resident(); !slices.Equal(got, []mem.BlockID{3, 2}) {
		t.Errorf("resident after eviction = %v, want [3 2]", got)
	}
}

func TestTouchRefreshesRecency(t *testing.T) {
	c := New(2)
	n1, _, _ := c.Insert(1)
	c.Insert(2)
	c.Touch(n1) // 2 becomes LRU
	if c.MRU() != 1 {
		t.Fatalf("MRU = %d after touching block 1", c.MRU())
	}
	if _, v, ev := c.Insert(3); !ev || v != 2 {
		t.Errorf("expected eviction of 2, got (%d, %v)", v, ev)
	}
}

func TestMRU(t *testing.T) {
	c := New(2)
	if c.MRU() != -1 {
		t.Errorf("MRU of an empty cache = %d, want -1", c.MRU())
	}
	c.Insert(0)
	n, _, _ := c.Insert(5)
	if c.MRU() != 5 {
		t.Errorf("MRU = %d, want 5", c.MRU())
	}
	c.Remove(n)
	if c.MRU() != 0 {
		t.Errorf("MRU after removing block 5 = %d, want 0", c.MRU())
	}
	c.Reset(2)
	if c.MRU() != -1 {
		t.Errorf("MRU after Reset = %d, want -1", c.MRU())
	}
}

// TestRemove checks that Remove drops a block and frees its node for the
// next Insert, which then evicts nothing.
func TestRemove(t *testing.T) {
	c := New(2)
	n, _, _ := c.Insert(7)
	c.Insert(8)
	c.Remove(n)
	if c.Len() != 1 || !slices.Equal(c.Resident(), []mem.BlockID{8}) {
		t.Fatalf("after Remove: Len %d, resident %v", c.Len(), c.Resident())
	}
	if m, _, ev := c.Insert(9); ev || m != n {
		t.Errorf("Insert after Remove = (node %d, evicted %v), want the freed node %d and no eviction", m, ev, n)
	}
}

func TestResidentOrderMRUFirst(t *testing.T) {
	c := New(3)
	n1, _, _ := c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	c.Touch(n1)
	if got, want := c.Resident(), []mem.BlockID{1, 3, 2}; !slices.Equal(got, want) {
		t.Fatalf("Resident() = %v, want %v", got, want)
	}
}

// index is the block→node map a test keeps beside a Cache, as the machine's
// directory does: access inserts an absent block and touches a resident
// one, reporting the eviction.
type index map[mem.BlockID]int32

func (ix index) access(c *Cache, b mem.BlockID) (victim mem.BlockID, evicted bool) {
	if n, ok := ix[b]; ok {
		c.Touch(n)
		return 0, false
	}
	n, victim, evicted := c.Insert(b)
	if evicted {
		delete(ix, victim)
	}
	ix[b] = n
	return victim, evicted
}

func (ix index) remove(c *Cache, b mem.BlockID) {
	if n, ok := ix[b]; ok {
		c.Remove(n)
		delete(ix, b)
	}
}

func TestCapacityInvariantProperty(t *testing.T) {
	// Random operation sequences never exceed capacity, evict only when
	// full, and hand out distinct nodes.
	f := func(ops []uint16, capSel uint8) bool {
		capacity := int(capSel)%8 + 1
		c := New(capacity)
		ix := index{}
		for _, op := range ops {
			b := mem.BlockID(op % 32)
			full := c.Len() == capacity
			switch op % 3 {
			case 0, 1:
				_, resident := ix[b]
				if _, ev := ix.access(c, b); ev != (full && !resident) {
					return false
				}
			case 2:
				ix.remove(c, b)
			}
			if c.Len() > capacity || c.Len() != len(ix) {
				return false
			}
			seen := map[int32]bool{}
			for _, n := range ix {
				if n <= 0 || int(n) > capacity || seen[n] {
					return false
				}
				seen[n] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLRUSemanticsMatchReferenceModel(t *testing.T) {
	// Compare against a simple slice-based LRU model under random workloads.
	f := func(ops []uint8) bool {
		const capacity = 4
		c := New(capacity)
		ix := index{}
		var model []mem.BlockID // index 0 = MRU
		for _, op := range ops {
			b := mem.BlockID(op % 16)
			i := slices.Index(model, b)
			if op%2 == 0 { // access: insert or touch
				ix.access(c, b)
				if i >= 0 {
					model = slices.Delete(model, i, i+1)
				} else if len(model) == capacity {
					model = model[:capacity-1]
				}
				model = append([]mem.BlockID{b}, model...)
			} else if n, ok := ix[b]; ok { // touch a resident block
				c.Touch(n)
				model = slices.Delete(model, i, i+1)
				model = append([]mem.BlockID{b}, model...)
			}
			if !slices.Equal(c.Resident(), model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestCacheReset(t *testing.T) {
	c := New(4)
	for b := mem.BlockID(0); b < 4; b++ {
		c.Insert(b)
	}
	c.Reset(4)
	if c.Len() != 0 || len(c.Resident()) != 0 {
		t.Fatalf("after Reset: Len %d, resident %v; want empty", c.Len(), c.Resident())
	}
	if _, _, ev := c.Insert(2); ev || c.Len() != 1 {
		t.Error("insert after Reset broken")
	}
	// Reset to a different capacity changes eviction behaviour accordingly.
	c.Reset(2)
	c.Insert(10)
	c.Insert(11)
	if _, v, ev := c.Insert(12); !ev || v != 10 {
		t.Errorf("capacity-2 reset cache evicted (%d,%v), want (10,true)", v, ev)
	}
}

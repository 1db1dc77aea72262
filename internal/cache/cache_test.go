package cache

import (
	"testing"
	"testing/quick"

	"rwsfs/internal/mem"
)

func TestInsertEvictsLRU(t *testing.T) {
	c := New(2)
	c.Insert(1)
	c.Insert(2)
	if v, ev := c.Insert(3); !ev || v != 1 {
		t.Errorf("expected eviction of 1, got (%d, %v)", v, ev)
	}
	if c.Contains(1) || !c.Contains(2) || !c.Contains(3) {
		t.Error("wrong residency after eviction")
	}
}

func TestTouchRefreshesRecency(t *testing.T) {
	c := New(2)
	c.Insert(1)
	c.Insert(2)
	if !c.Touch(1) { // 2 becomes LRU
		t.Fatal("touch of resident block failed")
	}
	if v, ev := c.Insert(3); !ev || v != 2 {
		t.Errorf("expected eviction of 2, got (%d, %v)", v, ev)
	}
	if c.Touch(99) {
		t.Error("touch of absent block succeeded")
	}
}

func TestInsertResidentJustTouches(t *testing.T) {
	c := New(2)
	c.Insert(1)
	c.Insert(2)
	if _, ev := c.Insert(1); ev {
		t.Error("re-inserting resident block evicted something")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestRemoveAndFlush(t *testing.T) {
	c := New(4)
	c.Insert(7)
	if !c.Remove(7) || c.Contains(7) {
		t.Error("Remove failed")
	}
	if c.Remove(7) {
		t.Error("double Remove succeeded")
	}
	c.Insert(1)
	c.Insert(2)
	c.Flush()
	if c.Len() != 0 || c.Contains(1) {
		t.Error("Flush left residents")
	}
}

func TestResidentOrderMRUFirst(t *testing.T) {
	c := New(3)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	c.Touch(1)
	got := c.Resident()
	want := []mem.BlockID{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Resident() = %v, want %v", got, want)
		}
	}
}

func TestCapacityInvariantProperty(t *testing.T) {
	// Random operation sequences never exceed capacity, and an evicted
	// block is never still resident.
	f := func(ops []uint16, capSel uint8) bool {
		capacity := int(capSel)%8 + 1
		c := New(capacity)
		for _, op := range ops {
			b := mem.BlockID(op % 32)
			switch op % 3 {
			case 0:
				victim, ev := c.Insert(b)
				if ev && c.Contains(victim) && victim != b {
					return false
				}
			case 1:
				c.Touch(b)
			case 2:
				c.Remove(b)
			}
			if c.Len() > capacity {
				return false
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
		var model []mem.BlockID // index 0 = MRU
		find := func(b mem.BlockID) int {
			for i, x := range model {
				if x == b {
					return i
				}
			}
			return -1
		}
		for _, op := range ops {
			b := mem.BlockID(op % 16)
			if op%2 == 0 { // insert
				c.Insert(b)
				if i := find(b); i >= 0 {
					model = append(model[:i], model[i+1:]...)
				} else if len(model) == capacity {
					model = model[:capacity-1]
				}
				model = append([]mem.BlockID{b}, model...)
			} else { // touch
				c.Touch(b)
				if i := find(b); i >= 0 {
					model = append(model[:i], model[i+1:]...)
					model = append([]mem.BlockID{b}, model...)
				}
			}
			got := c.Resident()
			if len(got) != len(model) {
				return false
			}
			for i := range got {
				if got[i] != model[i] {
					return false
				}
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
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", c.Len())
	}
	// Stale index pages must read as absent (generation bump), and
	// revalidate lazily on insert.
	for b := mem.BlockID(0); b < 4; b++ {
		if c.Contains(b) {
			t.Errorf("block %d still resident after Reset", b)
		}
	}
	c.Insert(2)
	if !c.Contains(2) || c.Len() != 1 {
		t.Error("insert after Reset broken")
	}
	// Reset to a different capacity changes eviction behaviour accordingly.
	c.Reset(2)
	c.Insert(10)
	c.Insert(11)
	if v, ev := c.Insert(12); !ev || v != 10 {
		t.Errorf("capacity-2 reset cache evicted (%d,%v), want (10,true)", v, ev)
	}
}

// TestCacheResetGenerationWrap resets a cache across the wrap of its index
// generation: pages stamped with any earlier generation, and pages never
// materialized, must read as absent afterwards.
func TestCacheResetGenerationWrap(t *testing.T) {
	c := New(4)
	c.Insert(1)
	c.gen = ^uint32(0) - 1
	c.Reset(4)
	c.Insert(300) // a page stamped with the last generation before the wrap
	c.Reset(4)
	if c.gen == 0 {
		t.Fatal("generation wrapped to 0, the mark of a page never materialized")
	}
	for _, b := range []mem.BlockID{1, 300, 5000} {
		if c.Contains(b) || c.Touch(b) {
			t.Errorf("block %d resident after a Reset across the generation wrap", b)
		}
	}
	c.Insert(300)
	if !c.Contains(300) || c.Len() != 1 {
		t.Error("insert after the wrap broken")
	}
}

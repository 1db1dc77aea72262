package machine

import (
	"reflect"
	"testing"
	"testing/quick"

	"rwsfs/internal/mem"
)

func small(p int) Params {
	pr := DefaultParams(p)
	pr.M = 64 // 4 lines of 16 words: evictions happen fast
	return pr
}

func TestValidateRejectsBadParams(t *testing.T) {
	bads := []Params{
		{P: 0, M: 64, B: 16, CostMiss: 1, CostSteal: 1, CostFailSteal: 1, CostNode: 1},
		{P: 1, M: 64, B: 15, CostMiss: 1, CostSteal: 1, CostFailSteal: 1, CostNode: 1},
		{P: 1, M: 8, B: 16, CostMiss: 1, CostSteal: 1, CostFailSteal: 1, CostNode: 1},
		{P: 1, M: 64, B: 16, CostMiss: 0, CostSteal: 1, CostFailSteal: 1, CostNode: 1},
		{P: 1, M: 64, B: 16, CostMiss: 5, CostSteal: 4, CostFailSteal: 1, CostNode: 1}, // s < b
		{P: 1, M: 64, B: 16, CostMiss: 1, CostSteal: 2, CostFailSteal: 3, CostNode: 1}, // fail > s
		{P: 1, M: 64, B: 16, CostMiss: 1, CostSteal: 2, CostFailSteal: 1, CostNode: 0},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: bad params validated", i)
		}
	}
	if err := DefaultParams(4).Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	m := MustNew(small(1))
	if d := m.Access(0, 0, false, 0); d != m.CostMiss {
		t.Errorf("cold miss delay %d, want %d", d, m.CostMiss)
	}
	if d := m.Access(0, 1, false, 10); d != 0 {
		t.Errorf("same-block hit delay %d, want 0", d)
	}
	if m.Proc[0].CacheMisses != 1 || m.Proc[0].BlockMisses != 0 {
		t.Errorf("miss classification wrong: %+v", m.Proc[0])
	}
}

func TestCapacityEvictionCausesCacheMissNotBlockMiss(t *testing.T) {
	m := MustNew(small(1)) // 4 lines
	for i := 0; i < 5; i++ {
		m.Access(0, mem.Addr(i*16), false, Tick(i*100))
	}
	// Block 0 was evicted (LRU); re-access is a *cache* miss.
	m.Access(0, 0, false, 1000)
	if m.Proc[0].CacheMisses != 6 {
		t.Errorf("cache misses = %d, want 6", m.Proc[0].CacheMisses)
	}
	if m.Proc[0].BlockMisses != 0 {
		t.Errorf("block misses = %d, want 0 (no writers)", m.Proc[0].BlockMisses)
	}
}

func TestInvalidationProducesBlockMiss(t *testing.T) {
	m := MustNew(small(2))
	m.Access(0, 0, false, 0)  // P0 caches block 0
	m.Access(1, 1, true, 10)  // P1 writes word 1: invalidates P0
	m.Access(0, 0, false, 20) // P0's re-read: block miss (false sharing)
	if m.Proc[0].BlockMisses != 1 {
		t.Errorf("P0 block misses = %d, want 1", m.Proc[0].BlockMisses)
	}
	if m.Proc[1].InvalidationsSent != 1 {
		t.Errorf("P1 invalidations = %d, want 1", m.Proc[1].InvalidationsSent)
	}
}

func TestWriteHitUpgradesAndInvalidates(t *testing.T) {
	m := MustNew(small(2))
	m.Access(0, 0, false, 0)
	m.Access(1, 0, false, 0) // both share the block
	if d := m.Access(0, 0, true, 50); d != 0 {
		t.Errorf("write hit should be free, got %d", d)
	}
	m.Access(1, 0, false, 100)
	if m.Proc[1].BlockMisses != 1 {
		t.Errorf("P1 should re-fetch after upgrade: %+v", m.Proc[1])
	}
}

func TestContentionSerializesFIFO(t *testing.T) {
	m := MustNew(small(3))
	d0 := m.Access(0, 0, false, 100)
	d1 := m.Access(1, 0, false, 100)
	d2 := m.Access(2, 0, false, 100)
	if d0 != 10 || d1 != 20 || d2 != 30 {
		t.Errorf("FIFO delays (%d,%d,%d), want (10,20,30)", d0, d1, d2)
	}
	if m.Proc[2].BlockWait != 20 {
		t.Errorf("P2 block wait %d, want 20", m.Proc[2].BlockWait)
	}
}

func TestArbitrationFreeRemovesQueueing(t *testing.T) {
	pr := small(3)
	pr.Arbitration = ArbitrationFree
	m := MustNew(pr)
	for p := 0; p < 3; p++ {
		if d := m.Access(p, 0, false, 100); d != 10 {
			t.Errorf("P%d delay %d, want flat 10", p, d)
		}
	}
}

func TestAccessRangeChargesPerBlock(t *testing.T) {
	m := MustNew(small(1))
	// 40 words from 8: blocks 0,1,2 (3 blocks), all cold.
	d := m.AccessRange(0, 8, 40, false, 0)
	if d != 30 {
		t.Errorf("range delay %d, want 30", d)
	}
	if m.Proc[0].CacheMisses != 3 {
		t.Errorf("range misses %d, want 3", m.Proc[0].CacheMisses)
	}
	if m.AccessRange(0, 0, 0, false, 0) != 0 {
		t.Error("empty range should be free")
	}
}

func TestTransfersAccounting(t *testing.T) {
	m := MustNew(small(2))
	m.Access(0, 0, false, 0)
	m.Access(1, 0, true, 10)
	m.Access(0, 0, false, 30)
	total, maxPer := m.BlockTransfers()
	if total != 3 || maxPer != 3 {
		t.Errorf("transfers (%d,%d), want (3,3)", total, maxPer)
	}
}

func TestTotalsSumPerProc(t *testing.T) {
	m := MustNew(small(2))
	m.Access(0, 0, false, 0)
	m.Access(1, 64, true, 0)
	tot := m.Totals()
	if tot.CacheMisses != 2 || tot.AccessesTimed != 2 {
		t.Errorf("totals wrong: %+v", tot)
	}
}

// TestProcCountersAddAddsEveryField sets every counter to a distinct value
// and adds it twice to zero counters: every field must come out doubled, so
// a counter added later cannot drop out of Totals or the harness's sums.
func TestProcCountersAddAddsEveryField(t *testing.T) {
	var c ProcCounters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1000 + i))
	}
	var sum ProcCounters
	sum.Add(&c)
	sum.Add(&c)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if x := got.Field(i).Int(); x != int64(2*(1000+i)) {
			t.Errorf("%s = %d after adding %d twice, want %d", got.Type().Field(i).Name, x, 1000+i, 2*(1000+i))
		}
	}
}

func TestWriteTrackingAndRetirement(t *testing.T) {
	pr := small(1)
	pr.TrackWrites = true
	m := MustNew(pr)
	if m.MaxWriteCount() != 0 {
		t.Error("fresh tracker nonzero")
	}
	for i := 0; i < 5; i++ {
		m.Access(0, 7, true, Tick(i))
	}
	if m.MaxWriteCount() != 5 {
		t.Errorf("max writes %d, want 5", m.MaxWriteCount())
	}
	m.RetireRange(7, 1)
	m.Access(0, 7, true, 100)
	// Retired max (5) dominates the fresh variable's count (1).
	if m.MaxWriteCount() != 5 {
		t.Errorf("max after retire %d, want 5", m.MaxWriteCount())
	}
	// Untracked machine reports -1.
	m2 := MustNew(small(1))
	if m2.MaxWriteCount() != -1 {
		t.Error("untracked machine should report -1")
	}
}

func TestMissClassificationProperty(t *testing.T) {
	// Under random access sequences from two processors, total misses
	// equals cache + block misses, and block misses only appear when there
	// was at least one remote write.
	f := func(ops []uint16) bool {
		m := MustNew(small(2))
		wrote := false
		now := Tick(0)
		for _, op := range ops {
			p := int(op & 1)
			write := op&2 != 0
			addr := mem.Addr((op >> 2) % 256)
			if write {
				wrote = true
			}
			m.Access(p, addr, write, now)
			now += 5
		}
		tot := m.Totals()
		if !wrote && tot.BlockMisses != 0 {
			return false
		}
		transfers, _ := m.BlockTransfers()
		return transfers == tot.BlockMisses+tot.CacheMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestMachineResetMatchesFresh drives identical access traces through a
// freshly constructed machine and one Reset from a deliberately different
// previous configuration (P, B, topology, steal pricing and write tracking
// all change), and requires every observable — stall delays, counters,
// transfers, owners, write maxima — to agree.
func TestMachineResetMatchesFresh(t *testing.T) {
	paramSets := []Params{
		DefaultParams(4),
		func() Params {
			p := DefaultParams(8)
			p.B = 8
			p.M = 512
			p.Topology = Topology{Sockets: 2, CostMissRemote: 30, CostSteal: 3, CostStealRemote: 9}
			p.TrackWrites = true
			return p
		}(),
		DefaultParams(2),
		func() Params {
			p := DefaultParams(6)
			p.Topology = Topology{Sockets: 3, CostMissRemote: 20}
			return p
		}(),
	}
	trace := func(m *Machine) (Tick, int64, int64) {
		base := m.Alloc.Alloc(4 * m.B)
		var total Tick
		now := Tick(0)
		for i := 0; i < 64; i++ {
			p := i % m.P
			a := base + mem.Addr((i*7)%(4*m.B))
			d := m.Access(p, a, i%3 == 0, now)
			total += d
			now += d + 1
		}
		tot, mx := m.BlockTransfers()
		_ = mx
		return total, tot, m.MaxWriteCount()
	}
	reset := MustNew(paramSets[0])
	for _, pr := range paramSets {
		fresh := MustNew(pr)
		fDelay, fXfer, fWrites := trace(fresh)
		if err := reset.Reset(pr); err != nil {
			t.Fatalf("Reset(%+v): %v", pr, err)
		}
		rDelay, rXfer, rWrites := trace(reset)
		if fDelay != rDelay || fXfer != rXfer || fWrites != rWrites {
			t.Errorf("reset machine diverged from fresh for %+v: delay %d/%d, transfers %d/%d, writes %d/%d",
				pr, fDelay, rDelay, fXfer, rXfer, fWrites, rWrites)
		}
		for p := 0; p < pr.P; p++ {
			if fresh.Proc[p] != reset.Proc[p] {
				t.Errorf("proc %d counters diverged: fresh %+v reset %+v", p, fresh.Proc[p], reset.Proc[p])
			}
		}
	}
	// Invalid params leave the machine untouched and usable.
	bad := DefaultParams(0)
	if err := reset.Reset(bad); err == nil {
		t.Error("Reset accepted P=0")
	}
	if err := reset.Reset(DefaultParams(2)); err != nil {
		t.Errorf("Reset after failed Reset: %v", err)
	}
}

// TestDirectoryResetGenerationWrap resets a machine across the wrap of its
// directory generation: a page stamped in the generation before the wrap,
// or in any earlier one, must read as absent afterwards — no transfers, no
// sharer bit and no cached node left over from the old run.
func TestDirectoryResetGenerationWrap(t *testing.T) {
	pr := small(2)
	m := MustNew(pr)
	m.Access(0, 0, true, 0)
	m.dir.gen = ^uint32(0)
	for i := 0; i < 2; i++ {
		if err := m.Reset(pr); err != nil {
			t.Fatal(err)
		}
		if m.dir.gen == 0 {
			t.Errorf("reset %d: generation 0, the mark of a stale page", i)
		}
		if total, _ := m.BlockTransfers(); total != 0 {
			t.Errorf("reset %d: BlockTransfers = %d before any access, want 0", i, total)
		}
		if m.SharesBlock(0, 0) {
			t.Errorf("reset %d: p0 shares block 0 before any access", i)
		}
	}
	if d := m.Access(0, 0, false, 0); d != pr.CostMiss || m.Proc[0].CacheMisses != 1 {
		t.Errorf("first access after the wrap: delay %d, %d cache misses; want a cold miss (%d, 1)",
			d, m.Proc[0].CacheMisses, pr.CostMiss)
	}
}

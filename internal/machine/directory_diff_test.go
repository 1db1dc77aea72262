package machine

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"

	"rwsfs/internal/mem"
)

// refCoherence is the pre-refactor reference model of the coherence core:
// container/list LRU caches, per-processor invalidated maps, busyUntil and
// transfers maps, with accessBlock/invalidateOthers logic kept verbatim.
// The directory/bitset machine must match it op-for-op. The one extension
// beyond the pre-refactor model is map-based topology pricing (socketOf /
// owner), mirroring the paged owner arrays so multi-socket variants stay
// differentially testable.
type refCoherence struct {
	pr          Params
	caches      []*refList
	invalidated []map[mem.BlockID]struct{}
	busyUntil   map[mem.BlockID]Tick
	transfers   map[mem.BlockID]int64
	proc        []ProcCounters

	// Topology pricing state; socketOf nil ⟺ flat.
	socketOf   []int
	remoteCost Tick
	owner      map[mem.BlockID]int
}

type refList struct {
	capacity int
	ll       *list.List
	index    map[mem.BlockID]*list.Element
}

func newRefList(capacity int) *refList {
	return &refList{capacity: capacity, ll: list.New(), index: make(map[mem.BlockID]*list.Element)}
}

func (c *refList) touch(b mem.BlockID) bool {
	e, ok := c.index[b]
	if !ok {
		return false
	}
	c.ll.MoveToFront(e)
	return true
}

func (c *refList) insert(b mem.BlockID) (victim mem.BlockID, evicted bool) {
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

func (c *refList) resident() []mem.BlockID {
	out := make([]mem.BlockID, 0, c.ll.Len())
	for e := c.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(mem.BlockID))
	}
	return out
}

func (c *refList) remove(b mem.BlockID) bool {
	e, ok := c.index[b]
	if !ok {
		return false
	}
	c.ll.Remove(e)
	delete(c.index, b)
	return true
}

func newRefCoherence(pr Params) *refCoherence {
	r := &refCoherence{
		pr:          pr,
		caches:      make([]*refList, pr.P),
		invalidated: make([]map[mem.BlockID]struct{}, pr.P),
		busyUntil:   make(map[mem.BlockID]Tick),
		transfers:   make(map[mem.BlockID]int64),
		proc:        make([]ProcCounters, pr.P),
	}
	for i := range r.caches {
		r.caches[i] = newRefList(pr.M / pr.B)
		r.invalidated[i] = make(map[mem.BlockID]struct{})
	}
	if !pr.Topology.Flat() {
		r.socketOf = make([]int, pr.P)
		for p := range r.socketOf {
			r.socketOf[p] = pr.Topology.SocketOf(p, pr.P)
		}
		r.remoteCost = pr.Topology.remoteCost(pr.CostMiss)
		r.owner = make(map[mem.BlockID]int)
	}
	return r
}

func (r *refCoherence) accessBlock(p int, bid mem.BlockID, write bool, now Tick) Tick {
	c := &r.proc[p]
	if r.caches[p].touch(bid) {
		if write {
			r.invalidateOthers(p, bid)
		}
		return 0
	}
	if _, lost := r.invalidated[p][bid]; lost {
		c.BlockMisses++
		delete(r.invalidated[p], bid)
	} else {
		c.CacheMisses++
	}
	cost := r.pr.CostMiss
	if r.socketOf != nil {
		if own, ok := r.owner[bid]; ok && r.socketOf[own] != r.socketOf[p] {
			cost = r.remoteCost
			c.RemoteFetches++
		}
		r.owner[bid] = p
	}
	start := now
	if r.pr.Arbitration == ArbitrationFIFO {
		if bu, ok := r.busyUntil[bid]; ok && bu > start {
			c.BlockWait += bu - start
			start = bu
		}
		r.busyUntil[bid] = start + cost
	}
	c.MissStall += cost
	delay := (start - now) + cost
	r.transfers[bid]++
	r.caches[p].insert(bid)
	if write {
		r.invalidateOthers(p, bid)
	}
	return delay
}

func (r *refCoherence) invalidateOthers(p int, bid mem.BlockID) {
	if r.socketOf != nil {
		r.owner[bid] = p
	}
	for q := 0; q < r.pr.P; q++ {
		if q == p {
			continue
		}
		if r.caches[q].remove(bid) {
			r.invalidated[q][bid] = struct{}{}
			r.proc[p].InvalidationsSent++
		}
	}
}

// TestDirectoryDifferential runs the directory/bitset machine and the
// map-based reference over identical randomized block traces (≥10k ops per
// variant) and demands identical per-access delays, identical counters, and
// at every checkpoint the reference's recency orders, with node columns and
// sharer bitsets exactly matching its residency (checkCoherenceState).
func TestDirectoryDifferential(t *testing.T) {
	variants := []struct {
		name string
		pr   Params
	}{
		{"p1", Params{P: 1, M: 64, B: 8, CostMiss: 4, CostSteal: 8, CostFailSteal: 4, CostNode: 1}},
		{"p3-fifo", Params{P: 3, M: 64, B: 8, CostMiss: 4, CostSteal: 8, CostFailSteal: 4, CostNode: 1}},
		{"p8-free", Params{P: 8, M: 32, B: 4, CostMiss: 7, CostSteal: 9, CostFailSteal: 2, CostNode: 1, Arbitration: ArbitrationFree}},
		// P=70 needs two bitset words per block: exercises multi-word masks.
		{"p70-fifo", Params{P: 70, M: 16, B: 4, CostMiss: 3, CostSteal: 5, CostFailSteal: 1, CostNode: 1}},
		// Two sockets with remote pricing: exercises the owner provenance
		// arrays against the reference's owner map.
		{"p8-2sock", Params{P: 8, M: 32, B: 4, CostMiss: 3, CostSteal: 5, CostFailSteal: 1, CostNode: 1,
			Topology: Topology{Sockets: 2, CostMissRemote: 11}}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			const ops = 12_000
			rng := rand.New(rand.NewSource(int64(len(v.name)) * 7919))
			m := MustNew(v.pr)
			ref := newRefCoherence(v.pr)
			// Working set ~6x one cache's blocks so eviction churn is constant.
			nBlocks := 6 * v.pr.M / v.pr.B
			m.Alloc.Alloc(nBlocks * v.pr.B)
			now := Tick(0)
			for i := 0; i < ops; i++ {
				p := rng.Intn(v.pr.P)
				bid := mem.BlockID(rng.Intn(nBlocks))
				write := rng.Intn(4) == 0
				got := m.accessBlock(p, bid, write, now)
				want := ref.accessBlock(p, bid, write, now)
				if got != want {
					t.Fatalf("step %d: accessBlock(p=%d, bid=%d, write=%v, now=%d) delay = %d, reference %d",
						i, p, bid, write, now, got, want)
				}
				now += 1 + got%5
				if i%997 == 0 || i == ops-1 {
					checkCoherenceState(t, i, m, ref, nBlocks)
				}
			}
			for p := 0; p < v.pr.P; p++ {
				if m.Proc[p] != ref.proc[p] {
					t.Fatalf("proc %d counters = %+v, reference %+v", p, m.Proc[p], ref.proc[p])
				}
			}
			gt, gm := m.BlockTransfers()
			var wt, wm int64
			for _, n := range ref.transfers {
				wt += n
				if n > wm {
					wm = n
				}
			}
			if gt != wt || gm != wm {
				t.Fatalf("BlockTransfers = (%d, %d), reference (%d, %d)", gt, gm, wt, wm)
			}
		})
	}
}

// checkCoherenceState cross-validates the machine against the reference:
// each cache's MRU→LRU order against the reference list's; per processor
// and block, the directory's node (nonzero ⟺ resident, distinct within a
// cache) and sharer bit against the reference residency; and lost bits
// against the reference invalidated maps.
func checkCoherenceState(t *testing.T, step int, m *Machine, ref *refCoherence, nBlocks int) {
	t.Helper()
	for p := 0; p < m.P; p++ {
		if got, want := m.caches[p].Resident(), ref.caches[p].resident(); !slices.Equal(got, want) {
			t.Fatalf("step %d: proc %d MRU→LRU order %v, reference %v", step, p, got, want)
		}
		nodes := make(map[int32]mem.BlockID)
		for b := 0; b < nBlocks; b++ {
			bid := mem.BlockID(b)
			_, refRes := ref.caches[p].index[bid]
			r := m.dir.peek(bid)
			node := int32(0)
			sharer, lost := false, false
			if r.pg != nil {
				node = r.node(p)
				sharer = r.sharerHas(p)
				lost = r.lostHas(p)
			}
			if (node != 0) != refRes {
				t.Fatalf("step %d: proc %d block %d node %d, reference residency %v", step, p, b, node, refRes)
			}
			if sharer != (node != 0) {
				t.Fatalf("step %d: proc %d block %d sharer bit = %v, node %d", step, p, b, sharer, node)
			}
			if node != 0 {
				if prev, dup := nodes[node]; dup {
					t.Fatalf("step %d: proc %d blocks %d and %d share node %d", step, p, prev, b, node)
				}
				nodes[node] = bid
			}
			_, refLost := ref.invalidated[p][bid]
			if lost != refLost {
				t.Fatalf("step %d: proc %d block %d lost bit = %v, reference %v", step, p, b, lost, refLost)
			}
		}
	}
}

// resident reports whether bid is in p's cache, by the directory's node.
func resident(m *Machine, p int, bid mem.BlockID) bool {
	r := m.dir.peek(bid)
	return r.pg != nil && r.node(p) != 0
}

// TestDirectoryWordBoundaryInvalidation pins the masked sharer-word walk in
// invalidateOthers at bitset word boundaries: sharers straddling words 0/1
// of a P=130 machine, with the writer itself in each word.
func TestDirectoryWordBoundaryInvalidation(t *testing.T) {
	sharerSet := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, writer := range []int{0, 63, 64, 129, 50} {
		pr := Params{P: 130, M: 8, B: 4, CostMiss: 2, CostSteal: 3, CostFailSteal: 1, CostNode: 1}
		m := MustNew(pr)
		m.Alloc.Alloc(pr.B)
		for _, q := range sharerSet {
			m.accessBlock(q, 0, false, 0)
		}
		m.accessBlock(writer, 0, true, 100)
		wantSent := int64(len(sharerSet))
		for _, q := range sharerSet {
			if q == writer {
				wantSent-- // the writer's own copy is not invalidated
			}
		}
		if got := m.Proc[writer].InvalidationsSent; got != wantSent {
			t.Fatalf("writer %d: InvalidationsSent = %d, want %d", writer, got, wantSent)
		}
		for _, q := range sharerSet {
			wantRes := q == writer
			if got := resident(m, q, 0); got != wantRes {
				t.Fatalf("writer %d: proc %d residency = %v, want %v", writer, q, got, wantRes)
			}
			r := m.dir.peek(0)
			if got := r.lostHas(q); got != !wantRes {
				t.Fatalf("writer %d: proc %d lost bit = %v, want %v", writer, q, got, !wantRes)
			}
		}
	}
}

// Package machine assembles the abstract multicore of Section 2 of the
// paper: p processors, each with a private size-M cache organized in size-B
// blocks, above an unbounded shared memory. Writes follow the invalidation
// rule of Section 2.1: an update by processor C' to a block resident in
// processor C's cache invalidates C's copy, and C's next access to the block
// is a *block miss*. Misses that are not invalidation-induced (cold or
// capacity) are *cache misses*. Both stall the processor for the cache-miss
// cost b; contended blocks additionally serialize, so x near-simultaneous
// accesses to one block can delay a processor by Θ(x·b) — the unbounded block
// delay the paper's algorithmic restrictions exist to control.
//
// # Coherence representation
//
// Coherence state lives in a per-block *directory* (see directory.go), the
// machine's only block table. Each block record carries the block's node in
// every processor's cache.Cache recency list (0 = not resident there), a
// sharer bitset mirroring those nodes, a lost bitset (which processors have
// a pending invalidation-induced miss), the FIFO-arbitration busy-until
// tick, and the Definition 4.1 transfer count; a cache.Cache is only the LRU
// order of its nodes. Because mem.Allocator hands out addresses with a bump
// pointer, block IDs are dense integers from zero, so the directory is a
// lazily-materialized paged dense array — no hashing and no steady-state
// allocation. An access looks its block's record up once
// and serves the hit, the miss and the write's invalidation from it; the
// invalidation broadcast iterates the sharer bitset, making it O(actual
// sharers) instead of an O(P) scan over every cache.
//
// On a non-flat Topology the directory additionally records each block's
// last owner (fetcher or writer); a transfer whose owner sits in another
// socket is priced at the remote cost and counted as a RemoteFetch. The
// flat default tracks nothing and charges exactly the paper's costs.
package machine

import (
	"fmt"
	"math/bits"

	"rwsfs/internal/cache"
	"rwsfs/internal/mem"
)

// Tick is simulated time, in abstract time units. One unit of in-cache work
// costs one Tick; a cache miss costs CostMiss Ticks.
type Tick int64

// Arbitration selects how near-simultaneous misses on one block serialize.
type Arbitration int

const (
	// ArbitrationFIFO serves block fetches in global time order (ties by
	// processor ID). This is the default, "fair" mechanism.
	ArbitrationFIFO Arbitration = iota
	// ArbitrationFree serves every fetch immediately with no serialization;
	// it isolates miss *counting* from contention *delay* in experiments.
	ArbitrationFree
)

// Params are the machine's structural and cost parameters, in the paper's
// notation: P processors, cache size M words, block size B words, cache-miss
// cost b, steal cost s, failed-steal cost O(s) (CostFailSteal ≤ CostSteal).
type Params struct {
	P             int  // number of processors (p)
	M             int  // words per private cache (M); must be a multiple of B
	B             int  // words per block (B); power of two
	CostMiss      Tick // b: stall for one cache or block miss
	CostSteal     Tick // s: cost of a successful steal (s >= b per Sec. 5)
	CostFailSteal Tick // cost of an unsuccessful steal (<= s)
	CostNode      Tick // e1-ish: work charged per O(1) DAG node, default 1
	Arbitration   Arbitration
	TrackWrites   bool // record per-address write counts (Property 4.1 checks)
	// Topology partitions the processors into sockets with a distinct
	// cross-socket transfer cost; the zero value is the paper's flat
	// machine (see Topology).
	Topology Topology
}

// DefaultParams returns a small, realistic configuration: 32 KiB caches of
// 128-byte lines (M=4096 words, B=16 words), b=10, s=20.
func DefaultParams(p int) Params {
	return Params{
		P:             p,
		M:             4096,
		B:             16,
		CostMiss:      10,
		CostSteal:     20,
		CostFailSteal: 10,
		CostNode:      1,
	}
}

// Validate checks parameter consistency against the paper's assumptions.
func (pr Params) Validate() error {
	switch {
	case pr.P <= 0:
		return fmt.Errorf("machine: P=%d", pr.P)
	case pr.B <= 0 || pr.B&(pr.B-1) != 0:
		return fmt.Errorf("machine: B=%d is not a positive power of two", pr.B)
	case pr.M < pr.B || pr.M%pr.B != 0:
		return fmt.Errorf("machine: M=%d must be a positive multiple of B=%d", pr.M, pr.B)
	case pr.CostMiss <= 0:
		return fmt.Errorf("machine: CostMiss=%d", pr.CostMiss)
	case pr.CostSteal < pr.CostMiss:
		return fmt.Errorf("machine: CostSteal=%d < CostMiss=%d (paper assumes s >= b)", pr.CostSteal, pr.CostMiss)
	case pr.CostFailSteal <= 0 || pr.CostFailSteal > pr.CostSteal:
		return fmt.Errorf("machine: CostFailSteal=%d not in (0, CostSteal=%d]", pr.CostFailSteal, pr.CostSteal)
	case pr.CostNode <= 0:
		return fmt.Errorf("machine: CostNode=%d", pr.CostNode)
	}
	return pr.Topology.validate(pr)
}

// ProcCounters aggregates one processor's activity.
type ProcCounters struct {
	WorkTicks         Tick  // ticks spent on in-cache work
	CacheMisses       int64 // cold + capacity misses
	BlockMisses       int64 // invalidation-induced misses (incl. false sharing)
	MissStall         Tick  // ticks stalled fetching blocks (transfer itself)
	BlockWait         Tick  // extra ticks waiting for a contended block
	StealsOK          int64
	StealsFail        int64
	StealTicks        Tick
	Usurpations       int64 // times this processor took over another task's kernel
	NodesExecuted     int64
	AccessesTimed     int64 // timed word accesses issued (reads+writes)
	InvalidationsSent int64 // writes by this proc that invalidated remote copies
	RemoteFetches     int64 // block fetches served across a socket boundary (0 on flat topologies)
	RemoteSteals      int64 // steal attempts that probed a victim in another socket (counted only under steal pricing)
	StealLatency      Tick  // distance-dependent steal-attempt latency charged to this proc (0 unless the topology prices steals)
}

// Machine is the simulated multicore. It is not safe for concurrent use; the
// scheduler serializes all calls.
type Machine struct {
	Params
	Mem   *mem.Memory
	Alloc *mem.Allocator

	// caches holds each processor's LRU order; which blocks are resident,
	// and at which node, is the directory's to say.
	caches []cache.Cache
	// dir is the per-block coherence directory: node columns, sharer/lost
	// bitsets, busy-until ticks and transfer counts, in paged dense arrays.
	dir directory

	Proc []ProcCounters

	// socketOf maps processor → socket on a non-flat topology; nil when
	// flat, which doubles as the "is topology pricing active" flag on the
	// miss path. remoteCost is the effective cross-socket transfer stall.
	// socketBuf is socketOf's reusable backing across Resets (socketOf must
	// go nil on flat topologies, but the storage need not be re-allocated
	// when a later run is socketed again).
	socketOf   []int16
	socketBuf  []int16
	remoteCost Tick

	// stealPriced gates the distance-dependent steal-attempt latency;
	// stealLocal/stealRemote are the effective same-/cross-socket attempt
	// prices (see Topology's steal-latency model).
	stealPriced bool
	stealLocal  Tick
	stealRemote Tick

	// OnTransfer, when non-nil, observes every block fetch as it is charged
	// (after the transfer count is updated). The scheduler uses it to audit
	// per-task block delays against Lemmas 4.3/4.4.
	OnTransfer func(mem.BlockID)

	writeCounts     map[mem.Addr]int64 // only when TrackWrites
	writeBuf        map[mem.Addr]int64 // writeCounts' reusable backing across Resets
	retiredWriteMax int64              // max writes over retired (dead) variables
}

// New builds a machine from params, validating them. Past the memory and
// its allocator, Reset does all the set-up (a zero directory is empty).
func New(pr Params) (*Machine, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	memory := mem.New(pr.B)
	m := &Machine{Mem: memory, Alloc: mem.NewAllocator(memory)}
	if err := m.Reset(pr); err != nil {
		return nil, err
	}
	return m, nil
}

// MustNew is New but panics on invalid params; for tests and examples.
func MustNew(pr Params) *Machine {
	m, err := New(pr)
	if err != nil {
		panic(err)
	}
	return m
}

// Reset reinitializes the machine for another run under pr, reusing every
// backing structure a fresh machine would have to allocate: memory pages move
// to a free list and are re-zeroed on next touch, cache recency lists are
// rebuilt in place, the coherence directory is invalidated by a generation
// bump (stale pages revalidated lazily), and the per-processor counter and
// cache slices are regrown in place. New sets a machine up through Reset, so
// a reset machine equals New(pr) by construction. On an invalid pr the
// machine is left untouched.
func (m *Machine) Reset(pr Params) error {
	if err := pr.Validate(); err != nil {
		return err
	}
	m.Params = pr
	m.Mem.Reset(pr.B)
	m.Alloc.Reset()
	capBlocks := pr.M / pr.B
	if pr.P <= cap(m.caches) {
		m.caches = m.caches[:pr.P]
	} else {
		grown := make([]cache.Cache, pr.P)
		copy(grown, m.caches[:cap(m.caches)])
		m.caches = grown
	}
	for i := range m.caches {
		m.caches[i].Reset(capBlocks)
	}
	m.dir.reset(pr.P, !pr.Topology.Flat())
	if pr.P <= cap(m.Proc) {
		m.Proc = m.Proc[:pr.P]
	} else {
		m.Proc = make([]ProcCounters, pr.P)
	}
	clear(m.Proc)
	m.socketOf = nil
	m.remoteCost = 0
	if !pr.Topology.Flat() {
		if pr.P <= cap(m.socketBuf) {
			m.socketOf = m.socketBuf[:pr.P]
		} else {
			m.socketBuf = make([]int16, pr.P)
			m.socketOf = m.socketBuf
		}
		for p := range m.socketOf {
			m.socketOf[p] = int16(pr.Topology.SocketOf(p, pr.P))
		}
		m.remoteCost = pr.Topology.remoteCost(pr.CostMiss)
	}
	m.stealPriced, m.stealLocal, m.stealRemote = false, 0, 0
	if pr.Topology.StealPriced() {
		m.stealPriced = true
		m.stealLocal = pr.Topology.CostSteal
		m.stealRemote = pr.Topology.stealRemoteCost()
	}
	m.OnTransfer = nil
	m.writeCounts = nil
	if pr.TrackWrites {
		if m.writeBuf == nil {
			m.writeBuf = make(map[mem.Addr]int64)
		} else {
			clear(m.writeBuf)
		}
		m.writeCounts = m.writeBuf
	}
	m.retiredWriteMax = 0
	return nil
}

// Access performs one timed word access by processor p at time now and
// returns the stall delay the processor incurs. Coherence state, miss
// classification and block-transfer counts are updated.
func (m *Machine) Access(p int, a mem.Addr, write bool, now Tick) Tick {
	c := &m.Proc[p]
	c.AccessesTimed++
	if write && m.writeCounts != nil {
		m.writeCounts[a]++
	}
	bid := m.Mem.Block(a)
	delay := m.accessBlock(p, bid, write, now)
	return delay
}

// AccessRange performs a timed access to the n words starting at a, as a
// single bulk operation: each distinct block in the range is touched once.
// The returned delay is the total serialized stall. Bulk accesses model a
// base-case kernel streaming through contiguous data.
func (m *Machine) AccessRange(p int, a mem.Addr, n int, write bool, now Tick) Tick {
	if n <= 0 {
		return 0
	}
	c := &m.Proc[p]
	c.AccessesTimed += int64(n)
	if write && m.writeCounts != nil {
		for i := 0; i < n; i++ {
			m.writeCounts[a+mem.Addr(i)]++
		}
	}
	first := m.Mem.Block(a)
	last := m.Mem.Block(a + mem.Addr(n-1))
	var total Tick
	for b := first; b <= last; b++ {
		total += m.accessBlock(p, b, write, now+total)
	}
	return total
}

// accessBlock is the coherence core: one processor touches one block.
func (m *Machine) accessBlock(p int, bid mem.BlockID, write bool, now Tick) Tick {
	c := &m.Proc[p]
	cp := &m.caches[p]
	if cp.MRU() == bid && !write {
		return 0
	}
	// One lookup serves the hit, the miss and the write's invalidation. A
	// resident block's page is current, so peek finds it; entry
	// materializes the page of a block that is resident nowhere.
	r := m.dir.peek(bid)
	if r.pg == nil {
		r = m.dir.entry(bid)
	}
	if n := r.node(p); n != 0 {
		// Hit. A write still invalidates remote copies (upgrade).
		cp.Touch(n)
		if write {
			m.invalidateOthers(p, r)
		}
		return 0
	}
	// Miss: classify against the lost bitset (pending invalidation marker).
	if r.lostHas(p) {
		c.BlockMisses++
		r.clearLost(p)
	} else {
		c.CacheMisses++
	}
	// Fetch, with per-block serialization under FIFO arbitration. On a
	// non-flat topology the transfer is priced by provenance: if the
	// block's last owner sits in another socket the fetch crosses the
	// interconnect and stalls for the remote cost instead.
	cost := m.CostMiss
	if m.socketOf != nil {
		if own := r.pg.owner[r.i]; own >= 0 && m.socketOf[own] != m.socketOf[p] {
			cost = m.remoteCost
			c.RemoteFetches++
		}
		r.pg.owner[r.i] = int16(p)
	}
	start := now
	if m.Arbitration == ArbitrationFIFO {
		if bu := r.pg.busyUntil[r.i]; bu > start {
			c.BlockWait += bu - start
			start = bu
		}
		r.pg.busyUntil[r.i] = start + cost
	}
	c.MissStall += cost
	delay := (start - now) + cost
	r.pg.transfers[r.i]++
	if m.OnTransfer != nil {
		m.OnTransfer(bid)
	}
	n, victim, evicted := cp.Insert(bid)
	if evicted {
		m.dir.peek(victim).evict(p)
	}
	m.dir.admit(r, p, n)
	if write {
		m.invalidateOthers(p, r)
	}
	return delay
}

// invalidateOthers removes every remote copy of r's block after a write by
// p, walking the sharer bitset so the cost is O(actual sharers), not O(P).
// Each victim gains a lost-bit (its next access is a block miss).
func (m *Machine) invalidateOthers(p int, r dirRef) {
	if m.socketOf != nil {
		// A write makes p the block's exclusive owner: later fetches are
		// served (and priced) from p's socket.
		r.pg.owner[r.i] = int16(p)
	}
	sh := r.sharers()
	lost := r.lost()
	sent := int64(0)
	for wi, word := range sh {
		if wi == p>>6 {
			word &^= 1 << (uint(p) & 63)
		}
		if word == 0 {
			continue
		}
		lost[wi] |= word
		sh[wi] &^= word
		for word != 0 {
			q := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			col := r.pg.nodes[q]
			m.caches[q].Remove(col[r.i])
			col[r.i] = 0
			sent++
		}
	}
	m.Proc[p].InvalidationsSent += sent
}

// Add adds every counter of c to t's.
func (t *ProcCounters) Add(c *ProcCounters) {
	t.WorkTicks += c.WorkTicks
	t.CacheMisses += c.CacheMisses
	t.BlockMisses += c.BlockMisses
	t.MissStall += c.MissStall
	t.BlockWait += c.BlockWait
	t.StealsOK += c.StealsOK
	t.StealsFail += c.StealsFail
	t.StealTicks += c.StealTicks
	t.Usurpations += c.Usurpations
	t.NodesExecuted += c.NodesExecuted
	t.AccessesTimed += c.AccessesTimed
	t.InvalidationsSent += c.InvalidationsSent
	t.RemoteFetches += c.RemoteFetches
	t.RemoteSteals += c.RemoteSteals
	t.StealLatency += c.StealLatency
}

// Totals sums the per-processor counters.
func (m *Machine) Totals() ProcCounters {
	var t ProcCounters
	for i := range m.Proc {
		t.Add(&m.Proc[i])
	}
	return t
}

// StealPriced reports whether the topology charges steal attempts a
// distance-dependent latency.
func (m *Machine) StealPriced() bool { return m.stealPriced }

// StealPrice returns the distance-dependent latency a steal attempt by
// thief against victim costs, and whether the probe crosses a socket
// boundary. Both are zero/false when the topology leaves steal pricing off,
// so the unpriced machine stays byte-identical. The price covers the probe
// itself, so it is charged whether or not the attempt finds work.
func (m *Machine) StealPrice(thief, victim int) (price Tick, remote bool) {
	if !m.stealPriced {
		return 0, false
	}
	if m.socketOf != nil && m.socketOf[thief] != m.socketOf[victim] {
		return m.stealRemote, true
	}
	return m.stealLocal, false
}

// SocketSpan returns the half-open processor range [lo, hi) sharing p's
// socket; on a flat topology that is [0, P).
func (m *Machine) SocketSpan(p int) (lo, hi int) {
	return m.Topology.SocketSpan(p, m.P)
}

// SharesBlock reports whether processor p currently holds the block
// containing a — the directory's sharer bit for p. Steal policies use it as
// the affinity signal: a sharer of a task's blocks can run the task without
// re-fetching them.
func (m *Machine) SharesBlock(p int, a mem.Addr) bool {
	r := m.dir.peek(m.Mem.Block(a))
	return r.pg != nil && r.sharerHas(p)
}

// BlockOwner returns the processor that last fetched or wrote the block
// containing a, or -1 when untracked (flat topology) or never touched.
func (m *Machine) BlockOwner(a mem.Addr) int {
	if m.socketOf == nil {
		return -1
	}
	r := m.dir.peek(m.Mem.Block(a))
	if r.pg == nil {
		return -1
	}
	return int(r.pg.owner[r.i])
}

// PlaceRange records processor p as the owner of every block overlapping
// the n words at a, without touching caches, sharer bits or counters. It
// models NUMA first-touch placement: a freshly allocated range whose backing
// blocks are bound to the placer's socket, so later fetches by socket peers
// are priced locally instead of inheriting provenance from whichever
// processor initialized neighbouring data. No-op on a flat topology (no
// provenance is tracked there). Placement is untimed bookkeeping — the
// range's contents still need timed accesses like any other data.
func (m *Machine) PlaceRange(p int, a mem.Addr, n int) {
	if m.socketOf == nil || n <= 0 {
		return
	}
	first := m.Mem.Block(a)
	last := m.Mem.Block(a + mem.Addr(n-1))
	for b := first; b <= last; b++ {
		r := m.dir.entry(b)
		r.pg.owner[r.i] = int16(p)
	}
}

// BlockTransfers returns the total number of block fetches (Definition 4.1's
// moves) and the maximum over any single block. The per-block maximum is the
// quantity Lemmas 4.3/4.4 bound by O(min{B, ht}) resp. Y(|τ|, B).
func (m *Machine) BlockTransfers() (total int64, maxPerBlock int64) {
	m.dir.forEachTransferred(func(_ mem.BlockID, n int64) {
		total += n
		if n > maxPerBlock {
			maxPerBlock = n
		}
	})
	return total, maxPerBlock
}

// MaxWriteCount returns the largest per-variable write count observed, or -1
// if write tracking is off. Limited-access algorithms (Property 4.1) must
// keep this O(1). A "variable" is an address between two RetireRange calls:
// execution-stack reuse deliberately re-assigns addresses to new variables
// (the behaviour Lemma 4.4 analyzes), so stack allocators retire old counts.
func (m *Machine) MaxWriteCount() int64 {
	if m.writeCounts == nil {
		return -1
	}
	mx := m.retiredWriteMax
	for _, n := range m.writeCounts {
		if n > mx {
			mx = n
		}
	}
	return mx
}

// RetireRange marks the variables stored at [a, a+n) dead: their write
// counts are folded into the retired maximum and reset, so a subsequent
// reuse of the addresses counts as fresh variables. No-op unless
// TrackWrites.
func (m *Machine) RetireRange(a mem.Addr, n int) {
	if m.writeCounts == nil {
		return
	}
	for i := 0; i < n; i++ {
		ad := a + mem.Addr(i)
		if cnt, ok := m.writeCounts[ad]; ok {
			if cnt > m.retiredWriteMax {
				m.retiredWriteMax = cnt
			}
			delete(m.writeCounts, ad)
		}
	}
}

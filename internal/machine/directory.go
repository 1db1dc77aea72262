package machine

import "rwsfs/internal/mem"

// The block directory is the machine's per-block coherence record and its
// only block table. For each block it holds:
//
//   - a node column per processor: the block's node in that processor's
//     cache.Cache recency list, 0 when the block is not resident there;
//   - a sharer bitset: bit p set ⟺ p's node is nonzero, set and cleared by
//     the same code that sets and clears the node, so a write's
//     invalidation walks only the actual sharers;
//   - a lost bitset: bit p set ⟺ processor p's copy was invalidated by a
//     remote write and not since re-fetched — the pending block misses;
//   - busyUntil: the tick until which the block's fetch channel is occupied
//     (FIFO arbitration serialization);
//   - transfers: how many times the block was fetched into some cache,
//     Definition 4.1's per-block move count.
//
// Block IDs come from mem.Allocator, a bump allocator, so they are dense
// from zero: the directory is a paged dense array (no hashing), with pages
// materialized lazily on first touch. All steady-state operations are
// allocation-free.
const dirPageShift = 8

const dirPageLen = 1 << dirPageShift

// dirPage holds the records of dirPageLen consecutive blocks. The two
// bitsets are stored flat: entry i's words are bits[i*stride : i*stride+w]
// (sharers) and bits[i*stride+w : i*stride+2w] (lost), with stride = 2w.
// owner is the block's provenance — the processor that last fetched or
// wrote it, -1 for none — and is materialized only on non-flat topologies,
// where the machine consults it to price cross-socket transfers.
type dirPage struct {
	busyUntil []Tick
	transfers []int64
	bits      []uint64
	owner     []int16
	// nodes has one entry per bitset bit (64·w); nodes[p] is processor p's
	// node column, nil until p first caches one of the page's blocks this
	// generation.
	nodes []*nodeCol
	// gen is the directory generation this page's contents belong to. Reset
	// invalidates every page by bumping the directory generation; a stale
	// page is re-zeroed lazily when next touched and reads as absent until
	// then, so resetting is O(1) instead of O(materialized arena).
	gen uint32
}

// nodeCol maps one page's blocks to their nodes in one processor's cache.
type nodeCol [dirPageLen]int32

// dirArenaPages sets how many pages' backing storage one arena chunk holds:
// page materialization costs 1/dirArenaPages-th of an allocation per slice
// instead of one. Kept small so a run's last chunk wastes little zeroed
// memory — allocation *bytes* drive GC frequency as much as counts.
const dirArenaPages = 4

// directory is the paged per-block coherence directory.
type directory struct {
	w          int // uint64 words per bitset: ceil(P/64)
	trackOwner bool
	gen        uint32
	pages      []*dirPage

	// freeCols holds the node columns of revalidated pages. A column is
	// zeroed when handed out again, not when freed, so a revalidation costs
	// no more than the columns the new run uses.
	freeCols []*nodeCol

	// Arena chunks that page and column materialization carve from.
	pageSlab   []dirPage
	tickArena  []Tick
	cntArena   []int64
	bitsArena  []uint64
	ownerArena []int16
	nodesArena []*nodeCol
	colArena   []nodeCol
}

// reset prepares the directory, empty or used, for a run on p processors.
// When the bitset width is unchanged the materialized pages are kept and
// invalidated by the generation bump (revalidated lazily, see dirPage.gen);
// a width change makes the flat bits layout incompatible, so the pages are
// dropped and rebuilt on demand (leftover arena chunks are stride-free),
// and only their node columns are kept, on the free list.
func (d *directory) reset(p int, trackOwner bool) {
	if w := (p + 63) / 64; w != d.w {
		d.w = w
		for _, page := range d.pages {
			if page != nil {
				d.freeNodes(page)
			}
		}
		d.pages = nil
	}
	d.trackOwner = trackOwner
	d.gen++
	if d.gen == 0 {
		// The generation wrapped: mark every page stale by hand, since a
		// stale page may carry any earlier gen, and restart at 1.
		for _, page := range d.pages {
			if page != nil {
				page.gen = 0
			}
		}
		d.gen = 1
	}
}

// revalidate re-zeroes a page left over from before the last reset, making
// it current, and returns its node columns to the free list. Owner storage
// is materialized here if owner tracking turned on since the page was built.
func (d *directory) revalidate(page *dirPage) {
	clear(page.busyUntil)
	clear(page.transfers)
	clear(page.bits)
	d.freeNodes(page)
	if d.trackOwner {
		if page.owner == nil {
			page.owner = d.newOwner()
		}
		for i := range page.owner {
			page.owner[i] = -1
		}
	}
	page.gen = d.gen
}

// freeNodes moves page's node columns to the free list.
func (d *directory) freeNodes(page *dirPage) {
	for p, col := range page.nodes {
		if col != nil {
			d.freeCols = append(d.freeCols, col)
			page.nodes[p] = nil
		}
	}
}

// newOwner carves one page's owner array from its arena.
func (d *directory) newOwner() []int16 {
	if len(d.ownerArena) < dirPageLen {
		d.ownerArena = make([]int16, dirArenaPages*dirPageLen)
	}
	owner := d.ownerArena[:dirPageLen:dirPageLen]
	d.ownerArena = d.ownerArena[dirPageLen:]
	return owner
}

// newPage carves one zeroed page from the arenas.
func (d *directory) newPage() *dirPage {
	if len(d.pageSlab) == 0 {
		d.pageSlab = make([]dirPage, dirArenaPages)
	}
	page := &d.pageSlab[0]
	d.pageSlab = d.pageSlab[1:]
	if len(d.tickArena) < dirPageLen {
		d.tickArena = make([]Tick, dirArenaPages*dirPageLen)
	}
	page.busyUntil, d.tickArena = d.tickArena[:dirPageLen:dirPageLen], d.tickArena[dirPageLen:]
	if len(d.cntArena) < dirPageLen {
		d.cntArena = make([]int64, dirArenaPages*dirPageLen)
	}
	page.transfers, d.cntArena = d.cntArena[:dirPageLen:dirPageLen], d.cntArena[dirPageLen:]
	bitsLen := dirPageLen * 2 * d.w
	if len(d.bitsArena) < bitsLen {
		d.bitsArena = make([]uint64, dirArenaPages*bitsLen)
	}
	page.bits, d.bitsArena = d.bitsArena[:bitsLen:bitsLen], d.bitsArena[bitsLen:]
	nodesLen := 64 * d.w
	if len(d.nodesArena) < nodesLen {
		d.nodesArena = make([]*nodeCol, dirArenaPages*nodesLen)
	}
	page.nodes, d.nodesArena = d.nodesArena[:nodesLen:nodesLen], d.nodesArena[nodesLen:]
	if d.trackOwner {
		page.owner = d.newOwner()
		for i := range page.owner {
			page.owner[i] = -1
		}
	}
	page.gen = d.gen
	return page
}

// newCol returns a zeroed node column, from the free list when it has one.
func (d *directory) newCol() *nodeCol {
	if n := len(d.freeCols); n > 0 {
		col := d.freeCols[n-1]
		d.freeCols = d.freeCols[:n-1]
		clear(col[:])
		return col
	}
	if len(d.colArena) == 0 {
		d.colArena = make([]nodeCol, dirArenaPages)
	}
	col := &d.colArena[0]
	d.colArena = d.colArena[1:]
	return col
}

// dirRef is a resolved handle on one block's record.
type dirRef struct {
	pg *dirPage
	i  int // entry index within the page
	w  int
}

// entry resolves bid, materializing its page.
func (d *directory) entry(bid mem.BlockID) dirRef {
	pg := uint64(bid) >> dirPageShift
	if pg >= uint64(len(d.pages)) {
		grown := make([]*dirPage, pg+1)
		copy(grown, d.pages)
		d.pages = grown
	}
	page := d.pages[pg]
	if page == nil {
		page = d.newPage()
		d.pages[pg] = page
	} else if page.gen != d.gen {
		d.revalidate(page)
	}
	return dirRef{pg: page, i: int(uint64(bid) & (dirPageLen - 1)), w: d.w}
}

// peek resolves bid without materializing; pg is nil if the block was never
// recorded since the last reset (stale-generation pages read as absent).
func (d *directory) peek(bid mem.BlockID) dirRef {
	if pg := uint64(bid) >> dirPageShift; pg < uint64(len(d.pages)) {
		if page := d.pages[pg]; page != nil && page.gen == d.gen {
			return dirRef{pg: page, i: int(uint64(bid) & (dirPageLen - 1)), w: d.w}
		}
	}
	return dirRef{}
}

func (r dirRef) sharers() []uint64 { return r.pg.bits[r.i*2*r.w : r.i*2*r.w+r.w : r.i*2*r.w+r.w] }
func (r dirRef) lost() []uint64    { return r.pg.bits[r.i*2*r.w+r.w : (r.i+1)*2*r.w] }

func (r dirRef) lostHas(p int) bool { return r.lost()[p>>6]&(1<<(uint(p)&63)) != 0 }
func (r dirRef) clearLost(p int)    { r.lost()[p>>6] &^= 1 << (uint(p) & 63) }

func (r dirRef) sharerHas(p int) bool { return r.sharers()[p>>6]&(1<<(uint(p)&63)) != 0 }

// node returns the block's node in processor p's cache, 0 if not resident.
func (r dirRef) node(p int) int32 {
	if col := r.pg.nodes[p]; col != nil {
		return col[r.i]
	}
	return 0
}

// admit records the block as resident in p's cache at node n.
func (d *directory) admit(r dirRef, p int, n int32) {
	col := r.pg.nodes[p]
	if col == nil {
		col = d.newCol()
		r.pg.nodes[p] = col
	}
	col[r.i] = n
	r.sharers()[p>>6] |= 1 << (uint(p) & 63)
}

// evict records that the block left p's cache by replacement: no lost
// marker, so p's next access to it is a plain cache miss.
func (r dirRef) evict(p int) {
	r.pg.nodes[p][r.i] = 0
	r.sharers()[p>>6] &^= 1 << (uint(p) & 63)
}

// forEachTransferred calls fn(bid, n) for every block with a nonzero
// transfer count this run, in increasing block order (stale-generation
// pages hold a previous run's counts and are skipped).
func (d *directory) forEachTransferred(fn func(bid mem.BlockID, n int64)) {
	for pgi, page := range d.pages {
		if page == nil || page.gen != d.gen {
			continue
		}
		base := mem.BlockID(pgi << dirPageShift)
		for i, n := range page.transfers {
			if n != 0 {
				fn(base+mem.BlockID(i), n)
			}
		}
	}
}

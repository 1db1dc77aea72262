// Package conncomp implements parallel connected components, the paper's
// Type-4 example (Section 7): an algorithm whose outer loop iterates a
// Type-3-style primitive O(log n) times.
//
// The paper's algorithm [6] iterates list ranking; as with list ranking we
// substitute a standard deterministic equivalent with the same iterated-BP
// structure: min-label propagation with pointer
// jumping. Each round is a sequence of BP computations over vertices and
// CSR edge ranges with Regular Pattern writes into fresh per-round buffers:
//
//  1. gather: m[v] = min(label[v], min over neighbours u of label[u]);
//  2. jump (twice): m[v] = m[m[v]] — labels are vertex ids, so label chains
//     contract geometrically;
//  3. an OR-reduction detects quiescence.
//
// Labels converge to the minimum vertex id of each component.
package conncomp

import (
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
	"rwsfs/internal/rws"
)

// Graph is a host-side undirected graph in CSR form: the neighbours of v are
// Adj[Off[v]:Off[v+1]].
type Graph struct {
	N   int
	Off []int32 // len N+1
	Adj []int32 // len 2*edges
}

// NewGraph builds a CSR graph from an edge list on n vertices.
func NewGraph(n int, edges [][2]int) Graph {
	deg := make([]int32, n+1)
	for _, e := range edges {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]int32, deg[n])
	fill := make([]int32, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		adj[deg[u]+fill[u]] = int32(v)
		fill[u]++
		adj[deg[v]+fill[v]] = int32(u)
		fill[v]++
	}
	return Graph{N: n, Off: deg, Adj: adj}
}

// Layout is the simulated-memory image of a Graph plus its label output.
type Layout struct {
	Off   mem.Addr // N+1 words
	Adj   mem.Addr // len(Adj) words
	Label mem.Addr // N words: output
	G     Graph
}

// Place copies g into simulated memory (untimed input setup) and allocates
// the label output array.
func Place(al *mem.Allocator, mm *mem.Memory, g Graph) Layout {
	lay := Layout{
		Off:   al.Alloc(g.N + 1),
		Label: al.Alloc(g.N),
		G:     g,
	}
	adjWords := len(g.Adj)
	if adjWords == 0 {
		adjWords = 1
	}
	lay.Adj = al.Alloc(adjWords)
	for i, v := range g.Off {
		mm.StoreInt(lay.Off+mem.Addr(i), int64(v))
	}
	for i, v := range g.Adj {
		mm.StoreInt(lay.Adj+mem.Addr(i), int64(v))
	}
	return lay
}

// StackWords estimates Build's stack demand for an n-vertex graph.
func StackWords(n int) int { return 6*n + 4096 }

const chunk = 32

// Build returns the task labelling each vertex of lay's graph with the
// minimum vertex id in its component, written to lay.Label.
func Build(lay Layout) func(*rws.Ctx) {
	n := lay.G.N
	if n <= 0 {
		panic("conncomp: empty graph")
	}
	// Quiescence (no label decreased) is the real exit; the cap only guards
	// against bugs. Each changing round strictly decreases the label sum, so
	// termination is guaranteed; in practice rounds ≈ log n.
	maxRounds := 2*n + 16
	return func(c *rws.Ctx) {
		curSeg := c.Alloc(n)
		cur := curSeg.Base
		initLabels(c, cur, n)

		for round := 0; round < maxRounds; round++ {
			newSeg := c.Alloc(n)
			chgWords := (n + chunk - 1) / chunk
			chgSeg := c.Alloc(chgWords)

			gather(c, lay, cur, newSeg.Base, chgSeg.Base, n)
			jump(c, newSeg.Base, n)
			jump(c, newSeg.Base, n)

			changed := orReduce(c, chgSeg.Base, chgWords)
			c.Free(chgSeg)
			c.Free(curSeg)
			curSeg = newSeg
			cur = curSeg.Base
			if !changed {
				break
			}
		}

		publish(c, cur, lay.Label, n)
		c.Free(curSeg)
	}
}

func log2(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	return l
}

// initLabels sets label[v] = v.
func initLabels(c *rws.Ctx, cur mem.Addr, n int) {
	leaves := (n + chunk - 1) / chunk
	c.ForkN(leaves, func(l int, c *rws.Ctx) {
		lo, hi := bounds(l, n)
		c.Node()
		c.Work(machine.Tick(hi - lo))
		mm := c.Mem()
		for v := lo; v < hi; v++ {
			mm.StoreInt(cur+mem.Addr(v), int64(v))
		}
		c.WriteRange(cur+mem.Addr(lo), hi-lo)
	})
}

// gather computes next[v] = min(label[v], min_{u ~ v} label[u]) and sets the
// per-chunk changed flag when any label in the chunk decreased.
func gather(c *rws.Ctx, lay Layout, cur, next, chg mem.Addr, n int) {
	leaves := (n + chunk - 1) / chunk
	c.ForkN(leaves, func(l int, c *rws.Ctx) {
		lo, hi := bounds(l, n)
		c.Node()
		c.ReadRange(cur+mem.Addr(lo), hi-lo)
		c.ReadRange(lay.Off+mem.Addr(lo), hi-lo+1)
		mm := c.Mem()
		var changed int64
		for v := lo; v < hi; v++ {
			best := mm.LoadInt(cur + mem.Addr(v))
			off0 := mm.LoadInt(lay.Off + mem.Addr(v))
			off1 := mm.LoadInt(lay.Off + mem.Addr(v+1))
			if off1 > off0 {
				c.ReadRange(lay.Adj+mem.Addr(off0), int(off1-off0))
				c.Work(machine.Tick(off1 - off0))
			}
			for e := off0; e < off1; e++ {
				u := mm.LoadInt(lay.Adj + mem.Addr(e))
				lu := c.LoadInt(cur + mem.Addr(u)) // random access: timed
				if lu < best {
					best = lu
				}
			}
			if best < mm.LoadInt(cur+mem.Addr(v)) {
				changed = 1
			}
			mm.StoreInt(next+mem.Addr(v), best)
		}
		c.Work(machine.Tick(hi - lo))
		mm.StoreInt(chg+mem.Addr(l), changed)
		c.WriteRange(next+mem.Addr(lo), hi-lo)
		c.Write(chg + mem.Addr(l))
	})
}

// jump performs one pointer-jumping pass in place: label[v] = label[label[v]].
// In-place is safe for min-labels: values only decrease toward the component
// minimum, and monotone decreases preserve correctness of the fixed point.
func jump(c *rws.Ctx, lab mem.Addr, n int) {
	leaves := (n + chunk - 1) / chunk
	c.ForkN(leaves, func(l int, c *rws.Ctx) {
		lo, hi := bounds(l, n)
		c.Node()
		c.ReadRange(lab+mem.Addr(lo), hi-lo)
		c.Work(machine.Tick(hi - lo))
		mm := c.Mem()
		for v := lo; v < hi; v++ {
			lv := mm.LoadInt(lab + mem.Addr(v))
			llv := c.LoadInt(lab + mem.Addr(lv))
			if llv < lv {
				mm.StoreInt(lab+mem.Addr(v), llv)
			}
		}
		c.WriteRange(lab+mem.Addr(lo), hi-lo)
	})
}

// orReduce returns whether any of the k flag words is nonzero, via a BP
// up-pass tree read by the calling strand.
func orReduce(c *rws.Ctx, flags mem.Addr, k int) bool {
	// Tree reduction into a stack cell per node would be overkill for the
	// small flag array; a single streaming leaf per 8 chunks with a final
	// gather keeps it a two-level BP computation.
	groups := (k + 7) / 8
	outSeg := c.Alloc(groups)
	c.ForkN(groups, func(g int, c *rws.Ctx) {
		lo := g * 8
		hi := lo + 8
		if hi > k {
			hi = k
		}
		c.Node()
		c.ReadRange(flags+mem.Addr(lo), hi-lo)
		c.Work(machine.Tick(hi - lo))
		mm := c.Mem()
		var any int64
		for i := lo; i < hi; i++ {
			if mm.LoadInt(flags+mem.Addr(i)) != 0 {
				any = 1
			}
		}
		mm.StoreInt(outSeg.Base+mem.Addr(g), any)
		c.Write(outSeg.Base + mem.Addr(g))
	})
	changed := false
	for g := 0; g < groups; g++ {
		if c.LoadInt(outSeg.Base+mem.Addr(g)) != 0 {
			changed = true
		}
	}
	c.Free(outSeg)
	return changed
}

// publish copies labels to the output array.
func publish(c *rws.Ctx, src, dst mem.Addr, n int) {
	leaves := (n + chunk - 1) / chunk
	c.ForkN(leaves, func(l int, c *rws.Ctx) {
		lo, hi := bounds(l, n)
		c.Node()
		c.ReadRange(src+mem.Addr(lo), hi-lo)
		c.Work(machine.Tick(hi - lo))
		mm := c.Mem()
		for i := lo; i < hi; i++ {
			mm.StoreInt(dst+mem.Addr(i), mm.LoadInt(src+mem.Addr(i)))
		}
		c.WriteRange(dst+mem.Addr(lo), hi-lo)
	})
}

func bounds(l, n int) (int, int) {
	lo := l * chunk
	hi := lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Sequential labels components with their minimum vertex id via union-find:
// the oracle.
func Sequential(g Graph) []int64 {
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < g.N; v++ {
		for _, u := range g.Adj[g.Off[v]:g.Off[v+1]] {
			a, b := find(int32(v)), find(u)
			if a != b {
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
		}
	}
	out := make([]int64, g.N)
	for v := range out {
		r := find(int32(v))
		// Roots are not necessarily minima under naive union; normalize by
		// computing the min id per root.
		out[v] = int64(r)
	}
	minOf := map[int64]int64{}
	for v, r := range out {
		if m, ok := minOf[r]; !ok || int64(v) < m {
			minOf[r] = int64(v)
		}
	}
	for v, r := range out {
		out[v] = minOf[r]
	}
	return out
}

// Package listrank implements parallel list ranking, the paper's Type-3
// example (Section 7): an algorithm that iterates a lower-type parallel
// primitive O(log n) times, multiplying the Type-2 bounds by O(log n).
//
// The paper's list ranking [6] iterates a sorting algorithm; [6] was never
// published with code and its reduction is orthogonal to the scheduling
// analysis, so this package substitutes the classic Wyllie pointer-jumping
// algorithm: ⌈log₂ n⌉ rounds, each of which is a
// BP computation over the n list nodes with Regular Pattern writes into
// fresh per-round arrays (so Property 4.1, limited access, holds per round
// variable exactly as in the paper's iterated structure).
//
// Input: a successor array next[i] ∈ [0, n] with n meaning "nil" (tail).
// Output: rank[i] = number of links from i to the tail (tail has rank 0).
package listrank

import (
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
	"rwsfs/internal/rws"
)

// Build returns the task ranking the n-node list whose successor array is at
// next (n int64 words), writing ranks to rank (n words). Scratch double
// buffers are allocated per round on the calling task's stack.
func Build(next, rank mem.Addr, n int) func(*rws.Ctx) {
	if n <= 0 {
		panic("listrank: n must be positive")
	}
	return func(c *rws.Ctx) {
		// Working copies: the algorithm mutates successor pointers.
		curNSeg := c.Alloc(n)
		curRSeg := c.Alloc(n)
		curN, curR := curNSeg.Base, curRSeg.Base

		// Initialize: rank = 0 for the tail, 1 otherwise; copy successors.
		initRound(c, next, curN, curR, n)

		rounds := 0
		for (1 << rounds) < n {
			rounds++
		}
		for r := 0; r < rounds; r++ {
			newNSeg := c.Alloc(n)
			newRSeg := c.Alloc(n)
			jumpRound(c, curN, curR, newNSeg.Base, newRSeg.Base, n)
			// Free the previous round's buffers; the stack reuses their
			// space for the next round (the reuse Lemma 4.4 analyzes).
			c.Free(curNSeg)
			c.Free(curRSeg)
			curNSeg, curRSeg = newNSeg, newRSeg
			curN, curR = curNSeg.Base, curRSeg.Base
		}

		// Publish ranks to the output array.
		publish(c, curR, rank, n)
		c.Free(curNSeg)
		c.Free(curRSeg)
	}
}

// StackWords estimates Build's stack demand: four n-word buffers live at the
// round boundary plus fork bookkeeping.
func StackWords(n int) int { return 4*n + 2048 }

const chunk = 32

// initRound sets curR[i] = 0 if next[i] == n (tail) else 1, curN = next.
func initRound(c *rws.Ctx, next, curN, curR mem.Addr, n int) {
	leaves := (n + chunk - 1) / chunk
	c.ForkN(leaves, func(l int, c *rws.Ctx) {
		lo, hi := bounds(l, n)
		c.Node()
		c.ReadRange(next+mem.Addr(lo), hi-lo)
		c.Work(machine.Tick(hi - lo))
		mm := c.Mem()
		for i := lo; i < hi; i++ {
			nx := mm.LoadInt(next + mem.Addr(i))
			mm.StoreInt(curN+mem.Addr(i), nx)
			if nx == int64(n) {
				mm.StoreInt(curR+mem.Addr(i), 0)
			} else {
				mm.StoreInt(curR+mem.Addr(i), 1)
			}
		}
		c.WriteRange(curN+mem.Addr(lo), hi-lo)
		c.WriteRange(curR+mem.Addr(lo), hi-lo)
	})
}

// jumpRound performs one pointer-jumping round: for every i,
// newR[i] = curR[i] + curR[curN[i]] and newN[i] = curN[curN[i]] (identity
// for nil successors). The reads of curR[curN[i]] are the random accesses
// that make each round's cache cost Θ(n) rather than Θ(n/B).
func jumpRound(c *rws.Ctx, curN, curR, newN, newR mem.Addr, n int) {
	leaves := (n + chunk - 1) / chunk
	c.ForkN(leaves, func(l int, c *rws.Ctx) {
		lo, hi := bounds(l, n)
		c.Node()
		c.ReadRange(curN+mem.Addr(lo), hi-lo)
		c.ReadRange(curR+mem.Addr(lo), hi-lo)
		c.Work(machine.Tick(hi - lo))
		mm := c.Mem()
		for i := lo; i < hi; i++ {
			nx := mm.LoadInt(curN + mem.Addr(i))
			rk := mm.LoadInt(curR + mem.Addr(i))
			if nx != int64(n) {
				rk += c.LoadInt(curR + mem.Addr(nx))
				nx = c.LoadInt(curN + mem.Addr(nx))
			}
			mm.StoreInt(newN+mem.Addr(i), nx)
			mm.StoreInt(newR+mem.Addr(i), rk)
		}
		c.WriteRange(newN+mem.Addr(lo), hi-lo)
		c.WriteRange(newR+mem.Addr(lo), hi-lo)
	})
}

// publish copies the final ranks to the output array.
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

// Sequential is the oracle: ranks by walking from each node (O(n) total via
// memoized traversal order).
func Sequential(next []int64) []int64 {
	n := len(next)
	rank := make([]int64, n)
	done := make([]bool, n)
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		// Walk to a done node or the tail, stacking the path.
		var path []int
		j := i
		for !done[j] && next[j] != int64(n) {
			path = append(path, j)
			j = int(next[j])
		}
		if !done[j] { // j is the tail
			rank[j] = 0
			done[j] = true
		}
		for k := len(path) - 1; k >= 0; k-- {
			rank[path[k]] = rank[int(next[path[k]])] + 1
			done[path[k]] = true
		}
	}
	return rank
}

// RandomList returns a successor array describing a single n-node list in
// random order (deterministic in seed), using n as the nil successor.
func RandomList(n int, seed int64) []int64 {
	perm := randPerm(n, seed)
	next := make([]int64, n)
	for k := 0; k < n-1; k++ {
		next[perm[k]] = int64(perm[k+1])
	}
	next[perm[n-1]] = int64(n)
	return next
}

func randPerm(n int, seed int64) []int {
	// Small deterministic Fisher-Yates over an LCG to avoid importing
	// math/rand here.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := n - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

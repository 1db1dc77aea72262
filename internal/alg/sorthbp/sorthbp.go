// Package sorthbp provides the HBP sorting algorithms used for
// Theorem 7.1(iii)'s experiments.
//
// The paper's sort is SPMS [7] (Cole-Ramachandran, "Resource oblivious
// sorting on multicores"), a Type-2 HBP algorithm whose recursion solves
// collections of Θ(√n)-size subproblems. SPMS is a full paper of its own;
// this package substitutes two from-scratch sorts that bracket its HBP
// structure:
//
//   - Mergesort: binary HBP mergesort — one collection (c=1) of two parallel
//     half-size recursive sorts joined by a BP parallel merge with Regular
//     Pattern writes. This realizes case (i) of Theorem 6.3.
//   - Columnsort: Leighton's columnsort — four collections of parallel
//     recursive sorts of the s columns (column length r = n/s, s ≈ n^(1/3))
//     joined by BP permutation passes. Deterministically balanced like SPMS,
//     with polynomially shrinking recursive subproblems.
//
// Both sort int64 keys ascending, in place, with all scratch space on
// execution stacks (exactly-linear-space bounded, Definition 4.6).
package sorthbp

import (
	"fmt"
	"slices"
	"sync"

	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
	"rwsfs/internal/rws"
)

// Algorithm selects the sort.
type Algorithm int

const (
	Mergesort Algorithm = iota
	Columnsort
)

func (a Algorithm) String() string {
	switch a {
	case Mergesort:
		return "mergesort"
	case Columnsort:
		return "columnsort"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Base is the size at which recursion switches to a direct kernel sort.
const Base = 32

// Build returns a task sorting the n int64 words at arr ascending.
func Build(alg Algorithm, arr mem.Addr, n int) func(*rws.Ctx) {
	switch alg {
	case Mergesort:
		return func(c *rws.Ctx) {
			if n <= 1 {
				c.Node()
				return
			}
			bufSeg := c.Alloc(n)
			msort(c, arr, bufSeg.Base, n, false)
			c.Free(bufSeg)
		}
	case Columnsort:
		return func(c *rws.Ctx) { colsort(c, arr, n) }
	}
	panic("sorthbp: unknown algorithm")
}

// StackWords estimates the root-task stack demand for sorting n words.
func StackWords(alg Algorithm, n int) int {
	switch alg {
	case Mergesort:
		return n + 64*log2ceil(n+2) + 1024
	case Columnsort:
		// Ping-pong buffer (n) + shifted matrix (n + r) per level; levels
		// shrink as n^(2/3), so doubling the top covers the series.
		return 5*n + 4096
	}
	panic("sorthbp: unknown algorithm")
}

func log2ceil(x int) int {
	l := 0
	for (1 << l) < x {
		l++
	}
	return l
}

// sortScratch pools the kernel's host staging buffer: the sweeps run many
// thousands of base-case sorts, and the per-call slice was pure GC churn. A
// buffer is only held between timed requests, never across one.
var sortScratch = sync.Pool{New: func() any { return new([]int64) }}

// kernelSort reads [arr, arr+n), sorts on the host, writes back, charging
// n·ceil(log2 n) work: the base case of both recursions.
func kernelSort(c *rws.Ctx, arr mem.Addr, n int) {
	if n <= 1 {
		c.Node()
		return
	}
	c.Node()
	c.ReadRange(arr, n)
	c.Work(machine.Tick(n * log2ceil(n)))
	mm := c.Mem()
	buf := sortScratch.Get().(*[]int64)
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	vals := (*buf)[:n]
	for i := range vals {
		vals[i] = mm.LoadInt(arr + mem.Addr(i))
	}
	slices.Sort(vals)
	for i, v := range vals {
		mm.StoreInt(arr+mem.Addr(i), v)
	}
	sortScratch.Put(buf)
	c.WriteRange(arr, n)
}

// Sequential is the oracle.
func Sequential(in []int64) []int64 {
	out := append([]int64(nil), in...)
	slices.Sort(out)
	return out
}

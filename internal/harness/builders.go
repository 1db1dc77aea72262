package harness

import (
	"fmt"

	"rwsfs/internal/alg/conncomp"
	"rwsfs/internal/alg/convert"
	"rwsfs/internal/alg/fft"
	"rwsfs/internal/alg/listrank"
	"rwsfs/internal/alg/matmul"
	"rwsfs/internal/alg/prefix"
	"rwsfs/internal/alg/sorthbp"
	"rwsfs/internal/alg/transpose"
	"rwsfs/internal/layout"
	"rwsfs/internal/machine"
	"rwsfs/internal/matrix"
	"rwsfs/internal/mem"
	"rwsfs/internal/rws"
)

// Maker builds a configured engine plus the root task for one algorithm
// instance. Engines come from the supplied Runner pool — a pooled engine is
// Reset to cfg, which is bit-for-bit equivalent to fresh construction — and
// each call initializes fresh simulated inputs with data deterministic in
// the instance parameters (not the scheduling seed), so different seeds race
// over identical data.
type Maker func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx))

// Kernel is a Maker with a content key: the kernel name plus its instance
// parameters, which fix the kernel's op stream at each block size and root
// stack size. TraceCache.Run replays a kernel with a key from its recorded
// trace; an empty key keeps a kernel on the coroutine engine.
type Kernel struct {
	Key  string
	Make Maker
}

func mmKernel(v matmul.Variant, n, base int) Kernel {
	return Kernel{fmt.Sprintf("mm/%v/n=%d/base=%d", v, n, base), MMMaker(v, n, base)}
}

func prefixKernel(n int, pcfg prefix.Config) Kernel {
	return Kernel{fmt.Sprintf("prefix/n=%d/%+v", n, pcfg), PrefixMaker(n, pcfg)}
}

func transposeKernel(n int) Kernel {
	return Kernel{fmt.Sprintf("transpose/n=%d", n), TransposeMaker(n)}
}

func rmToBIKernel(n int) Kernel { return Kernel{fmt.Sprintf("rm2bi/n=%d", n), RMToBIMaker(n)} }

func biToRMKernel(n int, natural bool) Kernel {
	return Kernel{fmt.Sprintf("bi2rm/n=%d/natural=%t", n, natural), BIToRMMaker(n, natural)}
}

func sortKernel(alg sorthbp.Algorithm, n int) Kernel {
	return Kernel{fmt.Sprintf("sort/%v/n=%d", alg, n), SortMaker(alg, n)}
}

func fftKernel(n int) Kernel { return Kernel{fmt.Sprintf("fft/n=%d", n), FFTMaker(n)} }

func listRankKernel(n int) Kernel {
	return Kernel{fmt.Sprintf("listrank/n=%d", n), ListRankMaker(n)}
}

// connCompKernel has no key: its in-place jump, label[v] = label[label[v]]
// across leaves, is a determinacy race, so which addresses a leaf reads
// depends on the schedule and a recording of it would not replay.
func connCompKernel(n, edges int) Kernel { return Kernel{"", ConnCompMaker(n, edges)} }

func placementKernel(leaves int, place bool) Kernel {
	return Kernel{fmt.Sprintf("placement/leaves=%d/place=%t", leaves, place), placementMaker(leaves, place)}
}

// MMMaker multiplies two deterministic n x n matrices under the variant.
func MMMaker(v matmul.Variant, n, base int) Maker {
	acfg := matmul.Config{Variant: v, Base: base}
	a := matrix.Random(n, 1001)
	b := matrix.Random(n, 2002)
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		if cfg.RootStackWords < acfg.StackWords(n) {
			cfg.RootStackWords = acfg.StackWords(n)
		}
		e := pool.Engine(cfg)
		mm := e.Machine()
		am := matrix.New(mm.Alloc, n, layout.BitInterleaved)
		bm := matrix.New(mm.Alloc, n, layout.BitInterleaved)
		om := matrix.New(mm.Alloc, n, layout.BitInterleaved)
		am.Fill(mm.Mem, a)
		bm.Fill(mm.Mem, b)
		if v == matmul.InPlaceDepthN {
			om.Zero(mm.Mem)
		}
		return e, matmul.Build(acfg, am, bm, om)
	}
}

// PrefixMaker sums n deterministic words.
func PrefixMaker(n int, pcfg prefix.Config) Maker {
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		if w := prefix.StackWords(pcfg, n) + (1 << 12); cfg.RootStackWords < w {
			cfg.RootStackWords = w
		}
		e := pool.Engine(cfg)
		mm := e.Machine()
		in := mm.Alloc.Alloc(n)
		out := mm.Alloc.Alloc(n)
		for i := 0; i < n; i++ {
			mm.Mem.StoreInt(in+mem.Addr(i), int64(i%17-8))
		}
		return e, prefix.Build(pcfg, in, out, n)
	}
}

// TransposeMaker transposes a deterministic BI matrix in place.
func TransposeMaker(n int) Maker {
	vals := matrix.Random(n, 3003)
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		e := pool.Engine(cfg)
		mm := e.Machine()
		a := matrix.New(mm.Alloc, n, layout.BitInterleaved)
		a.Fill(mm.Mem, vals)
		return e, transpose.Build(a)
	}
}

// RMToBIMaker converts a deterministic RM matrix to BI.
func RMToBIMaker(n int) Maker {
	vals := matrix.Random(n, 4004)
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		e := pool.Engine(cfg)
		mm := e.Machine()
		src := matrix.New(mm.Alloc, n, layout.RowMajor)
		dst := matrix.New(mm.Alloc, n, layout.BitInterleaved)
		src.Fill(mm.Mem, vals)
		return e, convert.RMToBI(src, dst)
	}
}

// BIToRMMaker converts BI to RM: the paper's buffered depth-log²n algorithm
// or, when natural is set, the rejected direct tree.
func BIToRMMaker(n int, natural bool) Maker {
	vals := matrix.Random(n, 5005)
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		if w := convert.StackWordsBIToRM(n) + (1 << 12); cfg.RootStackWords < w {
			cfg.RootStackWords = w
		}
		e := pool.Engine(cfg)
		mm := e.Machine()
		src := matrix.New(mm.Alloc, n, layout.BitInterleaved)
		dst := matrix.New(mm.Alloc, n, layout.RowMajor)
		src.Fill(mm.Mem, vals)
		if natural {
			return e, convert.BIToRMNatural(src, dst)
		}
		return e, convert.BIToRM(src, dst)
	}
}

// BIToRMRowGatherMaker converts BI to RM with the reconstructed O(log n)
// row-gather algorithm ([6] via Section 7).
func BIToRMRowGatherMaker(n int) Maker {
	vals := matrix.Random(n, 5005)
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		e := pool.Engine(cfg)
		mm := e.Machine()
		src := matrix.New(mm.Alloc, n, layout.BitInterleaved)
		dst := matrix.New(mm.Alloc, n, layout.RowMajor)
		src.Fill(mm.Mem, vals)
		return e, convert.BIToRMRowGather(src, dst)
	}
}

// SortMaker sorts n deterministic keys.
func SortMaker(alg sorthbp.Algorithm, n int) Maker {
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		if w := sorthbp.StackWords(alg, n) + (1 << 12); cfg.RootStackWords < w {
			cfg.RootStackWords = w
		}
		e := pool.Engine(cfg)
		mm := e.Machine()
		arr := mm.Alloc.Alloc(n)
		for i := 0; i < n; i++ {
			mm.Mem.StoreInt(arr+mem.Addr(i), int64((i*2654435761)%(4*n))-int64(2*n))
		}
		return e, sorthbp.Build(alg, arr, n)
	}
}

// FFTMaker transforms n deterministic complex values.
func FFTMaker(n int) Maker {
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		if w := fft.StackWords(n) + (1 << 12); cfg.RootStackWords < w {
			cfg.RootStackWords = w
		}
		e := pool.Engine(cfg)
		mm := e.Machine()
		arr := mm.Alloc.Alloc(2 * n)
		for i := 0; i < n; i++ {
			mm.Mem.StoreFloat(arr+mem.Addr(2*i), float64(i%13)-6)
			mm.Mem.StoreFloat(arr+mem.Addr(2*i+1), float64(i%7)-3)
		}
		return e, fft.Build(arr, n)
	}
}

// ListRankMaker ranks a deterministic random n-node list.
func ListRankMaker(n int) Maker {
	next := listrank.RandomList(n, 6006)
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		if w := listrank.StackWords(n) + (1 << 12); cfg.RootStackWords < w {
			cfg.RootStackWords = w
		}
		e := pool.Engine(cfg)
		mm := e.Machine()
		nextA := mm.Alloc.Alloc(n)
		rankA := mm.Alloc.Alloc(n)
		for i, v := range next {
			mm.Mem.StoreInt(nextA+mem.Addr(i), v)
		}
		return e, listrank.Build(nextA, rankA, n)
	}
}

// ConnCompMaker labels a deterministic random graph with n vertices and
// about edges edges.
func ConnCompMaker(n, edges int) Maker {
	var el [][2]int
	state := uint64(7007)
	for i := 0; i < edges; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		u := int(state>>33) % n
		state = state*6364136223846793005 + 1442695040888963407
		v := int(state>>33) % n
		if u != v {
			el = append(el, [2]int{u, v})
		}
	}
	g := conncomp.NewGraph(n, el)
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		if w := conncomp.StackWords(n) + (1 << 12); cfg.RootStackWords < w {
			cfg.RootStackWords = w
		}
		e := pool.Engine(cfg)
		mm := e.Machine()
		lay := conncomp.Place(mm.Alloc, mm.Mem, g)
		return e, conncomp.Build(lay)
	}
}

// placementMaker is E21's kernel: the root writes one block per leaf, then
// each leaf writes its block, after binding it to its own socket with
// Ctx.PlaceLocal when place is set.
func placementMaker(leaves int, place bool) Maker {
	return func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		e := pool.Engine(cfg)
		slotWords := cfg.Machine.B
		slots := e.Machine().Alloc.Alloc(leaves * slotWords)
		return e, func(c *rws.Ctx) {
			// The root warms every slot: its processor's socket becomes each
			// block's owner, the pattern PlaceLocal exists to undo.
			c.WriteRange(slots, leaves*slotWords)
			c.ForkN(leaves, func(j int, c *rws.Ctx) {
				slot := slots + mem.Addr(j*slotWords)
				if place {
					c.PlaceLocal(slot, slotWords)
				}
				c.Work(machine.Tick(1 + j%7))
				c.WriteRange(slot, slotWords)
				c.StoreInt(slot, int64(j))
			})
		}
	}
}

package harness

import (
	"fmt"
	"strconv"
	"sync"

	"rwsfs/internal/alg/matmul"
	"rwsfs/internal/alg/prefix"
	"rwsfs/internal/alg/sorthbp"
	"rwsfs/internal/rws"
)

// workload is one registered workload: its Maker at problem size n, and
// its flags.
type workload struct {
	name  string
	mk    func(n int) Maker
	flags uint8
}

const (
	// pow2: n must be a power of two, as for fft and every kernel over a
	// bit-interleaved matrix.
	pow2 = 1 << iota
	// raced: the op stream depends on the schedule, so the workload has no
	// content key (see connCompKernel).
	raced
)

// workloads lists every registered workload in a fixed order; it is the
// single source of truth for the CLI's -alg flag and rwsimd's request
// validation.
var workloads = []workload{
	{"matmul-ip", func(n int) Maker { return MMMaker(matmul.InPlaceDepthN, n, 8) }, pow2},
	{"matmul-la", func(n int) Maker { return MMMaker(matmul.LimitedAccessDepthN, n, 8) }, pow2},
	{"matmul-log", func(n int) Maker { return MMMaker(matmul.DepthLog2, n, 8) }, pow2},
	{"prefix", func(n int) Maker { return PrefixMaker(n, prefix.Config{Chunk: 4}) }, 0},
	{"prefix-padded", func(n int) Maker { return PrefixMaker(n, prefix.Config{Chunk: 4, Padded: true}) }, 0},
	{"transpose", TransposeMaker, pow2},
	{"rm2bi", RMToBIMaker, pow2},
	{"bi2rm", func(n int) Maker { return BIToRMMaker(n, false) }, pow2},
	{"bi2rm-natural", func(n int) Maker { return BIToRMMaker(n, true) }, pow2},
	{"bi2rm-rowgather", BIToRMRowGatherMaker, pow2},
	{"sort-merge", func(n int) Maker { return SortMaker(sorthbp.Mergesort, n) }, 0},
	{"sort-col", func(n int) Maker { return SortMaker(sorthbp.Columnsort, n) }, 0},
	{"fft", FFTMaker, pow2},
	{"listrank", ListRankMaker, 0},
	{"conncomp", func(n int) Maker { return ConnCompMaker(n, 2*n) }, raced},
}

// Workloads returns the registered workload names in a fixed order.
func Workloads() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookup(alg string) (workload, bool) {
	for _, w := range workloads {
		if w.name == alg {
			return w, true
		}
	}
	return workload{}, false
}

// WorkloadMaker resolves a workload name to its Maker at problem size n —
// the registry behind cmd/rwsim's -alg flag, as Workload is behind
// cmd/rwsimd's request "alg" field. The second return is false for an
// unknown name. The Maker captures its deterministic input data at
// resolution time, so one resolved Maker can serve many runs over
// identical inputs. Check n with CheckSize first: a Maker panics at a size
// its workload cannot run.
func WorkloadMaker(alg string, n int) (Maker, bool) {
	w, ok := lookup(alg)
	if !ok {
		return nil, false
	}
	return w.mk(n), true
}

// Workload resolves a workload name to its Kernel at problem size n, for
// TraceCache.Run: its content key, "" for conncomp, whose op stream depends
// on the schedule, and its Maker, resolved at its first call, so a Kernel
// that only replays makes no input data. The second return is false for an
// unknown name; check n with CheckSize first.
func Workload(alg string, n int) (Kernel, bool) {
	w, ok := lookup(alg)
	if !ok {
		return Kernel{}, false
	}
	mk := sync.OnceValue(func() Maker { return w.mk(n) })
	k := Kernel{Make: func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) { return mk()(pool, cfg) }}
	if w.flags&raced == 0 {
		k.Key = w.name + "/n=" + strconv.Itoa(n)
	}
	return k, true
}

// CheckSize reports why the registered workload alg cannot run at problem
// size n, or nil when it can. It builds no inputs.
func CheckSize(alg string, n int) error {
	w, ok := lookup(alg)
	switch {
	case !ok:
		return fmt.Errorf("unknown algorithm %q", alg)
	case n < 1:
		return fmt.Errorf("%s needs n >= 1, got %d", alg, n)
	case w.flags&pow2 != 0 && n&(n-1) != 0:
		return fmt.Errorf("%s needs n a power of two, got %d", alg, n)
	}
	return nil
}

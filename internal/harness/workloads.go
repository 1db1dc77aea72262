package harness

import (
	"fmt"

	"rwsfs/internal/alg/matmul"
	"rwsfs/internal/alg/prefix"
	"rwsfs/internal/alg/sorthbp"
)

// workload is one registered workload: its Maker at problem size n, and
// whether n must be a power of two, as for fft and every kernel over a
// bit-interleaved matrix.
type workload struct {
	name string
	mk   func(n int) Maker
	pow2 bool
}

// workloads lists every registered workload in a fixed order; it is the
// single source of truth for the CLI's -alg flag and rwsimd's request
// validation.
var workloads = []workload{
	{"matmul-ip", func(n int) Maker { return MMMaker(matmul.InPlaceDepthN, n, 8) }, true},
	{"matmul-la", func(n int) Maker { return MMMaker(matmul.LimitedAccessDepthN, n, 8) }, true},
	{"matmul-log", func(n int) Maker { return MMMaker(matmul.DepthLog2, n, 8) }, true},
	{"prefix", func(n int) Maker { return PrefixMaker(n, prefix.Config{Chunk: 4}) }, false},
	{"prefix-padded", func(n int) Maker { return PrefixMaker(n, prefix.Config{Chunk: 4, Padded: true}) }, false},
	{"transpose", TransposeMaker, true},
	{"rm2bi", RMToBIMaker, true},
	{"bi2rm", func(n int) Maker { return BIToRMMaker(n, false) }, true},
	{"bi2rm-natural", func(n int) Maker { return BIToRMMaker(n, true) }, true},
	{"bi2rm-rowgather", BIToRMRowGatherMaker, true},
	{"sort-merge", func(n int) Maker { return SortMaker(sorthbp.Mergesort, n) }, false},
	{"sort-col", func(n int) Maker { return SortMaker(sorthbp.Columnsort, n) }, false},
	{"fft", FFTMaker, true},
	{"listrank", ListRankMaker, false},
	{"conncomp", func(n int) Maker { return ConnCompMaker(n, 2*n) }, false},
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
// the registry behind cmd/rwsim's -alg flag and cmd/rwsimd's request "alg"
// field. The second return is false for an unknown name. The Maker captures
// its deterministic input data at resolution time, so one resolved Maker can
// serve many runs over identical inputs. Check n with CheckSize first: a
// Maker panics at a size its workload cannot run.
func WorkloadMaker(alg string, n int) (Maker, bool) {
	w, ok := lookup(alg)
	if !ok {
		return nil, false
	}
	return w.mk(n), true
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
	case w.pow2 && n&(n-1) != 0:
		return fmt.Errorf("%s needs n a power of two, got %d", alg, n)
	}
	return nil
}

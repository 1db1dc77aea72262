package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rwsfs/internal/alg/prefix"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
	"rwsfs/internal/rws"
)

// replaySizes gives every race-free registered workload a small instance.
var replaySizes = map[string]int{
	"matmul-ip": 32, "matmul-la": 32, "matmul-log": 32,
	"prefix": 256, "prefix-padded": 256,
	"transpose": 32, "rm2bi": 32, "bi2rm": 32, "bi2rm-natural": 32, "bi2rm-rowgather": 32,
	"sort-merge": 256, "sort-col": 256, "fft": 256, "listrank": 256,
}

// randomReplayConfig draws one run configuration at block size b: P from 1
// to 16, any seed, the given policy, a flat, 2-socket or 4-socket machine
// with or without steal pricing, a steal budget, and stack audits and write
// tracking at random.
func randomReplayConfig(rng *rand.Rand, b int, pol rws.StealPolicy) rws.Config {
	cfg := rws.DefaultConfig(1 + rng.Intn(16))
	cfg.Machine.B = b
	cfg.Seed = rng.Int63()
	cfg.Policy = pol
	topo := &cfg.Machine.Topology
	if sockets := []int{0, 2, 4}[rng.Intn(3)]; sockets > 0 && sockets <= cfg.Machine.P {
		topo.Sockets = sockets
		topo.CostMissRemote = 4 * cfg.Machine.CostMiss
	}
	if rng.Intn(2) == 0 {
		topo.CostSteal = 5
		if topo.Sockets > 0 {
			topo.CostStealRemote = 25
		}
	}
	cfg.StealBudget = []int64{-1, 0, 1, 3, 17}[rng.Intn(5)]
	cfg.AuditStackBlocks = rng.Intn(3) == 0
	cfg.Machine.TrackWrites = rng.Intn(3) == 0
	return cfg
}

// TestReplayMatchesRun holds replay to the coroutine engine on every
// race-free registered workload, keyed by its registry name and size: one
// recording per (workload, B), replayed under random configurations
// through the same pooled engines the coroutine runs use. Every replay
// must equal RunLean.
func TestReplayMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pols := rws.Policies()
	var pool Runner
	defer pool.Close()
	runs := 0
	for _, name := range Workloads() {
		if name == "conncomp" {
			continue // see TestConnCompReplayDiverges
		}
		mk, _ := WorkloadMaker(name, replaySizes[name])
		k := kernel{key: fmt.Sprintf("%s/n=%d", name, replaySizes[name]), mk: mk}
		for _, b := range []int{8, 16, 32} {
			base := rws.DefaultConfig(1)
			base.Machine.B = b
			tr := record(k, base)
			if tr == nil {
				t.Fatalf("%s B=%d: recording rejected", name, b)
			}
			if b == 16 {
				t.Logf("%s n=%d: %d ops, %d trace bytes", name, replaySizes[name], tr.Len(), tr.Bytes())
			}
			for i := 0; i < 2*len(pols); i++ {
				cfg := randomReplayConfig(rng, b, pols[i%len(pols)])
				e, root := k.mk(&pool, cfg)
				want := e.RunLean(root)
				pool.Recycle(e)
				e = pool.Engine(cfg)
				got := e.Replay(tr)
				pool.Recycle(e)
				runs++
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s B=%d P=%d %s %+v budget %d: replay diverged from RunLean:\nrun:    %+v\nreplay: %+v",
						name, b, cfg.Machine.P, cfg.Policy.Name(), cfg.Machine.Topology, cfg.StealBudget, want, got)
				}
			}
		}
	}
	if runs != 14*3*12 {
		t.Fatalf("%d replays, want %d: 14 race-free workloads x 3 block sizes x 12 configs", runs, 14*3*12)
	}
}

// TestConnCompReplayDiverges shows why conncomp has no content key: its
// in-place jump lets a leaf read a label another leaf is rewriting, so the
// labels, the addresses they steer and the number of rounds depend on the
// schedule. The recorder cannot see that — the recording succeeds — but
// replaying it at P = 2 does not reproduce the coroutine engine.
func TestConnCompReplayDiverges(t *testing.T) {
	mk, _ := WorkloadMaker("conncomp", 4096)
	var pool Runner
	defer pool.Close()
	e, root := mk(&pool, rws.DefaultConfig(1))
	tr, err := e.Record(root)
	pool.Recycle(e)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		cfg := rws.DefaultConfig(2)
		cfg.Seed = seed
		e, root := mk(&pool, cfg)
		want := e.RunLean(root)
		pool.Recycle(e)
		e = pool.Engine(cfg)
		got := e.Replay(tr)
		pool.Recycle(e)
		if reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: conncomp replayed exactly at P=2; its opt-out is no longer shown to be needed", seed)
		}
	}
}

// TestSweepRecordsOncePerKernel checks the trace cache: runs of one kernel
// at one block size share one recording, a block size change records
// again, and a kernel without a key never records.
func TestSweepRecordsOncePerKernel(t *testing.T) {
	traces.drop()
	defer traces.drop()
	base := rws.DefaultConfig(4)
	k := prefixKernel(256, prefix.Config{Chunk: 4})
	first := traces.get(k, base)
	if first == nil {
		t.Fatal("prefix recording rejected")
	}
	for p := 1; p <= 8; p++ {
		cfg := base
		cfg.Machine.P = p
		if tr := traces.get(k, cfg); tr != first {
			t.Fatalf("P=%d recorded again", p)
		}
	}
	wide := base
	wide.Machine.B = 32
	if tr := traces.get(k, wide); tr == first || tr == nil {
		t.Fatal("B=32 did not get its own recording")
	}
	if tr := traces.get(connCompKernel(64, 128), base); tr != nil {
		t.Fatal("conncomp was recorded")
	}
}

// TestRejectedRecordingRunsOnCoroutines checks the fallback: a keyed kernel
// whose recording is rejected caches no trace, and poolRun gives it the
// coroutine engine's Result.
func TestRejectedRecordingRunsOnCoroutines(t *testing.T) {
	traces.drop()
	defer traces.drop()
	k := kernel{key: "test/allocates-in-run", mk: func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
		e := pool.Engine(cfg)
		out := e.Machine().Alloc.Alloc(64)
		return e, func(c *rws.Ctx) {
			tmp := e.Machine().Alloc.Alloc(64) // past the recording's mark
			c.ForkN(64, func(j int, c *rws.Ctx) {
				c.Work(machine.Tick(1 + j%5))
				c.Write(tmp + mem.Addr(j))
				c.Write(out + mem.Addr(j))
			})
		}
	}}
	cfg := rws.DefaultConfig(4)
	if traces.get(k, cfg) != nil {
		t.Fatal("recorded a kernel that accesses memory allocated during the run")
	}
	got := poolRun(k, cfg)
	e, root := k.mk(&enginePool, cfg)
	want := e.RunLean(root)
	enginePool.Recycle(e)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("fallback diverged from RunLean:\nrun:     %+v\npoolRun: %+v", want, got)
	}
}

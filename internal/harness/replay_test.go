package harness

import (
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
		k, _ := Workload(name, replaySizes[name])
		for _, b := range []int{8, 16, 32} {
			base := rws.DefaultConfig(1)
			base.Machine.B = b
			tr, err := k.recorder(&pool)(base, 0)
			if err != nil {
				t.Fatalf("%s B=%d: recording rejected: %v", name, b, err)
			}
			if b == 16 {
				t.Logf("%s n=%d: %d ops, %d trace bytes", name, replaySizes[name], tr.Len(), tr.Bytes())
			}
			for i := 0; i < 2*len(pols); i++ {
				cfg := randomReplayConfig(rng, b, pols[i%len(pols)])
				e, root := k.Make(&pool, cfg)
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
	tr, err := e.Record(root, 0)
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

// TestSweepRecordsOncePerKernel checks the sweep's use of the trace cache:
// runs of one kernel at one block size share one recording and replay it,
// a block size change records again, and a kernel without a key never
// records or replays.
func TestSweepRecordsOncePerKernel(t *testing.T) {
	var c TraceCache
	run := func(k Kernel, cfg rws.Config) TraceChange {
		t.Helper()
		_, ch, err := c.Run(&enginePool, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	base := rws.DefaultConfig(4)
	k := prefixKernel(256, prefix.Config{Chunk: 4})
	if ch := run(k, base); !ch.Recorded || ch.Rejected || !ch.Replayed {
		t.Fatalf("prefix recording rejected or not replayed: %+v", ch)
	}
	for p := 1; p <= 8; p++ {
		cfg := base
		cfg.Machine.P = p
		if ch := run(k, cfg); ch.Recorded || !ch.Replayed {
			t.Fatalf("P=%d recorded again or did not replay: %+v", p, ch)
		}
	}
	wide := base
	wide.Machine.B = 32
	if ch := run(k, wide); !ch.Recorded || !ch.Replayed {
		t.Fatalf("B=32 did not get its own recording: %+v", ch)
	}
	if held := c.held(); len(held) != 2 {
		t.Fatalf("held %v, want the B=16 and B=32 recordings", held)
	}
	if ch := run(connCompKernel(64, 128), base); ch != (TraceChange{}) {
		t.Fatalf("conncomp changed the cache or replayed: %+v", ch)
	}
	if held := c.held(); len(held) != 2 {
		t.Fatalf("conncomp was recorded: %v", held)
	}
}

// TestRejectedRecordingRunsOnCoroutines checks the fallback: a keyed kernel
// whose recording is rejected caches no trace, and Run gives it the
// coroutine engine's Result, without replaying, on every call.
func TestRejectedRecordingRunsOnCoroutines(t *testing.T) {
	k := Kernel{Key: "test/allocates-in-run", Make: func(pool *Runner, cfg rws.Config) (*rws.Engine, func(*rws.Ctx)) {
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
	e, root := k.Make(&enginePool, cfg)
	want := e.RunLean(root)
	enginePool.Recycle(e)
	var c TraceCache
	for i, wantCh := range []TraceChange{{Recorded: true, Rejected: true, Bytes: rejectedBytes}, {}} {
		got, ch, err := c.Run(&enginePool, k, cfg)
		if err != nil || ch != wantCh {
			t.Fatalf("call %d: %+v, %v; want %+v: a kernel that accesses memory allocated during the run must be rejected once and run on coroutines", i, ch, err, wantCh)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("call %d: fallback diverged from RunLean:\nrun: %+v\nRun: %+v", i, want, got)
		}
	}
}

package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rwsfs/internal/machine"
	"rwsfs/internal/rws"
)

var updateBudgetGolden = flag.Bool("update-budget-golden", false,
	"rewrite testdata/budget_golden.txt from this tree instead of comparing with it")

const budgetGoldenPath = "testdata/budget_golden.txt"

// budgetGoldenMachines are the grid's machine shapes: the paper's flat
// machine, two sockets with a NUMA miss penalty and a failed-steal cost
// that divides neither the other costs nor the default's, and two sockets
// with distance-priced steal attempts.
var budgetGoldenMachines = []struct {
	name  string
	apply func(*machine.Params)
}{
	{"flat", func(*machine.Params) {}},
	{"2s", func(m *machine.Params) {
		m.Topology = machine.Topology{Sockets: 2, CostMissRemote: 4 * m.CostMiss}
		m.CostFailSteal = 7
	}},
	{"2s-priced", func(m *machine.Params) {
		m.Topology = machine.Topology{Sockets: 2, CostMissRemote: 4 * m.CostMiss, CostSteal: 5, CostStealRemote: 25}
	}},
}

// budgetGoldenLines runs the budgeted grid and returns one line per case:
// its key, Makespan, Steals, FailedSteals, and the SHA-256 of the full
// Result's %+v, PerProc and StolenKernelSizes included. prefix, fft,
// sort-col and matmul-la run on coroutines and replay their recording;
// conncomp, whose op stream depends on the schedule, only runs.
func budgetGoldenLines(t *testing.T) []string {
	kernels := []struct {
		name   string
		n      int
		replay bool
	}{
		{"prefix", 256, true}, {"fft", 128, true}, {"sort-col", 128, true},
		{"matmul-la", 16, true}, {"conncomp", 128, false},
	}
	var pool Runner
	defer pool.Close()
	var lines []string
	line := func(key string, res rws.Result) {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
		lines = append(lines, fmt.Sprintf("%s %d %d %d %x", key, res.Makespan, res.Steals, res.FailedSteals, sum))
	}
	for _, k := range kernels {
		mk, ok := WorkloadMaker(k.name, k.n)
		if !ok {
			t.Fatalf("unknown workload %s", k.name)
		}
		var tr *rws.Trace
		if k.replay {
			e, root := mk(&pool, rws.DefaultConfig(1))
			var err error
			if tr, err = e.Record(root, 0); err != nil {
				t.Fatalf("%s: Record: %v", k.name, err)
			}
			pool.Recycle(e)
		}
		seed := int64(0)
		for _, m := range budgetGoldenMachines {
			for _, p := range []int{2, 8, 70} {
				for _, budget := range []int64{0, 1, 3, 17} {
					for _, pol := range rws.Policies() {
						seed++
						cfg := rws.DefaultConfig(p)
						m.apply(&cfg.Machine)
						cfg.Seed = seed
						cfg.StealBudget = budget
						cfg.Policy = pol
						key := fmt.Sprintf("%s/%s/p%d/b%d/%s", k.name, m.name, p, budget, pol.Name())
						e, root := mk(&pool, cfg)
						line(key+"/run", e.Run(root))
						pool.Recycle(e)
						if tr == nil {
							continue
						}
						e = pool.Engine(cfg)
						res := e.Replay(tr)
						res.PerProc = e.CopyCounters(nil)
						line(key+"/replay", res)
						pool.Recycle(e)
					}
				}
			}
		}
	}
	return lines
}

// TestBudgetedGolden holds steal-budgeted runs and replays to a golden
// file generated before idle processors whose budget is spent stopped
// spinning: the full Results, every failed steal and per-processor counter
// included, must not move. go test ./internal/harness -run
// TestBudgetedGolden -update-budget-golden rewrites the file; regenerate
// it only for a change meant to alter simulated results.
func TestBudgetedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("budgeted golden grid skipped in -short mode")
	}
	got := budgetGoldenLines(t)
	if *updateBudgetGolden {
		if err := os.MkdirAll(filepath.Dir(budgetGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		body := "# key Makespan Steals FailedSteals sha256(%+v of the Result)\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(budgetGoldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(budgetGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" && l[0] != '#' {
			want = append(want, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("case %d:\ngot  %s\nwant %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cases diverged from %s", bad, len(got), budgetGoldenPath)
	}
}

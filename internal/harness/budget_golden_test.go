package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
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

// budgetGolden is the budgeted grid as a table: the column names, and per
// case its key and one value per column.
type budgetGolden struct {
	cols []string
	keys []string
	rows [][]string
}

// budgetGoldenColumns names the golden's columns: every rws.Result field
// in declaration order, so that a new field gets its own column, then
// PerProc, the engine's per-processor counters.
func budgetGoldenColumns() []string {
	rt := reflect.TypeFor[rws.Result]()
	var cols []string
	for i := range rt.NumField() {
		cols = append(cols, rt.Field(i).Name)
	}
	return append(cols, "PerProc")
}

// budgetGoldenCell writes one value: an integer in decimal, anything else
// as the first 16 hex digits of the SHA-256 of its %+v.
func budgetGoldenCell(v reflect.Value) string {
	if v.CanInt() {
		return strconv.FormatInt(v.Int(), 10)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v.Interface())))
	return hex.EncodeToString(sum[:8])
}

// budgetGoldenGrid runs the budgeted grid, one case per kernel, machine,
// P, budget and policy. prefix, fft, sort-col and matmul-la also replay
// their recording, which must equal the run in its Result, per-processor
// counters and Stats; conncomp, whose op stream depends on the schedule,
// only runs.
func budgetGoldenGrid(t *testing.T) budgetGolden {
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
	g := budgetGolden{cols: budgetGoldenColumns()}
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
						run := outcomeOf(e, e.Run(root))
						pool.Recycle(e)
						if tr != nil {
							e = pool.Engine(cfg)
							replay := outcomeOf(e, e.Replay(tr))
							pool.Recycle(e)
							if !reflect.DeepEqual(run, replay) {
								t.Fatalf("%s: replay diverged from Run:\nrun:    %+v\nreplay: %+v", key, run, replay)
							}
						}
						res := reflect.ValueOf(run.Result)
						row := make([]string, 0, len(g.cols))
						for i := range res.NumField() {
							row = append(row, budgetGoldenCell(res.Field(i)))
						}
						g.keys = append(g.keys, key)
						g.rows = append(g.rows, append(row, budgetGoldenCell(reflect.ValueOf(run.PerProc))))
					}
				}
			}
		}
	}
	return g
}

func (g budgetGolden) String() string {
	var b strings.Builder
	b.WriteString("# One case a line. Integers are decimal; any other value is the first\n")
	b.WriteString("# 16 hex digits of the SHA-256 of its %+v.\n")
	b.WriteString("key " + strings.Join(g.cols, " ") + "\n")
	for i, k := range g.keys {
		b.WriteString(k + " " + strings.Join(g.rows[i], " ") + "\n")
	}
	return b.String()
}

// parseBudgetGolden reads a golden file: comment lines, the header that
// names the columns, and one line per case.
func parseBudgetGolden(data string) (budgetGolden, error) {
	var g budgetGolden
	for _, l := range strings.Split(data, "\n") {
		if l == "" || l[0] == '#' {
			continue
		}
		f := strings.Fields(l)
		if g.cols == nil {
			if f[0] != "key" {
				return g, fmt.Errorf("header %q does not start with key", l)
			}
			g.cols = f[1:]
			continue
		}
		if len(f) != len(g.cols)+1 {
			return g, fmt.Errorf("%s: %d values for %d columns", f[0], len(f)-1, len(g.cols))
		}
		g.keys, g.rows = append(g.keys, f[0]), append(g.rows, f[1:])
	}
	return g, nil
}

// TestBudgetedGolden holds steal-budgeted runs and replays to a golden
// file whose values were first recorded before idle processors whose
// budget is spent stopped spinning: every Result field and the
// per-processor counters, each in a column of its own, must not move.
// Columns are compared by name, so a field added to or removed from Result
// fails only its own column, and the failure says whether every shared
// column still matched. go test ./internal/harness -run TestBudgetedGolden
// -update-budget-golden rewrites the file; regenerate it only once every
// shared column matched, and only for a change that adds or removes a
// field or is meant to alter simulated results.
func TestBudgetedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("budgeted golden grid skipped in -short mode")
	}
	got := budgetGoldenGrid(t)
	if *updateBudgetGolden {
		if err := os.MkdirAll(filepath.Dir(budgetGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(budgetGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(budgetGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseBudgetGolden(string(data))
	if err != nil {
		t.Fatalf("%s: %v", budgetGoldenPath, err)
	}
	if !slices.Equal(got.keys, want.keys) {
		t.Fatalf("the grid's %d cases are not the %d cases of %s", len(got.keys), len(want.keys), budgetGoldenPath)
	}
	bad := 0
	for wc, col := range want.cols {
		gc := slices.Index(got.cols, col)
		if gc < 0 {
			continue
		}
		for i, key := range got.keys {
			if got.rows[i][gc] != want.rows[i][wc] {
				if bad++; bad <= 10 {
					t.Errorf("%s %s = %s, golden %s", key, col, got.rows[i][gc], want.rows[i][wc])
				}
			}
		}
	}
	shared := "every shared column matched"
	if bad > 0 {
		shared = fmt.Sprintf("%d shared values diverged", bad)
	}
	for _, col := range want.cols {
		if !slices.Contains(got.cols, col) {
			t.Errorf("column %s is in %s but not in this tree; %s", col, budgetGoldenPath, shared)
		}
	}
	for _, col := range got.cols {
		if !slices.Contains(want.cols, col) {
			t.Errorf("column %s is in this tree but not in %s; %s", col, budgetGoldenPath, shared)
		}
	}
	if bad > 0 {
		t.Fatalf("%s over %d cases of %s", shared, len(got.keys), budgetGoldenPath)
	}
}

package harness

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"rwsfs/internal/rws"
)

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	for _, ex := range All() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			tbl := ex.Run(Quick)
			if tbl.ID != ex.ID {
				t.Errorf("table ID %q != experiment ID %q", tbl.ID, ex.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", ex.ID)
			}
			for _, c := range tbl.Checks {
				if !c.Pass {
					t.Errorf("%s check failed: %s (%s)", ex.ID, c.Name, c.Detail)
				}
			}
			t.Logf("\n%s", tbl.Format())
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E01"); !ok {
		t.Error("E01 missing")
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("E99 should not exist")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID: "T", Title: "title", Note: "note",
		Header: []string{"a", "bee"},
	}
	tbl.AddRow("1", "2")
	tbl.Checked("c", true, "fine")
	txt := tbl.Format()
	for _, want := range []string{"== T: title ==", "note", "a", "bee", "[PASS] c: fine"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Format missing %q in:\n%s", want, txt)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### T — title", "| a | bee |", "✅ **c**"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q in:\n%s", want, md)
		}
	}
}

func TestFitLogLog(t *testing.T) {
	// y = x² should fit slope 2.
	xs := []float64{2, 4, 8, 16}
	ys := []float64{4, 16, 64, 256}
	if s := fitLogLog(xs, ys); s < 1.99 || s > 2.01 {
		t.Errorf("slope %v, want 2", s)
	}
}

func TestTableWideRows(t *testing.T) {
	// Rows may carry more cells than the header (e.g. a detail column only
	// some rows have); rendering must widen rather than silently truncate.
	tbl := Table{ID: "W", Title: "wide", Header: []string{"a", "b"}}
	tbl.AddRow("1", "2", "extra-cell")
	tbl.AddRow("3", "4")
	txt := tbl.Format()
	if !strings.Contains(txt, "extra-cell") {
		t.Errorf("Format dropped the extra cell:\n%s", txt)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| 1 | 2 | extra-cell |") {
		t.Errorf("Markdown dropped or misplaced the extra cell:\n%s", md)
	}
	if !strings.Contains(md, "| a | b |  |\n|---|---|---|") {
		t.Errorf("Markdown header not padded to the widest row:\n%s", md)
	}
	if !strings.Contains(md, "| 3 | 4 |  |") {
		t.Errorf("Markdown short row not padded:\n%s", md)
	}
}

func TestSweepEnginePoolEngages(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	// Two serial runs of a sweep-heavy experiment: the pooled runner must
	// serve almost every engine checkout from the pool (the whole point of
	// the Reset lifecycle), and its output must not depend on pool state.
	SetWorkers(1)
	g0, b0 := enginePool.Stats()
	ft := E16(Quick)
	first := ft.Format()
	g1, b1 := enginePool.Stats()
	if gets := g1 - g0; gets == 0 {
		t.Fatal("E16 performed no pooled engine checkouts")
	}
	// A warm pool (earlier tests, or the first E16) bounds fresh builds by
	// the serial concurrency: at most a couple of engines ever coexist.
	st := E16(Quick)
	second := st.Format()
	g2, b2 := enginePool.Stats()
	if first != second {
		t.Errorf("E16 output changed between a cold and a warm engine pool:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if builds := b2 - b1; builds != 0 {
		t.Errorf("second E16 built %d fresh engines with a warm pool, want 0", builds)
	}
	if g2 <= g1 {
		t.Error("second E16 served no checkouts")
	}
	_ = b0
}

func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep comparison skipped in -short mode")
	}
	// The sweep runner must render byte-identical tables for any worker
	// count: runs are independent deterministic engines and results are
	// ordered. E07 (p × seeds) and E03 (a Config per point, one seed)
	// cover both grid shapes; E16–E18 additionally pin the policy sweeps,
	// whose disciplines consume the RNG differently per attempt — the
	// StealPolicy RNG ownership rule (stateless policy values, all draws
	// from the engine's per-run RNG) is what keeps a shared policy value
	// from coupling concurrent runs' schedules.
	defer SetWorkers(1)
	for _, id := range []string{"E03", "E07", "E16", "E17", "E18", "E19", "E20", "E21"} {
		ex, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		SetWorkers(1)
		st := ex.Run(Quick)
		serial := st.Format()
		SetWorkers(4)
		pt := ex.Run(Quick)
		parallel := pt.Format()
		if serial != parallel {
			t.Errorf("%s: parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial, parallel)
		}
	}
}

func TestRunParCancelsAtRunBoundaries(t *testing.T) {
	defer SetContext(nil)
	defer SetWorkers(1)

	mkJobs := func(n int, ran []int32) []func() rws.Result {
		jobs := make([]func() rws.Result, n)
		for i := range jobs {
			i := i
			jobs[i] = func() rws.Result {
				atomic.AddInt32(&ran[i], 1)
				return rws.Result{Makespan: 1}
			}
		}
		return jobs
	}

	for _, w := range []int{1, 4} {
		// A live context lets every job run.
		SetWorkers(w)
		ctx, cancel := context.WithCancel(context.Background())
		SetContext(ctx)
		ran := make([]int32, 16)
		out := runPar(mkJobs(16, ran))
		for i := range ran {
			if ran[i] != 1 || out[i].Makespan != 1 {
				t.Fatalf("workers=%d live ctx: job %d ran %d times (makespan %d)", w, i, ran[i], out[i].Makespan)
			}
		}
		if err := ContextErr(); err != nil {
			t.Fatalf("workers=%d: ContextErr = %v before cancellation", w, err)
		}

		// A cancelled context skips every remaining job, leaving zero Results.
		cancel()
		ran = make([]int32, 16)
		out = runPar(mkJobs(16, ran))
		for i := range ran {
			if ran[i] != 0 || out[i].Makespan != 0 {
				t.Fatalf("workers=%d cancelled ctx: job %d ran %d times", w, i, ran[i])
			}
		}
		if ContextErr() == nil {
			t.Fatalf("workers=%d: ContextErr = nil after cancellation", w)
		}
	}
}

func TestSetContextNilClearsAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	SetContext(ctx)
	if ContextErr() == nil {
		t.Fatal("cancelled context not observed")
	}
	SetContext(nil)
	if err := ContextErr(); err != nil {
		t.Fatalf("ContextErr after SetContext(nil) = %v, want nil", err)
	}
	ran := false
	out := runPar([]func() rws.Result{func() rws.Result { ran = true; return rws.Result{Makespan: 7} }})
	if !ran || out[0].Makespan != 7 {
		t.Fatal("cleared context still suppressed the sweep")
	}
}

// TestCheckSizeMatchesMakers runs every registered workload at every n in
// [1, 70] and requires CheckSize to accept exactly the sizes whose run
// does not panic, so the registry's size rules are the kernels' own.
func TestCheckSizeMatchesMakers(t *testing.T) {
	var pool Runner
	defer pool.Close()
	for _, alg := range Workloads() {
		for n := 1; n <= 70; n++ {
			panicked := func() (panicked bool) {
				var e *rws.Engine
				defer func() {
					if panicked = recover() != nil; panicked && e != nil {
						e.Close() // a panicked engine is discarded
					}
				}()
				mk, _ := WorkloadMaker(alg, n)
				e, root := mk(&pool, rws.DefaultConfig(2))
				e.Run(root)
				pool.Recycle(e)
				return false
			}()
			if err := CheckSize(alg, n); (err != nil) != panicked {
				t.Errorf("%s n=%d: CheckSize = %v, run panicked %v", alg, n, err, panicked)
			}
		}
	}
	if err := CheckSize("nope", 64); err == nil {
		t.Error("CheckSize accepted an unknown workload")
	}
}

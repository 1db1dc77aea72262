// Package harness runs the reproduction experiments: for each lemma/theorem
// in the paper's analysis it sweeps the relevant parameter, runs the
// algorithms on the simulated machine, evaluates the corresponding bound
// from package analysis, and renders a predicted-vs-measured table.
// All lists the experiments, E01..E21.
package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"rwsfs/internal/analysis"
	"rwsfs/internal/machine"
	"rwsfs/internal/rws"
)

// Scale selects experiment sizes: Quick for tests/benchmarks, Full for the
// reproduction run.
type Scale int

const (
	Quick Scale = iota
	Full
)

// Check is one pass/fail shape assertion attached to a table.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Table is one experiment's rendered result.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
	Checks []Check
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Checked appends a shape check.
func (t *Table) Checked(name string, pass bool, detail string) {
	t.Checks = append(t.Checks, Check{Name: name, Pass: pass, Detail: detail})
}

// columns returns the table's true column count: the header's, widened by
// any row carrying more cells (renderers must not silently drop cells or
// misalign on such rows).
func (t *Table) columns() int {
	n := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	return n
}

// Format renders the table with aligned columns, ready for a terminal.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, t.columns())
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, c := range t.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s: %s\n", mark, c.Name, c.Detail)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown section.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Note)
	}
	ncols := t.columns()
	pad := func(cells []string) []string {
		if len(cells) == ncols {
			return cells
		}
		out := make([]string, ncols)
		copy(out, cells)
		return out
	}
	b.WriteString("| " + strings.Join(pad(t.Header), " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", ncols) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(pad(r), " | ") + " |\n")
	}
	b.WriteByte('\n')
	for _, c := range t.Checks {
		mark := "✅"
		if !c.Pass {
			mark = "❌"
		}
		fmt.Fprintf(&b, "- %s **%s**: %s\n", mark, c.Name, c.Detail)
	}
	b.WriteByte('\n')
	return b.String()
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) Table
}

// All returns the experiment registry in index order.
func All() []Experiment {
	return []Experiment{
		{"E01", "Lemma 3.1 — depth-n MM cache misses vs steals", E01},
		{"E02", "Corollary 3.2 — depth-log²n MM cache misses vs steals", E02},
		{"E03", "Lemma 4.3 — per-block delay of tree tasks is O(min{B, ht})", E03},
		{"E04", "Lemma 4.5 — MM block-miss delay is O(S·B)", E04},
		{"E05", "Lemma 4.6 — RM→BI conversion costs", E05},
		{"E06", "Lemma 4.7 — BI→RM conversion, buffered vs natural", E06},
		{"E07", "Theorem 5.1 — steals scale as O(p·h(t))", E07},
		{"E08", "Theorems 6.2/6.3 — HBP h(t) cases order steal counts", E08},
		{"E09", "Lemma 7.1 — depth-n vs depth-log²n MM steals", E09},
		{"E10", "Theorem 7.1(i,ii) — BP algorithms: prefix sums & transpose", E10},
		{"E11", "Theorem 7.1(iii,iv) — sorting and FFT", E11},
		{"E12", "Section 7 — list ranking & connected components", E12},
		{"E13", "Section 6.1 — level machinery vs measurements (BP)", E13},
		{"E14", "Section 2.1 — native false sharing on the host", E14},
		{"E15", "Corollary 6.2 — speedup optimality", E15},
		{"E16", "Steal policies — false-sharing profiles of every discipline", E16},
		{"E17", "Topology — localized vs uniform stealing across sockets", E17},
		{"E18", "Policy × (p, B) — Lemma 4.5 shape under every discipline", E18},
		{"E19", "Steal latency — distance-priced stealing at matched steal counts", E19},
		{"E20", "Theorem 5.1 — steal bound shape under distance-priced stealing", E20},
		{"E21", "Placement — Ctx.PlaceLocal vs inherited provenance", E21},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Runner owns a pool of reusable engines for the experiment sweeps: instead
// of constructing a fresh rws.Engine (machine, caches, coherence directory,
// memory pages, strand coroutines) for every one of the thousands of runs an
// experiment sweep performs, poolRun and the Makers draw engines from the
// pool — a pooled engine is Reset in place to the run's Config. Fresh
// construction runs that same Reset on an empty engine, so the two agree
// bit for bit (the rws reuse differentials check that no earlier run leaks
// through), but Reset reuses all the backing structures and suspended
// coroutines.
// One pooled engine serves recordings, trace replays and coroutine runs.
//
// The pool is safe for concurrent use; engines checked out by different
// sweep workers are independent. The pool only ever holds as many engines as
// have run concurrently.
type Runner struct {
	mu    sync.Mutex
	free  []*rws.Engine
	gets  int // checkouts served; reused = gets - built
	built int
}

// Engine returns an engine configured for cfg: a pooled engine Reset in
// place when one is available, a freshly constructed one otherwise. Invalid
// configs panic, like rws.MustNewEngine.
func (r *Runner) Engine(cfg rws.Config) *rws.Engine {
	r.mu.Lock()
	var e *rws.Engine
	if n := len(r.free); n > 0 {
		e = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		r.built++
	}
	r.gets++
	r.mu.Unlock()
	if e == nil {
		return rws.MustNewEngine(cfg)
	}
	if err := e.Reset(cfg); err != nil {
		panic(err)
	}
	return e
}

// Recycle returns an engine to the pool after its Run completed. The
// engine's Result (and anything read from its Machine) must be fully
// consumed or copied first: the next checkout Resets the simulated memory.
func (r *Runner) Recycle(e *rws.Engine) {
	r.mu.Lock()
	r.free = append(r.free, e)
	r.mu.Unlock()
}

// Stats reports how many engine checkouts the pool served and how many
// engines were actually constructed; for tests of the pooling lifecycle.
func (r *Runner) Stats() (gets, built int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gets, r.built
}

// Close stops every pooled engine's strand coroutines and empties the
// pool. Engines currently checked out are unaffected (their Recycle after
// Close re-pools them for later reuse).
func (r *Runner) Close() {
	r.mu.Lock()
	free := r.free
	r.free = nil
	r.mu.Unlock()
	for _, e := range free {
		e.Close()
	}
}

// enginePool is the package-level Runner the experiment sweeps draw from. It
// lives for the process: engines warmed by one experiment serve the next, so
// a full E01–E21 sweep constructs only about as many engines as the worker
// count instead of one per run.
var enginePool Runner

// workers is the sweep fan-out width; see SetWorkers.
var workers = 1

// runCtx, when non-nil, is the cancellation signal the sweeps poll between
// simulator runs; see SetContext.
var runCtx context.Context

// SetContext installs ctx as the sweep abort signal: once ctx is cancelled,
// runPar stops dispatching further simulator runs — each individual run is a
// deterministic Engine.Run that always completes, so cancellation lands
// promptly at run boundaries, never mid-run (which would break bit-for-bit
// determinism of the runs that did execute). Results for runs that were
// skipped stay zero; callers detect the abort with ContextErr and must not
// treat the partial tables as a finished sweep. Pass nil to clear. Like
// SetWorkers, this is process-wide configuration: set it before the sweep,
// not during one.
func SetContext(ctx context.Context) { runCtx = ctx }

// ContextErr reports why the sweeps stopped early: the installed context's
// error, or nil when no context was installed or it is still live.
func ContextErr() error {
	if runCtx == nil {
		return nil
	}
	return runCtx.Err()
}

// sweepCancelled is the boundary poll: true once the installed context died.
func sweepCancelled() bool { return runCtx != nil && runCtx.Err() != nil }

// SetWorkers sets how many simulator runs the experiment sweeps execute
// concurrently on the host. Every run is an independent deterministic
// Engine.Run over its own engine and inputs, and runPar returns results in
// submission order, so the rendered tables are byte-identical for any
// worker count. n < 1 is treated as 1 (serial).
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workers = n
}

// runPar executes independent simulator runs and returns their results in
// submission order. With one worker the jobs run serially in place;
// otherwise they fan out over a bounded worker pool. When a context was
// installed with SetContext and it is cancelled, remaining jobs are skipped
// (their results stay zero) — in-flight runs still complete, so the abort
// is prompt but never tears a simulation mid-run.
func runPar(jobs []func() rws.Result) []rws.Result {
	out := make([]rws.Result, len(jobs))
	if workers == 1 || len(jobs) <= 1 {
		for i, job := range jobs {
			if sweepCancelled() {
				break
			}
			out[i] = job()
		}
		return out
	}
	w := workers
	if w > len(jobs) {
		w = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range idx {
				if sweepCancelled() {
					continue // drain the channel; skip the remaining runs
				}
				out[j] = jobs[j]()
			}
		}()
	}
	for j := range jobs {
		idx <- j
	}
	close(idx)
	wg.Wait()
	return out
}

// seeds is the scheduling-seed set of the averaged rows: every point of
// such a row runs once per seed, and the row reports the mean.
var seeds = []int64{1, 2, 3}

// point is one point of an experiment's grid: a kernel and the Config it
// runs under. The sweep sets the Config's seed.
type point struct {
	k   Kernel
	cfg rws.Config
}

// at is the point that runs k on base with p processors and the given steal
// budget.
func at(k Kernel, base rws.Config, p int, budget int64) point {
	base.Machine.P = p
	base.StealBudget = budget
	return point{k, base}
}

// sweep runs every point once per seed through poolRun, the whole grid in
// one batch over the configured workers (see runPar), and returns each
// point's Results in seed order.
func sweep(pts []point, seeds []int64) [][]rws.Result {
	jobs := make([]func() rws.Result, 0, len(pts)*len(seeds))
	for _, pt := range pts {
		for _, seed := range seeds {
			cfg := pt.cfg
			cfg.Seed = seed
			jobs = append(jobs, func() rws.Result { return poolRun(pt.k, cfg) })
		}
	}
	res := runPar(jobs)
	rows := make([][]rws.Result, len(pts))
	for i := range rows {
		rows[i] = res[i*len(seeds) : (i+1)*len(seeds)]
	}
	return rows
}

// sum adds up one point's runs: the fields the tables average (Makespan,
// Steals, FailedSteals, SpawnsMigrated and Totals); the others stay zero.
// It returns the number of runs too, the divisor of every mean.
func sum(runs []rws.Result) (rws.Result, int64) {
	var s rws.Result
	for i := range runs {
		r := &runs[i]
		s.Makespan += r.Makespan
		s.Steals += r.Steals
		s.FailedSteals += r.FailedSteals
		s.SpawnsMigrated += r.SpawnsMigrated
		s.Totals.Add(&r.Totals)
	}
	return s, int64(len(runs))
}

// costs converts machine params to analysis costs.
func costs(p machine.Params) analysis.Costs {
	return analysis.Costs{B: p.B, M: p.M, Cb: float64(p.CostMiss), Cs: float64(p.CostSteal)}
}

// fmtF renders a float compactly.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func fmtI(v int64) string { return fmt.Sprintf("%d", v) }

// seqBaseline runs the same computation at p=1 (no steals possible) to
// obtain the sequential W and Q the theorems compare against.
func seqBaseline(k Kernel, base rws.Config) rws.Result {
	cfg := base
	cfg.Machine.P = 1
	return poolRun(k, cfg)
}

// poolRun performs one run on a pooled engine through the sweeps' trace
// cache (see TraceCache.Run); every run of an experiment goes through it,
// by sweep or seqBaseline. One recording serves every processor count,
// seed, policy, topology and budget a sweep visits at one block size. A
// run that panics stops the sweep with the panic's error.
func poolRun(k Kernel, cfg rws.Config) rws.Result {
	res, _, err := traces.Run(&enginePool, k, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// traces is the sweeps' trace cache. It lives for the process, so a trace
// recorded by one experiment serves the next while the budget holds it.
var traces TraceCache

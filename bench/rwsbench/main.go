// Command rwsbench is the repository's end-to-end benchmark. From the root
// of a checkout it builds cmd/experiments and cmd/rwsimd from source, runs
// one workload (or all four) for a fixed window, checks the programs'
// outputs, and prints every metric by name with its unit; its last line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash bench/run.sh --workload simulate_hot --seed 1 --seconds 20 --trace 0
//
// Workloads (see bench/README.md for why each exists):
//
//	sweep          experiments -scale full -par 1, back to back
//	simulate_miss  closed loop, 2 clients, every /simulate key fresh
//	simulate_hot   the same loop, 90% Zipf(1.1) draws from a 512-key hot set
//	batch_journal  POST /batch specs into an fsync'd journal, then -warm-cache restarts
//
// --trace 1 runs the untraced window, then the same window with client-side
// spans, then the per-layer ladder; it prints each layer's self time and the
// tracing overhead, writes the spans to .bench_build/rwsbench/<workload>/
// spans.jsonl, and reports the per-layer metrics instead of the end-to-end
// ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/serve"
)

// config is one invocation's settings.
type config struct {
	root     string
	workload string // "" runs all four
	seed     int64
	window   time.Duration
	trace    bool
	sz       sizes
}

// sizes scale the workloads' inputs and the ladder: fullSizes for every
// measurement, smokeSizes only so the smoke test fits in a few seconds.
type sizes struct {
	sweepScale string        // experiments -scale
	hotKeys    int           // simulate_hot working set
	batchSeeds int           // seeds per batch spec, 16 rows each
	sample     int           // requests the serve ladder replays
	algDiv     int           // the alg ladder runs n/algDiv
	algSeeds   int           // seeds per alg ladder median
	harness    harness.Scale // scale of the harness ladder
}

var (
	fullSizes = sizes{sweepScale: "full", hotKeys: 512, batchSeeds: 64, sample: 256,
		algDiv: 1, algSeeds: 5, harness: harness.Full}
	smokeSizes = sizes{sweepScale: "quick", hotKeys: 64, batchSeeds: 8, sample: 32,
		algDiv: 4, algSeeds: 1, harness: harness.Quick}
)

// outcome is what one measured window of a workload produced.
type outcome struct {
	unit      string // one unit of work: pass, request or row
	latOf     string // one latency sample: pass, request or batch job
	done      int64  // units completed
	attempted int64
	failed    int64
	hits      int64 // /simulate responses served from the cache
	window    time.Duration
	lat       []time.Duration
	setups    []time.Duration
	peakKB    int64
	statz     statzBody // the daemon's counters after the window, if any
	journal   string    // the batch journal directory, if any
	gateErrs  []string
}

// statzBody is the part of GET /statz the benchmark reads.
type statzBody struct {
	Counters serve.Stats `json:"counters"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []struct {
	name string
	run  func(*env) (*outcome, error)
}{
	{"sweep", runSweep},
	{"simulate_miss", runSimulateMiss},
	{"simulate_hot", runSimulateHot},
	{"batch_journal", runBatch},
}

// setupRepeats is how many set-up samples a daemon workload takes; setup_s
// is their median. The host's speed shifts by up to half in spells of
// seconds, so where the workload allows, the samples are spread over the
// run rather than taken in one burst.
const setupRepeats = 9

// endToEndNames fixes the print order of the end-to-end metrics.
var endToEndNames = []string{"throughput_per_s", "latency_p50_ms", "setup_s", "peak_rss_mb"}

func main() {
	// The load comes from one P, so the benchmark's own scheduling adds the
	// least run-to-run spread to what it measures.
	runtime.GOMAXPROCS(1)
	cfg := config{sz: fullSizes}
	flag.StringVar(&cfg.root, "root", ".", "repository root holding go.mod and cmd/")
	flag.StringVar(&cfg.workload, "workload", "", "sweep, simulate_miss, simulate_hot or batch_journal (empty = all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of each measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans, self times and tracing overhead")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "rwsbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, cfg, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run builds the programs under test and runs the selected workloads,
// returning the process exit code.
func run(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	var selected []int
	for i, w := range workloads {
		if cfg.workload == "" || cfg.workload == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "rwsbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	bin := filepath.Join(cfg.root, ".bench_build", "bin")
	if err := build(ctx, cfg.root, bin); err != nil {
		fmt.Fprintf(stderr, "rwsbench: %v\n", err)
		return 1
	}
	code := 0
	for _, i := range selected {
		res, err := runWorkload(ctx, cfg, bin, i, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "rwsbench: %s: %v\n", workloads[i].name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "rwsbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs workload i once, or for a traced run untraced, traced
// and then the ladder, all within 170 seconds.
func runWorkload(ctx context.Context, cfg config, bin string, i int, out io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	w := workloads[i]
	work, err := filepath.Abs(filepath.Join(cfg.root, ".bench_build", "rwsbench", w.name))
	if err != nil {
		return result{}, err
	}
	if err := os.RemoveAll(work); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	e := &env{ctx: ctx, cfg: cfg, bin: bin, work: work,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
	defer e.killAll()
	defer e.client.CloseIdleConnections()

	fmt.Fprintf(out, "provenance %s\n", provenance(cfg, w.name))
	base, err := w.run(e)
	if err != nil {
		return result{}, err
	}
	printOutcome(out, w.name+" (untraced)", base)
	res := result{Correct: len(base.gateErrs) == 0, Attempted: base.attempted, Failed: base.failed, Metrics: endToEnd(base)}
	if !cfg.trace {
		return res, nil
	}

	e.tr = newTracer()
	traced, err := w.run(e)
	if err != nil {
		return result{}, err
	}
	printOutcome(out, w.name+" (traced)", traced)
	fmt.Fprintln(out, "tracing overhead (traced vs untraced window):")
	tm := endToEnd(traced)
	for _, name := range endToEndNames {
		b, t := res.Metrics[name], tm[name]
		fmt.Fprintf(out, "  %-18s %14.6g -> %-14.6g %+7.2f%%\n", name, b.Value, t.Value, 100*(t.Value/b.Value-1))
	}
	layers, ladderErrs, err := ladder(e, traced, out)
	if err != nil {
		return result{}, err
	}
	for _, msg := range ladderErrs {
		fmt.Fprintf(out, "  gate FAIL: %s\n", msg)
	}
	fmt.Fprintln(out, "self time by layer (client-side spans):")
	e.tr.printSelfTimes(out)
	spans := filepath.Join(work, "spans.jsonl")
	if err := e.tr.write(spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans: %s\n", spans)
	return result{
		Correct:   res.Correct && len(traced.gateErrs) == 0 && len(ladderErrs) == 0,
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed,
		Metrics:   layers,
	}, nil
}

// endToEnd derives the end-to-end metrics of one window.
func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"throughput_per_s": {float64(o.done) / o.window.Seconds(), "1/s"},
		"latency_p50_ms":   {ms(quantile(o.lat, 0.5)), "ms"},
		"setup_s":          {medianD(o.setups).Seconds(), "s"},
		"peak_rss_mb":      {float64(o.peakKB) / 1024, "MB"},
	}
}

// printOutcome writes one window's metrics, sample counts and gate results.
func printOutcome(w io.Writer, title string, o *outcome) {
	fmt.Fprintf(w, "%s: %d units of work (one unit = one %s) in %.3f s; one latency sample = one %s\n",
		title, o.done, o.unit, o.window.Seconds(), o.latOf)
	m := endToEnd(o)
	for _, name := range endToEndNames {
		fmt.Fprintf(w, "  %-18s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	// The same throughput or median under the name the workload's users know
	// it by; the JSON keeps one name per metric across all workloads.
	switch o.unit {
	case "pass":
		fmt.Fprintf(w, "  %-18s %14.6g s\n", "sweep_s", quantile(o.lat, 0.5).Seconds())
	case "request":
		fmt.Fprintf(w, "  %-18s %14.6g 1/s\n", "rps", m["throughput_per_s"].Value)
	case "row":
		fmt.Fprintf(w, "  %-18s %14.6g rows/s\n", "rows_per_s", m["throughput_per_s"].Value)
	}
	// A tail percentile is printed only where at least 10 samples lie
	// beyond it; sweep and batch_journal have too few samples for any.
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p99_ms", 0.99}, {"latency_p999_ms", 0.999}} {
		if v := quantile(o.lat, q.q); beyond(o.lat, v) >= 10 {
			fmt.Fprintf(w, "  %-18s %14.6g ms\n", q.name, ms(v))
		}
	}
	fmt.Fprintf(w, "  samples: %d latencies, of which %d beyond p50, %d beyond p99, %d beyond p999; %d set-ups\n",
		len(o.lat), beyond(o.lat, quantile(o.lat, 0.5)), beyond(o.lat, quantile(o.lat, 0.99)),
		beyond(o.lat, quantile(o.lat, 0.999)), len(o.setups))
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "  %-18s %14.6g       %d of %d units failed\n", "fail_frac", frac, o.failed, o.attempted)
	if o.unit == "request" {
		c := o.statz.Counters
		fmt.Fprintf(w, "  /statz: ok=%d cache_hits=%d dedups=%d simulations=%d (hit share of 200s %.4f)\n",
			c.OK, c.CacheHits, c.Dedups, c.Simulations, float64(o.hits)/float64(max(o.done, 1)))
	}
	if len(o.gateErrs) == 0 {
		fmt.Fprintln(w, "  gates: pass")
	}
	for _, msg := range o.gateErrs {
		fmt.Fprintf(w, "  gate FAIL: %s\n", msg)
	}
}

// provenance identifies the host, toolchain and sources a result came from.
func provenance(cfg config, workload string) []byte {
	nproc := runtime.NumCPU()
	e14 := fmt.Sprintf("nproc=%d: experiments at its default GOMAXPROCS runs E14's native false-sharing contrast; the benchmark's sweep (GOMAXPROCS=%d) skips it", nproc, sweepProcs)
	if nproc < 2 {
		e14 = "nproc=1: E14 skips its native false-sharing contrast"
	}
	b, _ := json.Marshal(map[string]any{ // a map of strings and ints always marshals
		"workload":          workload,
		"seed":              cfg.seed,
		"seconds":           cfg.window.Seconds(),
		"trace":             cfg.trace,
		"nproc":             nproc,
		"bench_gomaxprocs":  runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs": nproc,
		"sweep_gomaxprocs":  sweepProcs,
		"cpu":               cpuModel(),
		"go":                runtime.Version(),
		"commit":            commit(cfg.root),
		"e14":               e14,
	})
	return b
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checkout's HEAD commit, or says there is none: a
// benchmark checkout need not be a git repository.
func commit(root string) string {
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(git, "packed-refs")) // absent means unknown
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown (" + ref + ")"
}

// jsonUnmarshal decodes b into v, naming what was decoded on failure.
func jsonUnmarshal(b []byte, v any, what string) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decode %s: %w: %.200s", what, err, b)
	}
	return nil
}

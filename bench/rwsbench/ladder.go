package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/machine"
	"rwsfs/internal/mem"
	"rwsfs/internal/rws"
	"rwsfs/internal/serve"
	"rwsfs/internal/serve/jobs"
)

// ladder measures every layer from outside, by timing calls into its
// public functions, after the traced window. It returns the per-layer
// metrics and any failed check.
func ladder(e *env, run *outcome, w io.Writer) (map[string]metric, []string, error) {
	l := &ladderRun{e: e, m: make(map[string]metric), parent: e.tr.id()}
	start := time.Now()
	defer e.tr.add(l.parent, 0, "ladder", 0, start)

	l.machine()
	if err := l.rws(); err != nil {
		return nil, nil, err
	}
	if err := l.alg(); err != nil {
		return nil, nil, err
	}
	l.harness()
	sample := ladderSample(e.cfg.seed, e.cfg.sz.sample)
	br, err := l.serve(sample)
	if err != nil {
		return nil, nil, err
	}
	// The jobs layer reads the run's own journal and warm restarts where the
	// workload made them (batch_journal), and the probe's otherwise.
	journal, setup, err := l.probe(sample, run.journal == "", &br)
	if err != nil {
		return nil, nil, err
	}
	if run.journal != "" {
		journal, setup = run.journal, medianD(run.setups)
	}
	if err := l.jobs(journal, setup); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "/simulate miss cost breakdown (p50 over the same %d requests):\n", len(sample))
	fmt.Fprintf(w, "  %-44s %10.3f ms\n", "HTTP + loopback (loopback - ServeHTTP)", ms(br.loopMiss-br.serveMiss))
	fmt.Fprintf(w, "  %-44s %10.3f ms\n", "serve overhead (ServeHTTP - Maker - RunLean)", ms(br.overhead))
	fmt.Fprintf(w, "  %-44s %10.3f ms\n", "Maker (harness.WorkloadMaker + Maker call)", ms(br.maker))
	fmt.Fprintf(w, "  %-44s %10.3f ms\n", "RunLean", ms(br.run))
	fmt.Fprintf(w, "  %-44s %10.3f ms\n", "loopback total", ms(br.loopMiss))
	return l.m, l.errs, nil
}

type ladderRun struct {
	e      *env
	m      map[string]metric
	parent int64
	errs   []string
}

func (l *ladderRun) set(name, unit string, v float64) { l.m[name] = metric{Value: v, Unit: unit} }

// keySink keeps the timed Request.Key calls from being optimized away.
var keySink string

// breakdown holds the p50s that split a /simulate miss into its parts.
type breakdown struct {
	loopMiss, serveMiss, overhead, maker, run time.Duration
	serveHit                                  time.Duration
}

// accessOp is one step of the synthetic coherence stream.
type accessOp struct {
	p     int
	a     mem.Addr
	write bool
}

// accessStream is a seeded xorshift stream of n accesses by p processors
// over span words from base, 30% of them writes.
func accessStream(seed int64, n, p, span int, base mem.Addr) []accessOp {
	s := uint64(seed)*0x9e3779b97f4a7c15 | 1
	ops := make([]accessOp, n)
	for i := range ops {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		ops[i] = accessOp{p: int(s % uint64(p)), a: base + mem.Addr((s>>8)%uint64(span)), write: (s>>40)%10 < 3}
	}
	return ops
}

// perOp times reps passes of f over n operations and returns the median
// nanoseconds per operation.
func perOp(reps, n int, f func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return medianF(xs)
}

// machine times Machine.Access and AccessRange on a fixed stream at P=8
// over a working set of 4×M words, after one warm-up pass.
func (l *ladderRun) machine() {
	t0 := time.Now()
	defer l.e.tr.span(l.parent, "machine.access", 0, t0)
	pr := machine.DefaultParams(8)
	m := machine.MustNew(pr)
	span := 4 * pr.M
	ops := accessStream(l.e.cfg.seed, 1<<17, pr.P, span, m.Alloc.Alloc(span))
	now := machine.Tick(0)
	pass := func() {
		for _, op := range ops {
			now += 1 + m.Access(op.p, op.a, op.write, now)
		}
	}
	pass()
	l.set("machine.access_ns", "ns", perOp(7, len(ops), pass))

	const rangeWords = 64
	ranges := func() {
		for _, op := range ops[:len(ops)/8] {
			now += 1 + m.AccessRange(op.p, op.a&^(rangeWords-1), rangeWords, op.write, now)
		}
	}
	ranges()
	l.set("machine.access_range_ns", "ns", perOp(7, len(ops)/8, ranges))

	hm := machine.MustNew(machine.DefaultParams(8))
	hspan := pr.M / 2 // half of one cache: every access after warm-up hits
	hbase := hm.Alloc.Alloc(hspan)
	hits := func() {
		for a := 0; a < hspan; a++ {
			hm.Access(0, hbase+mem.Addr(a), false, 0)
		}
	}
	hits()
	l.set("machine.access_hit_ns", "ns", perOp(7, hspan, func() {
		for i := 0; i < 32; i++ {
			hits()
		}
	})/32)
}

// rws times Engine.Reset between runs that alternate the processor count,
// the policy and the topology, as consecutive /simulate misses do.
func (l *ladderRun) rws() error {
	t0 := time.Now()
	defer l.e.tr.span(l.parent, "rws.reset", 0, t0)
	hier, _ := rws.PolicyByName("hierarchical")
	cfgs := [2]rws.Config{rws.DefaultConfig(8), rws.DefaultConfig(16)}
	cfgs[1].Policy = hier
	cfgs[1].Machine.Topology = machine.Topology{Sockets: 2, CostMissRemote: 40}
	mk, _ := harness.WorkloadMaker("prefix", 1024)
	var pool harness.Runner
	defer pool.Close()
	var xs []float64
	for i := 0; i < 40; i++ {
		eng, root := mk(&pool, cfgs[i%2])
		eng.RunLean(root)
		t := time.Now()
		err := eng.Reset(cfgs[(i+1)%2])
		xs = append(xs, us(time.Since(t)))
		pool.Recycle(eng)
		if err != nil {
			return fmt.Errorf("Engine.Reset: %w", err)
		}
	}
	l.set("rws.reset_us", "us", medianF(xs))
	return nil
}

// alg times the Maker (setup) and RunLean (run) of every registered
// workload, median of 5 seeds: matmul-* at n=256 p=8, the rest at n=1024
// p=16 (n/algDiv and fewer seeds at smoke sizes).
func (l *ladderRun) alg() error {
	var pool harness.Runner
	defer pool.Close()
	for _, name := range harness.Workloads() {
		n, p := 1024/l.e.cfg.sz.algDiv, 16
		if strings.HasPrefix(name, "matmul-") {
			n, p = 256/l.e.cfg.sz.algDiv, 8
		}
		id := l.e.tr.id()
		t0 := time.Now()
		var setups, runs []float64
		for s := int64(0); s < int64(l.e.cfg.sz.algSeeds); s++ {
			cfg := rws.DefaultConfig(p)
			cfg.Seed = l.e.cfg.seed*5 + s
			ts := time.Now()
			mk, ok := harness.WorkloadMaker(name, n)
			if !ok {
				return fmt.Errorf("harness.WorkloadMaker(%q) unknown", name)
			}
			eng, root := mk(&pool, cfg)
			l.e.tr.span(id, "alg."+name+".setup", s+1, ts)
			tRun := time.Now()
			eng.RunLean(root)
			l.e.tr.span(id, "alg."+name+".run", s+1, tRun)
			setups = append(setups, ms(tRun.Sub(ts)))
			runs = append(runs, ms(time.Since(tRun)))
			pool.Recycle(eng)
		}
		l.e.tr.add(id, l.parent, "alg."+name, 0, t0)
		l.set("alg."+name+".setup_ms", "ms", medianF(setups))
		l.set("alg."+name+".run_ms", "ms", medianF(runs))
	}
	return nil
}

// harness times each experiment's Run (at full scale outside the smoke test).
func (l *ladderRun) harness() {
	for _, ex := range harness.All() {
		t0 := time.Now()
		tbl := ex.Run(l.e.cfg.sz.harness)
		l.e.tr.span(l.parent, "harness."+ex.ID, 0, t0)
		l.set("harness."+ex.ID+"_ms", "ms", ms(time.Since(t0)))
		for _, c := range tbl.Checks {
			if !c.Pass {
				l.errs = append(l.errs, fmt.Sprintf("ladder: %s check %q failed: %s", ex.ID, c.Name, c.Detail))
			}
		}
	}
}

// ladderSample is the serve layer's replay set: n fresh requests spread
// evenly over the 16 configs of the /simulate mix.
func ladderSample(wseed int64, n int) []serve.Request {
	out := make([]serve.Request, n)
	for i := range out {
		out[i] = mixRequest(i%simConfigs, wseed<<32|1<<31|int64(i))
	}
	return out
}

// serve replays the sample through an in-process Server.ServeHTTP with
// httptest: each request once as a miss, recomputed in process to split the
// miss into Maker, RunLean and serve overhead, then again as a hit. Last,
// len(sample)/8 fresh requests are each sent twice at once, so the second
// can join the first's in-flight computation as a dedup follower.
func (l *ladderRun) serve(sample []serve.Request) (breakdown, error) {
	var br breakdown
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	var pool harness.Runner
	defer pool.Close()
	call := func(name string, r serve.Request, req int64) (time.Duration, []byte, error) {
		body, err := json.Marshal(r)
		if err != nil {
			return 0, nil, err
		}
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(body))
		t0 := time.Now()
		srv.ServeHTTP(rec, hr)
		d := time.Since(t0)
		l.e.tr.span(l.parent, name, req, t0)
		if rec.Code != http.StatusOK {
			return d, nil, fmt.Errorf("in-process /simulate %s n=%d: status %d: %s", r.Alg, r.N, rec.Code, rec.Body.Bytes())
		}
		return d, rec.Body.Bytes(), nil
	}

	var miss, over, makers, runs, hits []time.Duration
	for i, r := range sample {
		d, _, err := call("serve.miss", r, int64(i+1))
		if err != nil {
			return br, err
		}
		t0 := time.Now()
		_, mk, run, err := recompute(&pool, r)
		l.e.tr.span(l.parent, "alg.recompute", int64(i+1), t0)
		if err != nil {
			return br, err
		}
		miss, over = append(miss, d), append(over, d-mk-run)
		makers, runs = append(makers, mk), append(runs, run)
	}
	for i, r := range sample {
		d, body, err := call("serve.hit", r, int64(i+1))
		if err != nil {
			return br, err
		}
		if !bytes.Contains(body, []byte(`"cached":true`)) {
			l.errs = append(l.errs, fmt.Sprintf("ladder: repeated request %d was not a cache hit", i))
		}
		hits = append(hits, d)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(sample)/4)
	for i := 0; i < len(sample)/8; i++ {
		r := mixRequest(i%simConfigs, l.e.cfg.seed<<32|1<<30|int64(i))
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				_, _, errs[2*i+k] = call("serve.dedup", r, int64(i+1))
			}(k)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return br, err
		}
	}

	t0 := time.Now()
	l.set("serve.key_ns", "ns", perOp(9, len(sample)*20, func() {
		for rep := 0; rep < 20; rep++ {
			for i := range sample {
				keySink = sample[i].Key()
			}
		}
	}))
	l.e.tr.span(l.parent, "serve.key", 0, t0)

	br.serveMiss, br.overhead = quantile(miss, 0.5), quantile(over, 0.5)
	br.maker, br.run, br.serveHit = quantile(makers, 0.5), quantile(runs, 0.5), quantile(hits, 0.5)
	l.set("serve.miss_ms", "ms", ms(br.serveMiss))
	l.set("serve.miss_overhead_us", "us", us(br.overhead))
	l.set("serve.hit_us", "us", us(br.serveHit))
	st := srv.Stats()
	l.set("serve.cache_hit_frac", "ratio", float64(st.CacheHits)/float64(st.OK))
	l.set("serve.dedup_frac", "ratio", float64(st.Dedups)/float64(st.OK))
	l.set("serve.sims_per_ok", "ratio", float64(st.Simulations)/float64(st.OK))
	return br, nil
}

// probe replays the same sample over loopback against a fresh
// `rwsimd -workers 2`: misses, then hits. Loopback minus in-process is the
// HTTP layer's share. With withJournal, the probe also writes a journal (a
// batch of a quarter of a batch_journal job) and returns it with the time of
// a -warm-cache restart over it.
func (l *ladderRun) probe(sample []serve.Request, withJournal bool, br *breakdown) (string, time.Duration, error) {
	journal := filepath.Join(l.e.work, "probe-journal")
	if err := os.RemoveAll(journal); err != nil {
		return "", 0, err
	}
	args := []string{"-workers", "2", "-journal-dir", journal}
	d, _, err := l.e.startDaemon(args...)
	if err != nil {
		return "", 0, err
	}
	var loopMiss, loopHit []time.Duration
	for pass, name := range []string{"rwsimd.miss", "rwsimd.hit"} {
		for i, r := range sample {
			t0 := time.Now()
			status, body, err := l.e.post(d.url+"/simulate", r)
			dur := time.Since(t0)
			l.e.tr.span(l.parent, name, int64(i+1), t0)
			if err != nil || status != http.StatusOK {
				return "", 0, fmt.Errorf("probe %s %d: status %d, err %v: %s", name, i, status, err, body)
			}
			if pass == 0 {
				loopMiss = append(loopMiss, dur)
			} else {
				loopHit = append(loopHit, dur)
			}
		}
	}
	br.loopMiss = quantile(loopMiss, 0.5)
	l.set("rwsimd.http_hit_us", "us", us(quantile(loopHit, 0.5)-br.serveHit))

	if !withJournal {
		_, err := d.stop()
		return "", 0, err
	}
	spec := batchSpec(l.e.cfg.seed, 1<<17, l.e.cfg.sz.batchSeeds/4)
	t0 := time.Now()
	sj, err := l.e.submitBatch(d, spec)
	l.e.tr.span(l.parent, "rwsimd.batch", 1, t0)
	if err != nil {
		return "", 0, err
	}
	if sj.notOK != 0 {
		l.errs = append(l.errs, fmt.Sprintf("ladder: probe batch had %d rows not ok", sj.notOK))
	}
	if _, err := d.stop(); err != nil {
		return "", 0, err
	}
	t0 = time.Now()
	d, took, err := l.e.startDaemon(append(args, "-warm-cache")...)
	if err != nil {
		return "", 0, err
	}
	l.e.tr.span(l.parent, "setup.rwsimd", 1, t0)
	_, err = d.stop()
	return journal, took, err
}

// jobs times JobLog.AppendRow with its fsync on a fresh journal, and
// Journal.Replay over journal. What a -warm-cache restart over that journal
// (setup) spends beyond the replay is start-up and row verification.
func (l *ladderRun) jobs(journal string, setup time.Duration) error {
	dir := filepath.Join(l.e.work, "append-journal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	jr, err := jobs.OpenJournal(dir)
	if err != nil {
		return err
	}
	spec := batchSpec(l.e.cfg.seed, 0, 1)
	log, err := jr.Create("append", &spec)
	if err != nil {
		return err
	}
	result := json.RawMessage(`[{"seed":1,"makespan":123456,"work_ticks":654321,"steals":42,"failed_steals":17,"spawns":1023,"usurpations":3,"cache_misses":4096,"block_misses":512,"block_wait_ticks":2048,"block_transfers":4608,"max_transfers_per_block":9,"remote_fetches":0,"remote_steals":0,"steal_latency":0}]`)
	var appends []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		err := log.AppendRow(jobs.RowRecord{Index: i, Key: fmt.Sprintf("%064x", i), Status: jobs.RowOK, Result: result})
		appends = append(appends, time.Since(t0))
		l.e.tr.span(l.parent, "jobs.append", int64(i+1), t0)
		if err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	l.set("jobs.append_us", "us", us(quantile(appends, 0.5)))

	rj, err := jobs.OpenJournal(journal)
	if err != nil {
		return err
	}
	var replays []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		got, err := rj.Replay()
		replays = append(replays, ms(time.Since(t0)))
		l.e.tr.span(l.parent, "jobs.replay", int64(i+1), t0)
		if err != nil {
			return err
		}
		if len(got) == 0 {
			return fmt.Errorf("journal %s replayed no jobs", journal)
		}
	}
	replay := medianF(replays)
	l.set("jobs.replay_ms", "ms", replay)
	l.set("serve.warm_verify_ms", "ms", ms(setup)-replay)
	return nil
}

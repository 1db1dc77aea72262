package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"rwsfs/internal/harness"
	"rwsfs/internal/machine"
	"rwsfs/internal/rws"
	"rwsfs/internal/serve"
)

// simMix is the (alg, n) half of every /simulate request: one kernel from
// each family the paper analyses, sized so a miss costs a few milliseconds.
// Each pair is sent under two machines (see mixRequest), 16 configs in all.
var simMix = []struct {
	alg string
	n   int
}{
	{"prefix", 1024}, {"transpose", 256}, {"sort-col", 1024}, {"fft", 1024},
	{"listrank", 512}, {"conncomp", 512}, {"bi2rm-natural", 256}, {"matmul-log", 64},
}

const simConfigs = 16 // len(simMix) pairs × {uniform/flat, hierarchical/2 sockets}

// mixRequest builds config c of the mix at seed as the fully normalized
// request, every default spelled out, so that Request.Key here equals the
// key the daemon computes.
func mixRequest(c int, seed int64) serve.Request {
	unlimited := int64(-1)
	r := serve.Request{
		Alg: simMix[c%len(simMix)].alg, N: simMix[c%len(simMix)].n, P: 8, Seed: seed, Runs: 1,
		BlockWords: 16, CacheWords: 4096, CostMiss: 10, CostSteal: 20, CostFailSteal: 10,
		Policy: "uniform", Sockets: 1, Budget: &unlimited,
	}
	if c >= len(simMix) {
		r.Policy, r.Sockets, r.CostMissRemote, r.StealCostRemote = "hierarchical", 2, 40, 30
	}
	return r
}

// freshSeed returns the seed of fresh request i of client c (c = simClients
// for the warm-up): disjoint from every other client's and from the hot
// set's, so the key is new to the daemon.
func freshSeed(wseed int64, c, i int) int64 {
	return wseed<<32 | int64(c+1)<<28 | int64(i)
}

// hotSet is the simulate_hot working set: hotKeys requests, ordered by
// popularity rank after a seed-driven shuffle.
func hotSet(wseed int64, hotKeys int) []serve.Request {
	out := make([]serve.Request, hotKeys)
	for j := range out {
		out[j] = mixRequest(j%simConfigs, wseed<<32|int64(j/simConfigs))
	}
	rng := rand.New(rand.NewSource(wseed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// generator yields one client's request sequence, a pure function of the
// workload seed and the client number.
type generator struct {
	wseed  int64
	client int
	rng    *rand.Rand
	zipf   *rand.Zipf // nil for the all-miss mix
	hot    []serve.Request
	fresh  int
}

func newGenerator(wseed int64, client int, hot []serve.Request) *generator {
	g := &generator{wseed: wseed, client: client, hot: hot,
		rng: rand.New(rand.NewSource(wseed*7919 + int64(client)))}
	if len(hot) > 0 {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(hot)-1))
	}
	return g
}

// next returns the next request: a Zipf(1.1) draw from the hot set 90% of
// the time when there is one, otherwise a fresh key from a uniform config.
func (g *generator) next() serve.Request {
	if g.zipf != nil && g.rng.Float64() < 0.9 {
		return g.hot[g.zipf.Uint64()]
	}
	g.fresh++
	return mixRequest(g.rng.Intn(simConfigs), freshSeed(g.wseed, g.client, g.fresh))
}

// simResponse is the part of a /simulate 200 body the gates read.
type simResponse struct {
	Key  string             `json:"key"`
	Alg  string             `json:"alg"`
	Runs []serve.RunSummary `json:"runs"`
}

// sampled is one response kept for the recompute gate.
type sampled struct {
	req  serve.Request
	body []byte
}

const (
	simClients = 2
	gateSample = 32 // responses per run checked against an in-process recompute
)

func runSimulateMiss(e *env) (*outcome, error) { return runSimulate(e, false) }
func runSimulateHot(e *env) (*outcome, error)  { return runSimulate(e, true) }

// runSimulate drives a closed loop of simClients clients against a loopback
// `rwsimd -workers 2` with default flags for the window.
func runSimulate(e *env, hot bool) (*outcome, error) {
	o := &outcome{unit: "request", latOf: "request"}
	args := []string{"-workers", "2"}
	d, err := e.daemonSetups(o, setupRepeats-setupRepeats/2, args)
	if err != nil {
		return nil, err
	}

	// Two untimed fresh requests per config build every worker's engines
	// first. The hot set is also sent once, untimed, so the window starts
	// with it cached; later fresh keys evict through the default 1024-entry
	// LRU.
	warm := make([]serve.Request, 2*simConfigs)
	for i := range warm {
		warm[i] = mixRequest(i%simConfigs, freshSeed(e.cfg.seed, simClients, i))
	}
	var hotKeys []serve.Request
	if hot {
		hotKeys = hotSet(e.cfg.seed, e.cfg.sz.hotKeys)
		warm = append(warm, hotKeys...)
	}
	if err := e.prime(d, warm); err != nil {
		return nil, err
	}

	winID := e.tr.id()
	start := time.Now()
	end := start.Add(e.cfg.window)
	results := make([]clientResult, simClients)
	var wg sync.WaitGroup
	for c := 0; c < simClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = e.loadClient(d, newGenerator(e.cfg.seed, c, hotKeys), c, end, winID)
		}(c)
	}
	wg.Wait()
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	o.window = time.Since(start)
	e.tr.add(winID, 0, "workload.simulate", 0, start)

	var sample []sampled
	for _, r := range results {
		o.attempted += r.sent
		o.failed += r.non200
		o.done += r.sent - r.non200
		o.lat = append(o.lat, r.lat...)
		o.hits += r.hits
		sample = append(sample, r.sample...)
		if r.err != nil {
			o.gateErrs = append(o.gateErrs, r.err.Error())
		}
	}
	if err := e.getJSON(d.url+"/statz", &o.statz); err != nil {
		return nil, err
	}
	e.stopDaemon(d, o)
	o.gateErrs = append(o.gateErrs, recomputeGate(sample)...)

	// The rest of the set-up samples come after the window, so that their
	// median spans the run rather than one moment of it.
	last, err := e.daemonSetups(o, setupRepeats/2, args)
	if err != nil {
		return nil, err
	}
	if _, err := last.stop(); err != nil {
		return nil, err
	}
	return o, nil
}

// daemonSetups starts rwsimd n times, keeping the last one running; each
// start's exec-to-/healthz time is a set-up sample.
func (e *env) daemonSetups(o *outcome, n int, args []string) (*daemon, error) {
	setupID := e.tr.id()
	setupStart := time.Now()
	defer e.tr.add(setupID, 0, "setup", 0, setupStart)
	for i := 1; ; i++ {
		t0 := time.Now()
		d, took, err := e.startDaemon(args...)
		if err != nil {
			return nil, err
		}
		e.tr.span(setupID, "setup.rwsimd", int64(len(o.setups)+1), t0)
		o.setups = append(o.setups, took)
		if i == n {
			return d, nil
		}
		if _, err := d.stop(); err != nil {
			return nil, err
		}
	}
}

// stopDaemon drains d and records its peak resident set.
func (e *env) stopDaemon(d *daemon, o *outcome) {
	kb, err := d.stop()
	if err != nil {
		o.gateErrs = append(o.gateErrs, err.Error())
		return
	}
	o.peakKB = max(o.peakKB, kb)
}

// prime sends every request once, from simClients clients, and requires 200s.
func (e *env) prime(d *daemon, reqs []serve.Request) error {
	errs := make([]error, simClients)
	var wg sync.WaitGroup
	for c := 0; c < simClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += simClients {
				if status, body, err := e.post(d.url+"/simulate", reqs[i]); err != nil || status != http.StatusOK {
					errs[c] = fmt.Errorf("priming request %d: status %d, err %v: %s", i, status, err, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// clientResult is what one load client saw.
type clientResult struct {
	sent, non200, hits int64
	lat                []time.Duration
	sample             []sampled
	err                error
}

// loadClient sends g's requests back to back until end. Each response's
// latency is recorded; gateSample/simClients responses, chosen by reservoir
// sampling over the whole window, are kept for the recompute gate.
func (e *env) loadClient(d *daemon, g *generator, c int, end time.Time, winID int64) clientResult {
	var r clientResult
	keep := rand.New(rand.NewSource(e.cfg.seed ^ int64(c+1)<<40))
	per := gateSample / simClients
	for time.Now().Before(end) && e.ctx.Err() == nil {
		req := g.next()
		reqID := int64(c+1)<<40 | (r.sent + 1)
		t0 := time.Now()
		status, body, err := e.post(d.url+"/simulate", req)
		r.lat = append(r.lat, time.Since(t0))
		e.tr.span(winID, "rwsimd.simulate", reqID, t0)
		r.sent++
		if err != nil || status != http.StatusOK {
			r.non200++
			if r.err == nil {
				r.err = fmt.Errorf("client %d request %d: status %d, err %v: %s", c, r.sent, status, err, body)
			}
			continue
		}
		if bytes.Contains(body, []byte(`"cached":true`)) {
			r.hits++
		}
		if ok := r.sent - r.non200; int(ok) <= per {
			r.sample = append(r.sample, sampled{req, body})
		} else if j := keep.Int63n(ok); j < int64(per) {
			r.sample[j] = sampled{req, body}
		}
	}
	return r
}

// post sends v as JSON and returns the status and body.
func (e *env) post(url string, v any) (int, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(e.ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// recomputeGate checks each sampled response field for field against the
// same request recomputed in process through WorkloadMaker and RunLean.
func recomputeGate(sample []sampled) []string {
	var errs []string
	var pool harness.Runner
	defer pool.Close()
	for _, s := range sample {
		var got simResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			errs = append(errs, fmt.Sprintf("recompute gate: decode %q: %v", s.body, err))
			continue
		}
		sum, _, _, err := recompute(&pool, s.req)
		switch {
		case err != nil:
			errs = append(errs, fmt.Sprintf("recompute gate: %v", err))
		case got.Key != s.req.Key() || got.Alg != s.req.Alg:
			errs = append(errs, fmt.Sprintf("recompute gate: key/alg %s/%s, want %s/%s", got.Key, got.Alg, s.req.Key(), s.req.Alg))
		case len(got.Runs) != 1 || got.Runs[0] != sum:
			errs = append(errs, fmt.Sprintf("recompute gate: %s seed %d: runs %+v, recomputed %+v", s.req.Alg, s.req.Seed, got.Runs, sum))
		}
	}
	return errs
}

// recompute runs one normalized single-run request in process and returns
// its wire summary plus the Maker (setup) and RunLean times.
func recompute(pool *harness.Runner, r serve.Request) (serve.RunSummary, time.Duration, time.Duration, error) {
	cfg, err := runConfig(r)
	if err != nil {
		return serve.RunSummary{}, 0, 0, err
	}
	t0 := time.Now()
	mk, ok := harness.WorkloadMaker(r.Alg, r.N)
	if !ok {
		return serve.RunSummary{}, 0, 0, fmt.Errorf("unknown alg %q", r.Alg)
	}
	eng, root := mk(pool, cfg)
	t1 := time.Now()
	res := eng.RunLean(root)
	t2 := time.Now()
	pool.Recycle(eng)
	return summary(r.Seed, res), t1.Sub(t0), t2.Sub(t1), nil
}

// runConfig is the rws.Config of a normalized request, built from the
// request's documented meaning (serve.Request) rather than the daemon's code.
func runConfig(r serve.Request) (rws.Config, error) {
	pol, ok := rws.PolicyByName(r.Policy)
	if !ok {
		return rws.Config{}, fmt.Errorf("unknown policy %q", r.Policy)
	}
	cfg := rws.DefaultConfig(r.P)
	cfg.Machine.B = r.BlockWords
	cfg.Machine.M = r.CacheWords
	cfg.Machine.CostMiss = machine.Tick(r.CostMiss)
	cfg.Machine.CostSteal = machine.Tick(r.CostSteal)
	cfg.Machine.CostFailSteal = machine.Tick(r.CostFailSteal)
	cfg.Seed = r.Seed
	cfg.StealBudget = *r.Budget
	cfg.Policy = pol
	if r.Sockets > 1 {
		cfg.Machine.Topology = machine.Topology{Sockets: r.Sockets, CostMissRemote: machine.Tick(r.CostMissRemote)}
	}
	cfg.Machine.Topology.CostSteal = machine.Tick(r.StealCost)
	cfg.Machine.Topology.CostStealRemote = machine.Tick(r.StealCostRemote)
	return cfg, nil
}

// summary is the wire form of one run's result.
func summary(seed int64, res rws.Result) serve.RunSummary {
	return serve.RunSummary{
		Seed:                 seed,
		Makespan:             int64(res.Makespan),
		WorkTicks:            int64(res.Totals.WorkTicks),
		Steals:               res.Steals,
		FailedSteals:         res.FailedSteals,
		Spawns:               res.Spawns,
		Usurpations:          res.Usurpations,
		CacheMisses:          res.Totals.CacheMisses,
		BlockMisses:          res.Totals.BlockMisses,
		BlockWaitTicks:       int64(res.Totals.BlockWait),
		BlockTransfers:       res.BlockTransfersTotal,
		MaxTransfersPerBlock: res.BlockTransfersMax,
		RemoteFetches:        res.Totals.RemoteFetches,
		RemoteSteals:         res.Totals.RemoteSteals,
		StealLatency:         int64(res.Totals.StealLatency),
	}
}

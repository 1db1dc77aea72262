package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"rwsfs/internal/harness"
	"rwsfs/internal/machine"
	"rwsfs/internal/rws"
)

// Request is one policy-keyed simulation request: "what would workload Alg
// at size N do on this machine, under this steal policy, with this seed?".
// Omitted fields take the simulator's defaults (the paper's machine), so the
// canonical key of a request is computed over the *normalized* form — two
// requests that differ only in how they spell a default hash identically.
type Request struct {
	// Alg names the workload (see harness.Workloads / GET /workloads).
	Alg string `json:"alg"`
	// N is the problem size (matrix side, vector length, ...).
	N int `json:"n"`
	// P is the simulated processor count.
	P int `json:"p"`
	// Seed drives the scheduling RNG; same normalized request ⇒ byte-equal
	// result, which is what makes the result cache trivially correct.
	Seed int64 `json:"seed"`
	// Runs asks for a seed sweep: Runs consecutive seeds starting at Seed,
	// one summary per seed. 0 means 1. Deadline cancellation lands between
	// runs (each individual run always completes).
	Runs int `json:"runs,omitempty"`

	// Machine shape; zero means the default (B=16, M=4096, b=10, s=20,
	// fail=b).
	BlockWords    int   `json:"block_words,omitempty"`
	CacheWords    int   `json:"cache_words,omitempty"`
	CostMiss      int64 `json:"cost_miss,omitempty"`
	CostSteal     int64 `json:"cost_steal,omitempty"`
	CostFailSteal int64 `json:"cost_fail_steal,omitempty"`

	// Policy names the steal discipline (rws.PolicyByName); "" means
	// "uniform", the paper's.
	Policy string `json:"policy,omitempty"`
	// Topology: sockets plus the cross-socket transfer / steal-probe prices,
	// exactly the cmd/rwsim knobs.
	Sockets         int   `json:"sockets,omitempty"`
	CostMissRemote  int64 `json:"cost_miss_remote,omitempty"`
	StealCost       int64 `json:"steal_cost,omitempty"`
	StealCostRemote int64 `json:"steal_cost_remote,omitempty"`

	// Budget caps successful steals; nil means unlimited (-1). A pointer,
	// because 0 ("no steals at all") is a meaningful budget.
	Budget *int64 `json:"budget,omitempty"`

	// DeadlineMS bounds this request's wall-clock time in the service,
	// queueing included. 0 means the server's default. Deliberately NOT part
	// of the canonical key: it shapes the serving, not the result.
	DeadlineMS int `json:"deadline_ms,omitempty"`

	// Trace opts this request into an attempt timeline attached to the
	// response envelope. Like DeadlineMS it shapes serving only — it is
	// excluded from the canonical key, and the timeline rides outside the
	// cacheable payload so traced and untraced result bytes are identical.
	Trace bool `json:"trace,omitempty"`
}

// Limits bound what a single request may ask of the host; requests beyond
// them are rejected up front with a typed 400 rather than admitted and
// allowed to monopolize a worker.
type Limits struct {
	MaxN    int // problem size ceiling (default 2048)
	MaxP    int // simulated processor ceiling (default 128)
	MaxRuns int // seed-sweep width ceiling (default 64)
}

func (l Limits) withDefaults() Limits {
	if l.MaxN <= 0 {
		l.MaxN = 2048
	}
	if l.MaxP <= 0 {
		l.MaxP = 128
	}
	if l.MaxRuns <= 0 {
		l.MaxRuns = 64
	}
	return l
}

// normalize fills defaulted fields in place so that validation, hashing and
// config construction all see one canonical form.
func (r *Request) normalize() {
	if r.Runs <= 0 {
		r.Runs = 1
	}
	if r.BlockWords == 0 {
		r.BlockWords = 16
	}
	if r.CacheWords == 0 {
		r.CacheWords = 4096
	}
	if r.CostMiss == 0 {
		r.CostMiss = 10
	}
	if r.CostSteal == 0 {
		r.CostSteal = 20
	}
	if r.CostFailSteal == 0 {
		r.CostFailSteal = r.CostMiss
	}
	if r.Policy == "" {
		r.Policy = "uniform"
	}
	if r.Sockets <= 0 {
		r.Sockets = 1
	}
	if r.Budget == nil {
		unlimited := int64(-1)
		r.Budget = &unlimited
	}
}

// validate checks a normalized request against the registry, the limits and
// the machine's own parameter validation. It returns a human-readable reason
// suitable for a typed 400 body.
func (r *Request) validate(lim Limits) error {
	if r.Alg == "" {
		return fmt.Errorf("missing \"alg\" (one of %v)", harness.Workloads())
	}
	if harness.CheckSize(r.Alg, 1) != nil { // every workload runs at n = 1
		return fmt.Errorf("unknown alg %q (one of %v)", r.Alg, harness.Workloads())
	}
	if r.N <= 0 || r.N > lim.MaxN {
		return fmt.Errorf("n=%d out of range (0, %d]", r.N, lim.MaxN)
	}
	if err := harness.CheckSize(r.Alg, r.N); err != nil {
		return err
	}
	if r.P <= 0 || r.P > lim.MaxP {
		return fmt.Errorf("p=%d out of range (0, %d]", r.P, lim.MaxP)
	}
	if r.Runs > lim.MaxRuns {
		return fmt.Errorf("runs=%d out of range (0, %d]", r.Runs, lim.MaxRuns)
	}
	if *r.Budget < -1 {
		return fmt.Errorf("budget=%d invalid (-1 = unlimited, >= 0 = cap)", *r.Budget)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms=%d invalid", r.DeadlineMS)
	}
	if _, ok := rws.PolicyByName(r.Policy); !ok {
		return fmt.Errorf("unknown policy %q", r.Policy)
	}
	if r.Sockets <= 1 && r.CostMissRemote != 0 {
		return fmt.Errorf("cost_miss_remote requires sockets > 1")
	}
	if r.Sockets <= 1 && r.StealCostRemote != 0 {
		return fmt.Errorf("steal_cost_remote requires sockets > 1")
	}
	cfg, err := r.config()
	if err != nil {
		return err
	}
	return cfg.Machine.Validate()
}

// config builds the rws.Config of one run of a normalized request (seed
// offsets for multi-run sweeps are applied by the worker).
func (r *Request) config() (rws.Config, error) {
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
		cfg.Machine.Topology = machine.Topology{
			Sockets:        r.Sockets,
			CostMissRemote: machine.Tick(r.CostMissRemote),
		}
	}
	cfg.Machine.Topology.CostSteal = machine.Tick(r.StealCost)
	cfg.Machine.Topology.CostStealRemote = machine.Tick(r.StealCostRemote)
	return cfg, nil
}

// Key returns the canonical Config hash of a normalized request: SHA-256
// over the canonical rendering of every result-determining field,
//
//	alg=…&n=…&p=…&seed=…&runs=…&B=…&M=…&miss=…&steal=…&fail=…&policy=…&sockets=…&remote=…&scost=…&scostr=…&budget=…
//
// with the strings as they are and the integers in decimal. Two requests
// with the same key produce byte-equal results (determinism of the engine
// plus deterministic workload inputs), which is what licenses the result
// table's dedup and cache; journaled rows carry these keys, so the
// rendering never changes. DeadlineMS is excluded: it affects
// serving, never the simulated result.
func (r *Request) Key() string {
	var buf [192]byte
	b := append(append(buf[:0], "alg="...), r.Alg...)
	b = appendKeyInt(b, "&n=", int64(r.N))
	b = appendKeyInt(b, "&p=", int64(r.P))
	b = appendKeyInt(b, "&seed=", r.Seed)
	b = appendKeyInt(b, "&runs=", int64(r.Runs))
	b = appendKeyInt(b, "&B=", int64(r.BlockWords))
	b = appendKeyInt(b, "&M=", int64(r.CacheWords))
	b = appendKeyInt(b, "&miss=", r.CostMiss)
	b = appendKeyInt(b, "&steal=", r.CostSteal)
	b = appendKeyInt(b, "&fail=", r.CostFailSteal)
	b = append(append(b, "&policy="...), r.Policy...)
	b = appendKeyInt(b, "&sockets=", int64(r.Sockets))
	b = appendKeyInt(b, "&remote=", r.CostMissRemote)
	b = appendKeyInt(b, "&scost=", r.StealCost)
	b = appendKeyInt(b, "&scostr=", r.StealCostRemote)
	b = appendKeyInt(b, "&budget=", *r.Budget)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// appendKeyInt appends one integer field of a key's canonical rendering.
func appendKeyInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

// RunSummary condenses one run's rws.Result into the wire form. The fields
// are a pure function of the normalized request (bit-for-bit engine
// determinism), so cached and fresh summaries are byte-equal — the cache
// tests assert exactly that.
type RunSummary struct {
	Seed                 int64 `json:"seed"`
	Makespan             int64 `json:"makespan"`
	WorkTicks            int64 `json:"work_ticks"`
	Steals               int64 `json:"steals"`
	FailedSteals         int64 `json:"failed_steals"`
	Spawns               int64 `json:"spawns"`
	Usurpations          int64 `json:"usurpations"`
	CacheMisses          int64 `json:"cache_misses"`
	BlockMisses          int64 `json:"block_misses"`
	BlockWaitTicks       int64 `json:"block_wait_ticks"`
	BlockTransfers       int64 `json:"block_transfers"`
	MaxTransfersPerBlock int64 `json:"max_transfers_per_block"`
	RemoteFetches        int64 `json:"remote_fetches"`
	RemoteSteals         int64 `json:"remote_steals"`
	StealLatency         int64 `json:"steal_latency"`
}

// summarize condenses a Result for the wire.
func summarize(seed int64, res rws.Result) RunSummary {
	return RunSummary{
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

// payload is the shared (cacheable, dedup-shareable) part of a response.
type payload struct {
	Key    string `json:"key"`
	Alg    string `json:"alg"`
	Cached bool   `json:"cached"`
	// Runs is exactly json.Marshal's bytes for the result's []RunSummary:
	// marshalled once by the worker (or stored after canonicalRuns passed
	// them) and written as they are by /simulate, the batch stream, the
	// journal, the grid and /corpus. encoding/json compacts a RawMessage,
	// which leaves these bytes unchanged.
	Runs json.RawMessage `json:"runs"`

	// warmSrc marks a payload loaded from outside this process's own
	// computations: sourceJournal (batch journal warm-up at startup,
	// Config.WarmCache) or sourcePeer (fleet corpus import, Config.Peers).
	// Empty for locally computed payloads. Unexported, so it never reaches
	// the wire — it only feeds cache_hit / batch-row provenance.
	warmSrc string

	// req is the normalized request that produced this payload, in its wire
	// form (wireRequest), kept so GET /corpus can export the row with enough
	// context for an importer to re-verify the key against a
	// re-canonicalized request. Unexported: never serialized into responses.
	req Request
}

// Response is the full success body: the shared payload plus per-request
// serving metadata.
type Response struct {
	payload
	// Dedup marks a response that shared another in-flight request's
	// computation (single-flight).
	Dedup bool `json:"dedup,omitempty"`
	// ElapsedMS is this request's wall-clock time in the service.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Trace is the request's attempt timeline, present only when the request
	// set "trace": true. It lives outside the shared payload: attaching it
	// never perturbs the cached/deduped/fresh byte-identity of the result.
	Trace *Timeline `json:"trace,omitempty"`
}

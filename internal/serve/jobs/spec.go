// Package jobs is the durable batch-job layer behind rwsimd's /batch
// endpoints: a sweep Spec that expands into row-level work items, an
// append-only journal, fsync'd once per group of rows, that makes finished
// rows survive process death, a per-key circuit breaker that quarantines poisoned
// configurations, and a Job row-state machine that feeds both the NDJSON
// stream and the status endpoint.
//
// The package is deliberately independent of the serving layer: rows are
// identified by an opaque key (the serving layer's canonical SHA-256
// request hash) and results are opaque JSON, so the journal can replay a
// job without knowing how rows are computed.
//
// Replay reads a row line that holds exactly what json.Marshal writes for a
// terminal RowRecord with a one-pass scanner (scanRow) that builds the
// record without reflection; the spec line and every other line take
// json.Unmarshal, which is both the scanner's fallback and its fuzz oracle
// (FuzzJournalRow per line, FuzzJournalReplay per file).
package jobs

import (
	"fmt"
	"math"
)

// Spec is one batch sweep: the cross product of the listed dimensions,
// sharing the scalar machine knobs. The expansion order is fixed
// (alg → n → p → policy → sockets → seed, each list in given order), so the
// same spec always produces the same rows at the same indexes — resume
// depends on it, and the final grid of a resumed job is byte-identical to
// an uninterrupted run.
type Spec struct {
	// Swept dimensions. Algs, Ns, Ps and Seeds are required non-empty;
	// Policies defaults to ["uniform"] and Sockets to [1].
	Algs     []string `json:"algs"`
	Ns       []int    `json:"ns"`
	Ps       []int    `json:"ps"`
	Seeds    []int64  `json:"seeds"`
	Policies []string `json:"policies,omitempty"`
	Sockets  []int    `json:"sockets,omitempty"`

	// Runs is the per-row seed-sweep width (consecutive seeds per cell);
	// 0 means 1.
	Runs int `json:"runs,omitempty"`

	// Scalar machine knobs, applied to every row; zero values take the
	// serving layer's defaults.
	BlockWords      int    `json:"block_words,omitempty"`
	CacheWords      int    `json:"cache_words,omitempty"`
	CostMiss        int64  `json:"cost_miss,omitempty"`
	CostSteal       int64  `json:"cost_steal,omitempty"`
	CostFailSteal   int64  `json:"cost_fail_steal,omitempty"`
	CostMissRemote  int64  `json:"cost_miss_remote,omitempty"`
	StealCost       int64  `json:"steal_cost,omitempty"`
	StealCostRemote int64  `json:"steal_cost_remote,omitempty"`
	Budget          *int64 `json:"budget,omitempty"`

	// RowDeadlineMS bounds each row's wall-clock time in the service
	// (0 = the server's default). Like the request-level deadline it shapes
	// serving, never results, so it is not part of any row key.
	RowDeadlineMS int `json:"row_deadline_ms,omitempty"`
}

// Cell is one expanded grid cell: the swept coordinates of a single row.
// The scalar knobs live on the Spec.
type Cell struct {
	Alg     string
	N       int
	P       int
	Seed    int64
	Policy  string
	Sockets int
}

// Normalize fills the defaulted dimensions in place so that validation,
// expansion and journal replay all see one canonical spec.
func (s *Spec) Normalize() {
	if len(s.Policies) == 0 {
		s.Policies = []string{"uniform"}
	}
	if len(s.Sockets) == 0 {
		s.Sockets = []int{1}
	}
	if s.Runs <= 0 {
		s.Runs = 1
	}
}

// Validate checks the dimension lists of a normalized spec. Per-row limits
// (problem size, processor count, policy names) are the serving layer's to
// enforce on the expanded rows.
func (s *Spec) Validate() error {
	switch {
	case len(s.Algs) == 0:
		return fmt.Errorf("batch spec: missing \"algs\"")
	case len(s.Ns) == 0:
		return fmt.Errorf("batch spec: missing \"ns\"")
	case len(s.Ps) == 0:
		return fmt.Errorf("batch spec: missing \"ps\"")
	case len(s.Seeds) == 0:
		return fmt.Errorf("batch spec: missing \"seeds\"")
	}
	if s.RowDeadlineMS < 0 {
		return fmt.Errorf("batch spec: row_deadline_ms=%d invalid", s.RowDeadlineMS)
	}
	return nil
}

// RowCount returns the number of rows the spec expands to, without
// materializing them — callers bound grids before paying for the expansion.
// The six dimension lengths are user-controlled and their product can exceed
// an int (six lists of 32768 entries fit in a small body but multiply to
// 2^90), so the multiplication is overflow-checked and saturates at MaxInt:
// any bound a caller enforces rejects the grid instead of being wrapped past.
func (s *Spec) RowCount() int {
	n := 1
	for _, dim := range [...]int{
		len(s.Algs), len(s.Ns), len(s.Ps),
		len(s.Policies), len(s.Sockets), len(s.Seeds),
	} {
		if dim == 0 {
			return 0
		}
		if n > math.MaxInt/dim {
			return math.MaxInt
		}
		n *= dim
	}
	return n
}

// Expand materializes the grid in the fixed order documented on Spec.
func (s *Spec) Expand() []Cell {
	out := make([]Cell, 0, s.RowCount())
	for _, alg := range s.Algs {
		for _, n := range s.Ns {
			for _, p := range s.Ps {
				for _, pol := range s.Policies {
					for _, sock := range s.Sockets {
						for _, seed := range s.Seeds {
							out = append(out, Cell{
								Alg: alg, N: n, P: p,
								Seed: seed, Policy: pol, Sockets: sock,
							})
						}
					}
				}
			}
		}
	}
	return out
}

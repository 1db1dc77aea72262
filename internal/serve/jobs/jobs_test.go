package jobs

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestSpecRowCountSaturatesOnOverflow pins the overflow guard: six
// user-controlled dimension lists whose product exceeds an int (here 2^90
// from a sub-megabyte body) must saturate RowCount at MaxInt so every
// caller-side bound rejects the grid, instead of wrapping to a small or
// negative count that sails past the check and materializes the cross
// product.
func TestSpecRowCountSaturatesOnOverflow(t *testing.T) {
	dim := 1 << 15
	s := Spec{
		Algs: make([]string, dim), Ns: make([]int, dim), Ps: make([]int, dim),
		Seeds: make([]int64, dim), Policies: make([]string, dim), Sockets: make([]int, dim),
	}
	s.Normalize()
	if got := s.RowCount(); got != math.MaxInt {
		t.Fatalf("overflowing grid: want MaxInt, got %d", got)
	}
	small := Spec{Algs: []string{"a", "b"}, Ns: []int{1, 2, 3}, Ps: []int{1}, Seeds: []int64{1, 2}}
	small.Normalize()
	if got := small.RowCount(); got != 12 {
		t.Fatalf("small grid: want 12, got %d", got)
	}
}

func TestSpecNormalizeAndCount(t *testing.T) {
	s := Spec{Algs: []string{"prefix"}, Ns: []int{64}, Ps: []int{2, 4}, Seeds: []int64{1, 2, 3}}
	s.Normalize()
	if !reflect.DeepEqual(s.Policies, []string{"uniform"}) || !reflect.DeepEqual(s.Sockets, []int{1}) {
		t.Fatalf("defaults not filled: %+v", s)
	}
	if s.Runs != 1 {
		t.Fatalf("runs default: %d", s.Runs)
	}
	if got := s.RowCount(); got != 6 {
		t.Fatalf("row count: got %d want 6", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{Ns: []int{1}, Ps: []int{1}, Seeds: []int64{1}},
		{Algs: []string{"a"}, Ps: []int{1}, Seeds: []int64{1}},
		{Algs: []string{"a"}, Ns: []int{1}, Seeds: []int64{1}},
		{Algs: []string{"a"}, Ns: []int{1}, Ps: []int{1}},
	} {
		bad.Normalize()
		if err := bad.Validate(); err == nil {
			t.Fatalf("missing-dimension spec accepted: %+v", bad)
		}
	}
}

// TestSpecExpandDeterministicOrder pins the documented expansion order:
// resume depends on row index stability across process restarts.
func TestSpecExpandDeterministicOrder(t *testing.T) {
	s := Spec{
		Algs: []string{"a", "b"}, Ns: []int{8}, Ps: []int{2, 4},
		Seeds: []int64{7, 9}, Policies: []string{"uniform"}, Sockets: []int{1},
	}
	s.Normalize()
	cells := s.Expand()
	if len(cells) != s.RowCount() {
		t.Fatalf("expand len %d != RowCount %d", len(cells), s.RowCount())
	}
	want := []Cell{
		{"a", 8, 2, 7, "uniform", 1}, {"a", 8, 2, 9, "uniform", 1},
		{"a", 8, 4, 7, "uniform", 1}, {"a", 8, 4, 9, "uniform", 1},
		{"b", 8, 2, 7, "uniform", 1}, {"b", 8, 2, 9, "uniform", 1},
		{"b", 8, 4, 7, "uniform", 1}, {"b", 8, 4, 9, "uniform", 1},
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("expansion order changed:\n got %v\nwant %v", cells, want)
	}
	if again := s.Expand(); !reflect.DeepEqual(cells, again) {
		t.Fatal("expansion not deterministic across calls")
	}
}

func TestBreakerTripsAtK(t *testing.T) {
	b := NewBreaker(3)
	if b.Tripped("k") {
		t.Fatal("fresh key tripped")
	}
	if b.Record("k") || b.Record("k") {
		t.Fatal("tripped before K panics")
	}
	if !b.Record("k") {
		t.Fatal("did not trip at K panics")
	}
	if !b.Tripped("k") {
		t.Fatal("Tripped disagrees with Record")
	}
	if b.Tripped("other") {
		t.Fatal("unrelated key tripped")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(0)
	for i := 0; i < 10; i++ {
		if b.Record("k") {
			t.Fatal("disabled breaker tripped")
		}
	}
	if b.Tripped("k") {
		t.Fatal("disabled breaker reports tripped")
	}
	if b.Panics("k") != 10 {
		t.Fatalf("counts lost: %d", b.Panics("k"))
	}
}

func TestBreakerBoundedTracking(t *testing.T) {
	b := NewBreaker(2)
	b.Record("poisoned")
	b.Record("poisoned") // tripped
	for i := 0; i < breakerMaxTracked+100; i++ {
		b.Record(fmt.Sprintf("stray-%d", i))
	}
	b.mu.Lock()
	n := len(b.counts)
	b.mu.Unlock()
	if n > breakerMaxTracked {
		t.Fatalf("tracked set unbounded: %d > %d", n, breakerMaxTracked)
	}
	if !b.Tripped("poisoned") {
		t.Fatal("eviction dropped a tripped key while untripped strays existed")
	}
}

func testJob(n int) *Job {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return NewJob("j1", Spec{}, keys)
}

func TestJobLifecycle(t *testing.T) {
	j := testJob(3)
	if !j.Start(0) {
		t.Fatal("cannot start unstarted row")
	}
	if j.Start(0) {
		t.Fatal("double start")
	}
	j.Revert(0)
	if j.StatusOf(0) != RowUnstarted {
		t.Fatal("revert did not checkpoint to unstarted")
	}
	j.Start(0)
	if !j.Finish(RowRecord{Index: 0, Key: "key-0", Status: RowOK}) {
		t.Fatal("finish rejected")
	}
	if j.Finish(RowRecord{Index: 0, Key: "key-0", Status: RowFailed}) {
		t.Fatal("terminal row finished twice")
	}
	if j.StatusOf(0) != RowOK {
		t.Fatal("second finish overwrote first")
	}
	j.Revert(0) // must not un-terminal a finished row
	if j.StatusOf(0) != RowOK {
		t.Fatal("revert clobbered a terminal row")
	}
	if j.Done() {
		t.Fatal("done with unfinished rows")
	}
	j.Finish(RowRecord{Index: 1, Key: "key-1", Status: RowQuarantined, Error: "boom"})
	j.Finish(RowRecord{Index: 2, Key: "key-2", Status: RowDeadline})
	if !j.Done() {
		t.Fatal("not done with all rows terminal")
	}
	select {
	case <-j.DoneCh():
	default:
		t.Fatal("DoneCh not closed")
	}
	select {
	case <-j.QuiescedCh():
	default:
		t.Fatal("QuiescedCh not closed on done")
	}
	counts := j.Counts()
	if counts[RowOK] != 1 || counts[RowQuarantined] != 1 || counts[RowDeadline] != 1 {
		t.Fatalf("counts wrong: %v", counts)
	}
	recs := j.TerminalRecords()
	if len(recs) != 3 || recs[0].Index != 0 || recs[1].Index != 1 || recs[2].Index != 2 {
		t.Fatalf("terminal records not in index order: %+v", recs)
	}
}

// TestJobSubscribeExactlyOnce: rows terminal before Subscribe arrive from
// the snapshot, later ones live — each exactly once, never blocking.
func TestJobSubscribeExactlyOnce(t *testing.T) {
	j := testJob(4)
	j.Finish(RowRecord{Index: 2, Key: "key-2", Status: RowOK})
	j.Finish(RowRecord{Index: 0, Key: "key-0", Status: RowOK})
	ch, cancel := j.Subscribe()
	defer cancel()
	j.Finish(RowRecord{Index: 3, Key: "key-3", Status: RowFailed})
	j.Finish(RowRecord{Index: 1, Key: "key-1", Status: RowOK})

	seen := map[int]int{}
	for i := 0; i < 4; i++ {
		select {
		case rec := <-ch:
			seen[rec.Index]++
		case <-j.DoneCh():
			select {
			case rec := <-ch:
				seen[rec.Index]++
			default:
				t.Fatalf("missing deliveries: %v", seen)
			}
		}
	}
	for i := 0; i < 4; i++ {
		if seen[i] != 1 {
			t.Fatalf("row %d delivered %d times: %v", i, seen[i], seen)
		}
	}
}

func TestJobInterrupt(t *testing.T) {
	j := testJob(2)
	j.Finish(RowRecord{Index: 0, Key: "key-0", Status: RowOK})
	j.Interrupt()
	if j.Done() {
		t.Fatal("interrupted job claims done")
	}
	if !j.Interrupted() {
		t.Fatal("Interrupted not set")
	}
	select {
	case <-j.QuiescedCh():
	default:
		t.Fatal("QuiescedCh not closed on interrupt")
	}
}

// TestApplyReplayedKeyMismatch: journal rows that do not match the
// expanded grid (different spec, damaged record) are ignored, so the row
// is recomputed rather than trusted.
func TestApplyReplayedKeyMismatch(t *testing.T) {
	j := testJob(3)
	applied := j.ApplyReplayed([]RowRecord{
		{Index: 0, Key: "key-0", Status: RowOK},
		{Index: 1, Key: "WRONG", Status: RowOK},
		{Index: 7, Key: "key-7", Status: RowOK},     // out of range
		{Index: 0, Key: "key-0", Status: RowFailed}, // duplicate: first wins
	})
	if applied != 1 {
		t.Fatalf("applied %d, want 1", applied)
	}
	if j.StatusOf(0) != RowOK || j.StatusOf(1) != RowUnstarted || j.StatusOf(2) != RowUnstarted {
		t.Fatalf("replay state wrong: %v", j.Statuses())
	}
}

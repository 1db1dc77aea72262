package jobs

import "sync"

// Job is the in-memory state machine of one batch job: a fixed grid of
// rows, each unstarted → running → terminal, with broadcast to stream
// subscribers on every terminal transition. Terminal records are exactly
// what the journal holds; a resumed Job is rebuilt by applying the
// journal's records over a freshly expanded grid.
type Job struct {
	ID   string
	Spec Spec

	mu       sync.Mutex
	keys     []string
	status   []RowStatus
	records  []RowRecord // valid where status is terminal
	terminal int

	done        chan struct{} // closed when every row is terminal
	quiesced    chan struct{} // closed when done OR interrupted
	interrupted bool

	subs    map[int]chan RowRecord
	nextSub int
}

// NewJob builds a job over the expanded grid's row keys, all unstarted.
func NewJob(id string, spec Spec, keys []string) *Job {
	status := make([]RowStatus, len(keys))
	for i := range status {
		status[i] = RowUnstarted
	}
	return &Job{
		ID:       id,
		Spec:     spec,
		keys:     keys,
		status:   status,
		records:  make([]RowRecord, len(keys)),
		done:     make(chan struct{}),
		quiesced: make(chan struct{}),
		subs:     make(map[int]chan RowRecord),
	}
}

// Rows returns the grid width.
func (j *Job) Rows() int { return len(j.keys) }

// Key returns row i's canonical key.
func (j *Job) Key(i int) string { return j.keys[i] }

// ApplyReplayed marks every journal record that matches the expanded grid
// (index in range, key equal — a key mismatch means the journal belongs to
// a different spec or was damaged, and the row is recomputed instead of
// trusted). Returns how many records were applied.
func (j *Job) ApplyReplayed(rows []RowRecord) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	applied := 0
	for _, rec := range rows {
		if rec.Index < 0 || rec.Index >= len(j.keys) || rec.Key != j.keys[rec.Index] {
			continue
		}
		if j.status[rec.Index].Terminal() {
			continue // duplicate record; first write wins
		}
		j.status[rec.Index] = rec.Status
		j.records[rec.Index] = rec
		j.terminal++
		applied++
	}
	j.maybeDoneLocked()
	return applied
}

// Start moves row i from unstarted to running; false if it already left
// unstarted (terminal from a replay, or raced).
func (j *Job) Start(i int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status[i] != RowUnstarted {
		return false
	}
	j.status[i] = RowRunning
	return true
}

// Revert checkpoints a running row back to unstarted — the drain/crash
// path: the row holds no journal record, so a resumed job recomputes it.
func (j *Job) Revert(i int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status[i] == RowRunning {
		j.status[i] = RowUnstarted
	}
}

// Finish moves row i to its terminal state and broadcasts the record to
// subscribers; false if the row was already terminal (the record is kept
// first-write-wins, matching the journal).
func (j *Job) Finish(rec RowRecord) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := rec.Index
	if i < 0 || i >= len(j.keys) || j.status[i].Terminal() || !rec.Status.Terminal() {
		return false
	}
	j.status[i] = rec.Status
	j.records[i] = rec
	j.terminal++
	for _, ch := range j.subs {
		select {
		case ch <- rec:
		default:
			// Capacity is one slot per row and each row finishes once, so
			// this can't fill; dropping (rather than blocking the runner
			// under the job lock) is the safe failure mode regardless.
		}
	}
	j.maybeDoneLocked()
	return true
}

func (j *Job) maybeDoneLocked() {
	if j.terminal == len(j.keys) {
		select {
		case <-j.done:
		default:
			close(j.done)
			j.quiesceLocked()
		}
	}
}

func (j *Job) quiesceLocked() {
	select {
	case <-j.quiesced:
	default:
		close(j.quiesced)
	}
}

// Interrupt marks the job quiesced without being done: the runner stopped
// dispatching (drain or hard-cancel) and streams should wind down.
func (j *Job) Interrupt() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal != len(j.keys) {
		j.interrupted = true
	}
	j.quiesceLocked()
}

// Done reports whether every row is terminal.
func (j *Job) Done() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminal == len(j.keys)
}

// Interrupted reports whether the job quiesced before completing.
func (j *Job) Interrupted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.interrupted
}

// DoneCh is closed once every row is terminal.
func (j *Job) DoneCh() <-chan struct{} { return j.done }

// QuiescedCh is closed once the job is done or interrupted — the signal
// for streamers to drain their subscription and write the trailer.
func (j *Job) QuiescedCh() <-chan struct{} { return j.quiesced }

// StatusOf returns row i's current status.
func (j *Job) StatusOf(i int) RowStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status[i]
}

// Counts tallies rows by status.
func (j *Job) Counts() map[RowStatus]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[RowStatus]int)
	for _, st := range j.status {
		out[st]++
	}
	return out
}

// Statuses returns a copy of every row's status, by index.
func (j *Job) Statuses() []RowStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]RowStatus, len(j.status))
	copy(out, j.status)
	return out
}

// TerminalRecords returns the terminal rows' records in index order — the
// grid. For a done job this is the complete, byte-stable artifact the
// chaos suite compares across interrupted and uninterrupted runs.
func (j *Job) TerminalRecords() []RowRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]RowRecord, 0, j.terminal)
	for i, st := range j.status {
		if st.Terminal() {
			out = append(out, j.records[i])
		}
	}
	return out
}

// Subscribe returns a channel that delivers every terminal row exactly
// once: rows already terminal are queued immediately (in index order),
// later ones arrive as they finish. The channel holds one slot per row, so
// delivery never blocks the runner. Call cancel to unsubscribe.
func (j *Job) Subscribe() (rows <-chan RowRecord, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan RowRecord, len(j.keys))
	for i, st := range j.status {
		if st.Terminal() {
			ch <- j.records[i]
		}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		delete(j.subs, id)
	}
}

package serve

import (
	"sync"
	"time"
)

// Timeline kinds: what the traced unit of work was.
const (
	kindSimulate    = "simulate"     // one POST /simulate request
	kindBatchRow    = "batch_row"    // one batch row brought to a terminal state
	kindBatchResume = "batch_resume" // one journaled job replayed at startup
)

// The timeline event vocabulary. A request's life reads top to bottom:
// queued into the work channel, dispatched by a worker, attempts (each
// possibly panicking into a backoff + retry, or tripping the per-key
// quarantine breaker), resolution without computing (cache hit,
// single-flight follower, journal replay), and the typed terminal outcome
// finish() seals the timeline with.
const (
	evQueued        = "queued"
	evDispatched    = "dispatched"
	evAttempt       = "attempt"
	evPanicked      = "panicked"
	evQuarantined   = "quarantined"
	evBackoff       = "backoff"
	evRetried       = "retried"
	evCacheHit      = "cache_hit"
	evDedupFollower = "dedup_follower"
	evJournalReplay = "journal_replay"
	evOutcome       = "outcome"
)

// maxTraceEvents bounds one timeline's event list so a pathological retry
// loop cannot grow a trace without limit; events beyond the cap are counted
// in Timeline.Dropped instead of recorded.
const maxTraceEvents = 64

// TraceEvent is one step of a request's attempt timeline.
type TraceEvent struct {
	Type string `json:"type"`
	// AtUS is microseconds since the timeline started, from the monotonic
	// clock — ordering is meaningful even across wall-clock adjustments.
	AtUS int64 `json:"at_us"`
	// Worker is the worker that produced the event; -1 when the event is not
	// worker-bound (queued, cache_hit, dedup_follower, outcome, ...).
	Worker int `json:"worker"`
	// Attempt is the attempt ordinal the event belongs to, matching the
	// fault injector's numbering; -1 when the event is not attempt-bound.
	Attempt int    `json:"attempt"`
	Detail  string `json:"detail,omitempty"`
}

// Timeline is one completed request's sealed trace: the event list plus the
// typed terminal outcome, which by construction matches the outcome-ledger
// bucket the request landed in (the chaos storm asserts exactly that).
// Timelines ride the /simulate response *outside* the cached payload, so
// traced and untraced responses carry byte-identical result bytes.
type Timeline struct {
	Kind      string       `json:"kind"`
	Key       string       `json:"key,omitempty"`
	Start     time.Time    `json:"start"`
	Outcome   string       `json:"outcome"`
	ElapsedUS int64        `json:"elapsed_us"`
	Events    []TraceEvent `json:"events"`
	Dropped   int          `json:"dropped_events,omitempty"`
}

// trace is the live, append side of one timeline. All methods are nil-safe
// (a nil trace records nothing) so call sites never need enablement guards,
// and mutex-guarded, because the requester and its worker append
// concurrently. After finish, late events (a worker still running after the
// requester's deadline answered) are silently discarded — the published
// Timeline is immutable.
type trace struct {
	mu       sync.Mutex
	kind     string
	key      string
	start    time.Time
	events   []TraceEvent
	dropped  int
	finished bool
}

func newTrace(kind string) *trace {
	return &trace{kind: kind, start: time.Now(), events: make([]TraceEvent, 0, 8)}
}

// setKey records the canonical request key once it is known (the trace is
// created before the body is decoded, so rejections earlier than keying
// produce keyless timelines).
func (t *trace) setKey(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.key = key
	t.mu.Unlock()
}

// event records a step that is not bound to a worker or attempt.
func (t *trace) event(typ, detail string) { t.add(typ, -1, -1, detail) }

// add records one event at the current monotonic offset.
func (t *trace) add(typ string, worker, attempt int, detail string) {
	if t == nil {
		return
	}
	at := time.Since(t.start).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return
	}
	if len(t.events) >= maxTraceEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, TraceEvent{Type: typ, AtUS: at, Worker: worker, Attempt: attempt, Detail: detail})
}

// finish seals the timeline with its terminal outcome (appended as the final
// "outcome" event) and returns the immutable snapshot. Exactly the first
// finish wins; later calls — and later adds — are no-ops, so a timeline is
// pushed to the ring at most once and never mutated afterwards.
func (t *trace) finish(outcome string) *Timeline {
	if t == nil {
		return nil
	}
	el := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return nil
	}
	t.finished = true
	events := make([]TraceEvent, 0, len(t.events)+1)
	events = append(events, t.events...)
	events = append(events, TraceEvent{Type: evOutcome, AtUS: el.Microseconds(), Worker: -1, Attempt: -1, Detail: outcome})
	return &Timeline{
		Kind:      t.kind,
		Key:       t.key,
		Start:     t.start,
		Outcome:   outcome,
		ElapsedUS: el.Microseconds(),
		Events:    events,
		Dropped:   t.dropped,
	}
}

// tracer retains the last Config.TraceBuffer completed timelines in a ring
// for GET /tracez. A zero-capacity tracer is fully disabled: start returns
// nil traces (so per-event work is skipped entirely) and push discards.
type tracer struct {
	mu    sync.Mutex
	buf   []*Timeline // fixed-capacity ring
	next  int         // next write position
	count int         // live entries (== len(buf) once wrapped)
}

func newTracerRing(capacity int) *tracer {
	if capacity < 0 {
		capacity = 0
	}
	return &tracer{buf: make([]*Timeline, capacity)}
}

// start returns a live trace destined for the ring, or nil when the ring is
// disabled. Callers that need a trace regardless (the request-level
// "trace": true opt-in) allocate one with newTrace directly.
func (tz *tracer) start(kind string) *trace {
	if len(tz.buf) == 0 {
		return nil
	}
	return newTrace(kind)
}

// push retains a sealed timeline, evicting the oldest once full. nil
// timelines (disabled or double-finished traces) are ignored.
func (tz *tracer) push(tl *Timeline) {
	if tl == nil || len(tz.buf) == 0 {
		return
	}
	tz.mu.Lock()
	defer tz.mu.Unlock()
	tz.buf[tz.next] = tl
	tz.next = (tz.next + 1) % len(tz.buf)
	if tz.count < len(tz.buf) {
		tz.count++
	}
}

// snapshot returns the retained timelines, newest first.
func (tz *tracer) snapshot() []*Timeline {
	tz.mu.Lock()
	defer tz.mu.Unlock()
	out := make([]*Timeline, 0, tz.count)
	for i := 1; i <= tz.count; i++ {
		out = append(out, tz.buf[(tz.next-i+len(tz.buf))%len(tz.buf)])
	}
	return out
}

package rws

import (
	"math/rand"

	"rwsfs/internal/machine"
)

// StealPolicy decides, for each steal attempt by an idle processor, which
// victim to target and how many tasks a successful steal takes off the
// victim's deque top. The engine owns the attempt protocol (costs, budget,
// counters, deque mechanics); the policy only makes the two discipline
// decisions the paper fixes to "uniform victim, one task".
//
// # RNG ownership rule
//
// Every random draw a policy makes MUST come from the rng argument: the
// engine's single per-run RNG, seeded from Config.Seed and consumed in
// simulated scheduling order. Policies must be stateless values — no
// embedded *rand.Rand, no mutable fields — so that one policy value can be
// shared by many concurrent engines (the harness's `experiments -par`
// sweeps reuse a base Config across host workers) without coupling their
// RNG streams: runs stay bit-for-bit reproducible from (Config, root
// function) alone, serial or parallel. harness.TestParallelSweepMatchesSerial
// holds the policy sweeps (E16–E18) to this. Once the steal budget is spent
// on a machine without steal pricing, the engine consults the policy no
// more: idle processors park instead of drawing victims.
//
// Policies may read engine state through the PolicyView (deque sizes, the
// machine's topology and coherence directory), never write it.
type StealPolicy interface {
	// Name identifies the policy in CLI flags and experiment tables.
	Name() string
	// Victim returns the processor the thief steals from this attempt.
	// Called only when the machine has at least two processors; the result
	// must be in [0, view.P()) and differ from thief. Drawn entropy must
	// come from rng (see the RNG ownership rule above).
	Victim(view *PolicyView, thief int, rng *rand.Rand) int
	// Take returns how many tasks a successful steal removes from the top
	// of the victim's deque, given its current size (>= 1). The first task
	// starts on the thief as a fresh stolen task; the remainder migrate to
	// the thief's own deque. Results are clamped to [1, size]. Take must
	// be a pure function of size: it runs after the attempt succeeded, so
	// consuming RNG here would skew victim selection across policies.
	Take(size int) int
}

// PolicyView is the read-only window a StealPolicy gets on the engine.
type PolicyView struct {
	e *Engine
}

// P returns the processor count.
func (v *PolicyView) P() int { return v.e.mach.P }

// QueueLen returns the number of stealable tasks in processor p's deque.
func (v *PolicyView) QueueLen(p int) int { return v.e.deques[p].size() }

// SocketSpan returns the half-open processor range of p's socket.
func (v *PolicyView) SocketSpan(p int) (lo, hi int) { return v.e.mach.SocketSpan(p) }

// StealPrice returns the distance-dependent latency a steal attempt by
// thief against victim would be charged at attempt time — 0 everywhere when
// the topology leaves steal pricing off. Latency-aware policies rank
// candidate victims by it.
func (v *PolicyView) StealPrice(thief, victim int) machine.Tick {
	price, _ := v.e.mach.StealPrice(thief, victim)
	return price
}

// FailedStreak returns how many consecutive steal attempts by p have failed
// since its last successful steal. Hierarchical policies use it to widen
// the victim pool only after local probes keep coming up empty.
func (v *PolicyView) FailedStreak(p int) int { return int(v.e.consecFail[p]) }

// ThiefCachesTop reports whether thief already holds the block of the
// join flag belonging to the task at the top of victim's deque. The join
// flag lives on the forking task's execution stack next to the segments
// its kernel is actively using, so sharing its block is the directory's
// best available proxy for "thief last touched the stolen task's blocks".
func (v *PolicyView) ThiefCachesTop(victim, thief int) bool {
	sp := v.e.deques[victim].top()
	return sp != nil && v.e.mach.SharesBlock(thief, sp.jc.addr)
}

// uniformVictim draws one victim uniformly over the processors other than
// thief — the paper's selection — consuming exactly one draw from rng.
// Every built-in policy funnels its uniform draws through here so the
// skip-self arithmetic and the RNG accounting live in one place.
func uniformVictim(view *PolicyView, thief int, rng *rand.Rand) int {
	w := rng.Intn(view.P() - 1)
	if w >= thief {
		w++
	}
	return w
}

// Uniform is the paper's discipline and the default: victim uniform over
// the other P-1 processors, one task per steal. It consumes exactly one
// RNG draw per attempt and is byte-identical to the pre-policy engine.
type Uniform struct{}

// Name implements StealPolicy.
func (Uniform) Name() string { return "uniform" }

// Victim implements StealPolicy: uniform over the other processors.
func (Uniform) Victim(view *PolicyView, thief int, rng *rand.Rand) int {
	return uniformVictim(view, thief, rng)
}

// Take implements StealPolicy: one task per steal.
func (Uniform) Take(int) int { return 1 }

// Localized biases victim selection toward the thief's own socket: with
// probability (localizedBias-1)/localizedBias, 3 in 4, the victim is uniform
// over the thief's socket peers, otherwise uniform over all other
// processors. The socket bias is this repo's own modelling choice; the paper
// analyses uniform victims only. Despite the name, it is not the localized
// work stealing of Suksompong, Leiserson and Schardl, in which a free
// processor first tries to steal back its own work. On a flat topology every
// processor is a socket peer, so the policy degenerates to uniform selection
// (with a different RNG consumption pattern than Uniform).
type Localized struct{}

// localizedBias is Localized's locality denominator: one attempt in
// localizedBias goes to a uniform victim.
const localizedBias = 4

// Name implements StealPolicy.
func (Localized) Name() string { return "localized" }

// Victim implements StealPolicy: socket-local with probability
// (localizedBias-1)/localizedBias, uniform otherwise.
func (Localized) Victim(view *PolicyView, thief int, rng *rand.Rand) int {
	lo, hi := view.SocketSpan(thief)
	if peers := hi - lo - 1; peers > 0 && rng.Intn(localizedBias) != 0 {
		w := lo + rng.Intn(peers)
		if w >= thief {
			w++
		}
		return w
	}
	return uniformVictim(view, thief, rng)
}

// Take implements StealPolicy: one task per steal.
func (Localized) Take(int) int { return 1 }

// StealHalf keeps uniform victim selection but takes the top half
// (rounded up) of the victim's deque per successful steal, amortizing the
// steal cost over several tasks the way half-stealing runtimes do. The
// extra tasks are re-queued on the thief's deque as migrant copies and
// consumed later like any other queued task (idle-popped or stolen
// onward; never inline-popped, since their forker holds the original
// spawn pointer).
type StealHalf struct{}

// Name implements StealPolicy.
func (StealHalf) Name() string { return "stealhalf" }

// Victim implements StealPolicy: uniform over the other processors.
func (StealHalf) Victim(view *PolicyView, thief int, rng *rand.Rand) int {
	return Uniform{}.Victim(view, thief, rng)
}

// Take implements StealPolicy: ceil(size/2) tasks per steal.
func (StealHalf) Take(size int) int { return (size + 1) / 2 }

// Affinity probes affinityProbes (2) uniform victims and prefers one whose
// top task the thief has coherence affinity for — the thief still caches the
// block of the task's join flag, so executing the task re-uses resident data
// instead of forcing transfers (cf. Gu, Napier & Sun on the cache complexity
// of victim choice). If no probe shows affinity the first probed victim is
// used, keeping the failure path close to uniform.
type Affinity struct{}

// affinityProbes is the number of candidate victims Affinity examines.
const affinityProbes = 2

// Name implements StealPolicy.
func (Affinity) Name() string { return "affinity" }

// Victim implements StealPolicy: first probed victim with directory
// affinity, else the first probe.
func (Affinity) Victim(view *PolicyView, thief int, rng *rand.Rand) int {
	first := -1
	for t := 0; t < affinityProbes; t++ {
		w := uniformVictim(view, thief, rng)
		if first < 0 {
			first = w
		}
		if view.ThiefCachesTop(w, thief) {
			return w
		}
	}
	return first
}

// Take implements StealPolicy: one task per steal.
func (Affinity) Take(int) int { return 1 }

// Hierarchical probes strictly inside the thief's socket first and widens
// only on sustained failure: after hierarchicalLocalProbes (3) consecutive
// failed attempts (the engine-tracked FailedStreak) the next probe targets a
// uniform victim *outside* the socket, then the ladder restarts. Under
// distance-priced stealing this keeps almost every attempt — successful or
// not — at the cheap local price, paying the cross-interconnect premium only
// when the local socket is demonstrably drained. The socket-first ladder is
// this repo's own modelling choice, like Localized's bias. On a flat
// topology every processor is a socket peer and the policy is draw-for-draw
// identical to Uniform.
type Hierarchical struct{}

// hierarchicalLocalProbes is how many consecutive failed attempts stay
// socket-local before Hierarchical makes one remote probe.
const hierarchicalLocalProbes = 3

// Name implements StealPolicy.
func (Hierarchical) Name() string { return "hierarchical" }

// Victim implements StealPolicy: uniform over socket peers until the
// failed-attempt streak earns a remote probe, then uniform over the other
// sockets' processors.
func (Hierarchical) Victim(view *PolicyView, thief int, rng *rand.Rand) int {
	const k = hierarchicalLocalProbes
	lo, hi := view.SocketSpan(thief)
	peers := hi - lo - 1
	outside := view.P() - (hi - lo)
	if peers > 0 && (outside == 0 || view.FailedStreak(thief)%(k+1) < k) {
		w := lo + rng.Intn(peers)
		if w >= thief {
			w++
		}
		return w
	}
	if outside == 0 {
		// peers == 0 && outside == 0 means P == 1, and the engine never
		// consults a policy without a potential victim.
		panic("rws: Hierarchical.Victim called with no possible victim")
	}
	w := rng.Intn(outside)
	if w >= lo {
		w += hi - lo
	}
	return w
}

// Take implements StealPolicy: one task per steal.
func (Hierarchical) Take(int) int { return 1 }

// LatencyAware scores latencyAwareProbes (3) uniformly probed candidates by
// the expected cost of directing the attempt at them and picks the cheapest:
// a victim with an empty deque wastes the whole attempt (worst), then lower
// distance price wins (PolicyView.StealPrice — socket distance under priced
// stealing, uniformly zero otherwise), then the deeper deque (a stolen task
// from a deep deque amortizes the probe over more future local work). Ties
// keep the earlier probe, so with pricing off and equal deques the policy
// degenerates to Affinity-style first-probe selection.
type LatencyAware struct{}

// latencyAwareProbes is the number of candidate victims LatencyAware scores.
const latencyAwareProbes = 3

// Name implements StealPolicy.
func (LatencyAware) Name() string { return "latencyaware" }

// Victim implements StealPolicy: cheapest expected-cost candidate of
// latencyAwareProbes uniform draws.
func (LatencyAware) Victim(view *PolicyView, thief int, rng *rand.Rand) int {
	best := -1
	bestLen := 0
	var bestPrice machine.Tick
	for t := 0; t < latencyAwareProbes; t++ {
		w := uniformVictim(view, thief, rng)
		n := view.QueueLen(w)
		price := view.StealPrice(thief, w)
		better := best < 0
		if !better {
			switch {
			case (n > 0) != (bestLen > 0):
				better = n > 0
			case price != bestPrice:
				better = price < bestPrice
			default:
				better = n > bestLen
			}
		}
		if better {
			best, bestLen, bestPrice = w, n, price
		}
	}
	return best
}

// Take implements StealPolicy: one task per steal.
func (LatencyAware) Take(int) int { return 1 }

// Policies returns one instance of every built-in policy, in a fixed
// order, for sweeps and tests.
func Policies() []StealPolicy {
	return []StealPolicy{Uniform{}, Localized{}, StealHalf{}, Affinity{}, Hierarchical{}, LatencyAware{}}
}

// PolicyByName resolves a built-in policy from its Name; CLI flags use it.
func PolicyByName(name string) (StealPolicy, bool) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

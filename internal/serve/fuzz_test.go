package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sprintfKey is Request.Key as it was first written, with fmt.Sprintf. Keys
// are journaled, so Key must keep hashing exactly these bytes.
func sprintfKey(r *Request) string {
	canon := fmt.Sprintf(
		"alg=%s&n=%d&p=%d&seed=%d&runs=%d&B=%d&M=%d&miss=%d&steal=%d&fail=%d&policy=%s&sockets=%d&remote=%d&scost=%d&scostr=%d&budget=%d",
		r.Alg, r.N, r.P, r.Seed, r.Runs, r.BlockWords, r.CacheWords,
		r.CostMiss, r.CostSteal, r.CostFailSteal, r.Policy, r.Sockets,
		r.CostMissRemote, r.StealCost, r.StealCostRemote, *r.Budget)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// TestRequestKeyMatchesSprintf holds Key to the fmt.Sprintf rendering over
// random requests: every integer field drawn from random magnitudes and the
// int64 extremes, and strings with separators, long and invalid UTF-8.
func TestRequestKeyMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ints := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return []int64{0, -1, math.MaxInt64, math.MinInt64}[rng.Intn(4)]
		case 1:
			return -rng.Int63() >> rng.Intn(63)
		}
		return rng.Int63() >> rng.Intn(63)
	}
	strs := []string{"", "prefix", "uniform", "a&b=c", "\xff\xfe%d", "é", string(make([]byte, 300))}
	for i := 0; i < 5000; i++ {
		budget := ints()
		r := Request{Alg: strs[rng.Intn(len(strs))], N: int(ints()), P: int(ints()), Seed: ints(),
			Runs: int(ints()), BlockWords: int(ints()), CacheWords: int(ints()), CostMiss: ints(),
			CostSteal: ints(), CostFailSteal: ints(), Policy: strs[rng.Intn(len(strs))],
			Sockets: int(ints()), CostMissRemote: ints(), StealCost: ints(), StealCostRemote: ints(),
			Budget: &budget}
		if got, want := r.Key(), sprintfKey(&r); got != want {
			t.Fatalf("Key(%+v) = %s, the fmt.Sprintf rendering hashes to %s", r, got, want)
		}
	}
}

// FuzzRequestKey fuzzes the canonical-keying invariants the whole robustness
// stack leans on (cache, single-flight, hedging, journal resume):
//
//  1. Two requests that normalize to the same form — one spelling the
//     defaults as zero values, one spelling them out explicitly — hash to
//     the same SHA-256 key.
//  2. The deadline never enters the key: it shapes serving, not results.
//     The trace opt-in is in the same class and checked the same way.
//  3. Any result-determining field entering the key actually changes it
//     (seed and runs are checked, as the cheapest to mutate).
func FuzzRequestKey(f *testing.F) {
	f.Add("prefix", 128, 4, int64(1), 2, "uniform", 1, int64(-1), 500)
	f.Add("matmul", 64, 8, int64(-3), 0, "", 0, int64(0), 0)
	f.Add("", 0, 0, int64(0), -1, "nearest", 4, int64(7), -100)
	f.Fuzz(func(t *testing.T, alg string, n, p int, seed int64, runs int,
		policy string, sockets int, budget int64, deadlineMS int) {
		a := Request{Alg: alg, N: n, P: p, Seed: seed, Runs: runs,
			Policy: policy, Sockets: sockets, DeadlineMS: deadlineMS}
		if budget >= 0 {
			b := budget
			a.Budget = &b
		}

		// b spells every default a left implicit explicitly, and carries a
		// different deadline; after normalization the two must be the same
		// request, hence the same key.
		b := a
		if b.Runs <= 0 {
			b.Runs = 1
		}
		if b.BlockWords == 0 {
			b.BlockWords = 16
		}
		if b.CacheWords == 0 {
			b.CacheWords = 4096
		}
		if b.CostMiss == 0 {
			b.CostMiss = 10
		}
		if b.CostSteal == 0 {
			b.CostSteal = 20
		}
		if b.CostFailSteal == 0 {
			b.CostFailSteal = b.CostMiss
		}
		if b.Policy == "" {
			b.Policy = "uniform"
		}
		if b.Sockets <= 0 {
			b.Sockets = 1
		}
		if b.Budget == nil {
			unlimited := int64(-1)
			b.Budget = &unlimited
		}
		b.DeadlineMS = deadlineMS + 1000
		// Serving-only flags must never enter the key: b also flips the trace
		// opt-in, which would fork the cache if it were keyed.
		b.Trace = !a.Trace

		a.normalize()
		b.normalize()
		ka, kb := a.Key(), b.Key()
		if ka != kb {
			t.Fatalf("normalized-equal requests hash differently:\n%+v -> %s\n%+v -> %s", a, ka, b, kb)
		}
		if len(ka) != 64 {
			t.Fatalf("key is not a hex SHA-256: %q", ka)
		}
		if want := sprintfKey(&a); ka != want {
			t.Fatalf("Key(%+v) = %s, the fmt.Sprintf rendering hashes to %s", a, ka, want)
		}

		// Mutating a result-determining field must change the key.
		c := a
		c.Seed++
		if c.Key() == ka {
			t.Fatalf("seed change did not change the key: %+v", a)
		}
		d := a
		d.Runs++
		if d.Key() == ka {
			t.Fatalf("runs change did not change the key: %+v", a)
		}
	})
}

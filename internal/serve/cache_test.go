package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// payloadFor is a distinct payload for key, told apart by pointer.
func payloadFor(key string) *payload { return &payload{Key: key} }

// snapshotKeys lists the table's settled keys, most recently used first.
func snapshotKeys(c *resultCache) []string {
	var keys []string
	for _, p := range c.Snapshot() {
		keys = append(keys, p.Key)
	}
	return keys
}

// mustLead looks key up and fails unless the caller leads a new flight.
func mustLead(t *testing.T, c *resultCache, key string) *resultEntry {
	t.Helper()
	hit, f, lead := c.lookup(key)
	if hit != nil || !lead {
		t.Fatalf("lookup(%s) = hit %v, lead %v; want a new flight", key, hit != nil, lead)
	}
	return f
}

// settled fills c with a settled entry per key, in order, and returns them.
func settled(t *testing.T, c *resultCache, keys ...string) map[string]*payload {
	t.Helper()
	out := make(map[string]*payload)
	for _, k := range keys {
		out[k] = payloadFor(k)
		c.settle(mustLead(t, c, k), out[k], nil)
	}
	return out
}

// TestResultCacheTable drives the one table from key to result directly:
// flights, settling, LRU order and capacity, and the warm-up insert.
func TestResultCacheTable(t *testing.T) {
	t.Run("one leader, concurrent followers", func(t *testing.T) {
		c := newResultCache(4)
		const n = 32
		type answer struct {
			hit, got *payload
			f        *resultEntry
			lead     bool
		}
		answers := make([]answer, n)
		var looked, followed sync.WaitGroup
		looked.Add(n)
		followed.Add(n)
		for i := range answers {
			go func(a *answer) {
				defer followed.Done()
				a.hit, a.f, a.lead = c.lookup("k")
				looked.Done()
				if a.f != nil && !a.lead {
					<-a.f.done
					a.got = a.f.p
				}
			}(&answers[i])
		}
		looked.Wait()
		var leader *resultEntry
		for _, a := range answers {
			if a.hit != nil || a.f == nil {
				t.Fatal("a lookup of a key nobody settled was a hit")
			}
			if a.lead {
				if leader != nil {
					t.Fatal("two lookups lead the same key")
				}
				leader = a.f
			}
		}
		if leader == nil {
			t.Fatal("no lookup leads")
		}
		p := payloadFor("k")
		c.settle(leader, p, nil)
		followed.Wait()
		for i, a := range answers {
			if !a.lead && (a.f != leader || a.got != p) {
				t.Fatalf("follower %d did not get the leader's payload", i)
			}
		}
		if hit, _, _ := c.lookup("k"); hit != p {
			t.Fatal("the settled key is not a hit")
		}
	})

	t.Run("hit becomes most recently used", func(t *testing.T) {
		c := newResultCache(3)
		ps := settled(t, c, "a", "b", "c")
		if got := snapshotKeys(c); !slices.Equal(got, []string{"c", "b", "a"}) {
			t.Fatalf("order %q, want c b a", got)
		}
		if hit, f, lead := c.lookup("a"); hit != ps["a"] || f != nil || lead {
			t.Fatalf("lookup(a) = %v, %v, %v; want a hit", hit, f, lead)
		}
		if got := snapshotKeys(c); !slices.Equal(got, []string{"a", "c", "b"}) {
			t.Fatalf("order %q after the hit, want a c b", got)
		}
	})

	t.Run("rejection releases the key", func(t *testing.T) {
		c := newResultCache(3)
		f := mustLead(t, c, "k")
		if _, g, lead := c.lookup("k"); g != f || lead {
			t.Fatal("second lookup does not follow the open flight")
		}
		rej := errDeadline()
		c.settle(f, nil, rej)
		<-f.done
		if f.reject != rej || c.Len() != 0 {
			t.Fatalf("followers see reject %v, table holds %d", f.reject, c.Len())
		}
		if g := mustLead(t, c, "k"); g == f {
			t.Fatal("the next lookup joined the rejected flight")
		}
	})

	t.Run("open flights are neither counted nor evicted", func(t *testing.T) {
		c := newResultCache(2)
		settled(t, c, "a", "b")
		f := mustLead(t, c, "c")
		if c.Len() != 2 || !slices.Equal(snapshotKeys(c), []string{"b", "a"}) {
			t.Fatalf("an open flight changed the settled entries: %q", snapshotKeys(c))
		}
		if _, g, lead := c.lookup("c"); g != f || lead {
			t.Fatal("the open flight was evicted from a full table")
		}
		c.settle(f, payloadFor("c"), nil)
		if got := snapshotKeys(c); !slices.Equal(got, []string{"c", "b"}) {
			t.Fatalf("settling into a full table left %q, want c b", got)
		}
		mustLead(t, c, "a")
	})

	t.Run("capacity 0 dedups and keeps nothing", func(t *testing.T) {
		c := newResultCache(-1)
		f := mustLead(t, c, "k")
		if _, g, lead := c.lookup("k"); g != f || lead {
			t.Fatal("capacity 0 does not dedup an open flight")
		}
		p := payloadFor("k")
		c.settle(f, p, nil)
		if f.p != p || c.Len() != 0 {
			t.Fatalf("followers see %v, table holds %d", f.p, c.Len())
		}
		mustLead(t, c, "k")
		if c.AddIfSpace("w", payloadFor("w")) {
			t.Fatal("capacity 0 accepted a warm insert")
		}
	})

	t.Run("AddIfSpace", func(t *testing.T) {
		c := newResultCache(2)
		fa, pa := mustLead(t, c, "a"), payloadFor("a")
		c.settle(fa, pa, nil)
		settled(t, c, "b")
		f := mustLead(t, c, "a2")
		fresh := payloadFor("a")
		if !c.AddIfSpace("a", fresh) {
			t.Fatal("AddIfSpace refused to refresh a settled key")
		}
		if hit, _, _ := c.lookup("a"); hit != fresh || !slices.Equal(snapshotKeys(c), []string{"a", "b"}) {
			t.Fatalf("refresh: hit %v, order %q; want the new payload first", hit, snapshotKeys(c))
		}
		if fa.p != pa {
			t.Fatal("refresh wrote the settled entry its flight's followers read")
		}
		if c.AddIfSpace("a2", payloadFor("a2")) {
			t.Fatal("AddIfSpace took a key in flight")
		}
		if c.AddIfSpace("c", payloadFor("c")) {
			t.Fatal("AddIfSpace evicted from a full table")
		}
		c.settle(f, nil, errDeadline())
		if got := snapshotKeys(c); !slices.Equal(got, []string{"a", "b"}) {
			t.Fatalf("order %q, want a b", got)
		}
	})

	t.Run("differential", func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		for seq := 0; seq < 300; seq++ {
			resultCacheDifferential(t, rng, rng.Intn(5))
		}
	})
}

// resultCacheDifferential runs random lookup, settle, AddIfSpace and
// Snapshot calls on a table of capacity cap and on a reference model: the
// settled entries in a slice, most recently used first, and the open
// flights in a map.
func resultCacheDifferential(t *testing.T, rng *rand.Rand, capacity int) {
	t.Helper()
	type entry struct {
		key string
		p   *payload
	}
	c := newResultCache(capacity)
	var lru []entry
	open := make(map[string]*resultEntry)
	find := func(key string) int {
		return slices.IndexFunc(lru, func(e entry) bool { return e.key == key })
	}
	toFront := func(e entry) {
		if i := find(e.key); i >= 0 {
			lru = slices.Delete(lru, i, i+1)
		}
		lru = slices.Insert(lru, 0, e)
	}
	for op := 0; op < 200; op++ {
		key := fmt.Sprint(rng.Intn(6))
		switch rng.Intn(4) {
		case 0:
			hit, f, lead := c.lookup(key)
			switch i := find(key); {
			case i >= 0:
				if hit != lru[i].p || f != nil || lead {
					t.Fatalf("cap %d op %d: lookup(%s) missed a settled key", capacity, op, key)
				}
				toFront(lru[i])
			case open[key] != nil:
				if hit != nil || f != open[key] || lead {
					t.Fatalf("cap %d op %d: lookup(%s) did not follow the open flight", capacity, op, key)
				}
			default:
				if hit != nil || f == nil || !lead {
					t.Fatalf("cap %d op %d: lookup(%s) did not lead", capacity, op, key)
				}
				open[key] = f
			}
		case 1:
			f := open[key]
			if f == nil {
				continue
			}
			delete(open, key)
			if rng.Intn(3) == 0 {
				c.settle(f, nil, errQueueFull())
				continue
			}
			p := payloadFor(key)
			c.settle(f, p, nil)
			if capacity > 0 {
				toFront(entry{key, p})
				lru = lru[:min(len(lru), capacity)]
			}
		case 2:
			p := payloadFor(key)
			want := open[key] == nil && (find(key) >= 0 || len(lru) < capacity)
			if got := c.AddIfSpace(key, p); got != want {
				t.Fatalf("cap %d op %d: AddIfSpace(%s) = %v, want %v", capacity, op, key, got, want)
			}
			if want {
				toFront(entry{key, p})
			}
		case 3:
			got := c.Snapshot()
			if len(got) != len(lru) || c.Len() != len(lru) {
				t.Fatalf("cap %d op %d: %d settled entries, want %d", capacity, op, len(got), len(lru))
			}
			for i, p := range got {
				if p != lru[i].p {
					t.Fatalf("cap %d op %d: snapshot entry %d is %s, want %s", capacity, op, i, p.Key, lru[i].key)
				}
			}
		}
	}
}

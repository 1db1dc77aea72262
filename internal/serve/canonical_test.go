package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// roundTripRuns is the gate canonicalRuns replaced, kept as its oracle:
// decode the bytes, re-marshal them, and accept only an exact match.
func roundTripRuns(result []byte) ([]RunSummary, bool) {
	var runs []RunSummary
	if err := json.Unmarshal(result, &runs); err != nil {
		return nil, false
	}
	canon, err := json.Marshal(runs)
	if err != nil || !bytes.Equal(canon, result) {
		return nil, false
	}
	return runs, true
}

// FuzzCanonicalRuns holds the one-pass gate to the round trip: for any
// bytes, both accept or both refuse, and when both accept they return the
// same slice (a nil one for null, an empty one for []). The checked-in seeds
// cover a journaled row, the int64 extremes, null and the empty arrays,
// whitespace, non-canonical numbers, reordered, duplicated, unknown and
// upper-case keys, and a truncated row.
func FuzzCanonicalRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		got, ok := canonicalRuns(b)
		want, wantOK := roundTripRuns(b)
		if ok != wantOK {
			t.Fatalf("canonicalRuns(%q) accepts = %v, the round trip says %v", b, ok, wantOK)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("canonicalRuns(%q) = %#v, the round trip gives %#v", b, got, want)
		}
	})
}

// TestCanonicalRunsRandomRuns feeds the gate json.Marshal's own output for
// random runs, int64 extremes included, and one-byte mutations of it.
func TestCanonicalRunsRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	edges := []int64{0, 1, -1, 9, 10, -10, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for i := 0; i < 2000; i++ {
		runs := make([]RunSummary, rng.Intn(4))
		for j := range runs {
			v := reflect.ValueOf(&runs[j]).Elem()
			for f := 0; f < v.NumField(); f++ {
				n := rng.Int63() >> rng.Intn(63)
				if rng.Intn(3) == 0 {
					n = edges[rng.Intn(len(edges))]
				} else if rng.Intn(2) == 0 {
					n = -n
				}
				v.Field(f).SetInt(n)
			}
		}
		b, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := canonicalRuns(b); !ok || !reflect.DeepEqual(got, runs) {
			t.Fatalf("canonicalRuns(%s) = %v, %v; want the runs it was marshalled from", b, got, ok)
		}
		m := bytes.Clone(b)
		m[rng.Intn(len(m))] = "0-,:{}[]\"e. 9"[rng.Intn(13)]
		got, ok := canonicalRuns(m)
		want, wantOK := roundTripRuns(m)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("canonicalRuns(%s) = %v, %v; the round trip gives %v, %v", m, got, ok, want, wantOK)
		}
	}
}

// TestRunSummaryFitsGate: canonicalRuns scans every RunSummary field as an
// int64 under its json tag, so a field of another type, or one whose tag is
// missing or carries options such as omitempty, needs the gate extended
// first.
func TestRunSummaryFitsGate(t *testing.T) {
	rt := reflect.TypeFor[RunSummary]()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tag := f.Tag.Get("json")
		if f.Type != reflect.TypeFor[int64]() || tag == "" || tag == "-" || strings.ContainsAny(tag, `,"\`) {
			t.Errorf("RunSummary.%s (%s, json tag %q) is not an int64 under a bare json name: canonicalRuns, the stored-result gate, cannot scan it", f.Name, f.Type, tag)
		}
	}
}

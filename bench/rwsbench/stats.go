package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of ds (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// beyond counts the samples strictly above v: the support a percentile has.
func beyond(ds []time.Duration, v time.Duration) int {
	n := 0
	for _, d := range ds {
		if d > v {
			n++
		}
	}
	return n
}

// medianF returns the median of xs (0 for none).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianD returns the median of ds (0 for none).
func medianD(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(medianF(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one request share Req; Parent links a span to the span
// that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, for a parent whose children finish before it does.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records the span id that ran from start until now.
func (t *tracer) add(id, parent int64, name string, req int64, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// span records a leaf span that ran from start until now.
func (t *tracer) span(parent int64, name string, req int64, start time.Time) {
	t.add(t.id(), parent, name, req, start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is one layer's share of the traced run.
type layerTimes struct {
	spans       int
	total, self time.Duration
}

// selfTimes groups spans by layer (the name up to its first '.') and gives
// each layer its total and self time: a span's duration minus the part of it
// that the union of its children's intervals covers.
func (t *tracer) selfTimes() map[string]*layerTimes {
	kids := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTimes)
	for _, s := range t.spans {
		covered := int64(0)
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		lt := out[layer]
		if lt == nil {
			lt = &layerTimes{}
			out[layer] = lt
		}
		lt.spans++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// printSelfTimes writes the per-layer table of a traced run.
func (t *tracer) printSelfTimes(w io.Writer) {
	st := t.selfTimes()
	layers := make([]string, 0, len(st))
	for l := range st {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, l := range layers {
		lt := st[l]
		fmt.Fprintf(w, "%-10s %8d %12.3f %12.3f\n", l, lt.spans, ms(lt.total), ms(lt.self))
	}
}

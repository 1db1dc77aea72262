package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the smoke
// test checks the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload for half a second at seed 1 at smoke sizes,
// then one traced run, and checks that the gates pass and that every metric
// BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, rwsbench runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, rwsbench's is %q", i, w.Name, workloads[i].name)
		}
	}

	cfg := config{root: root, seed: 1, window: 500 * time.Millisecond, sz: smokeSizes}
	results := smokeRun(t, cfg)
	if len(results) != len(workloads) {
		t.Fatalf("got %d result lines, want %d", len(results), len(workloads))
	}
	for i, res := range results {
		checkResult(t, workloads[i].name, res, bf.EndToEnd)
	}

	cfg.workload, cfg.trace = "sweep", true
	results = smokeRun(t, cfg)
	if len(results) != 1 {
		t.Fatalf("traced run: got %d result lines, want 1", len(results))
	}
	checkResult(t, "sweep (traced)", results[0], bf.PerLayer)
}

// smokeRun runs cfg and returns its result lines.
func smokeRun(t *testing.T, cfg config) []result {
	t.Helper()
	var out, errb bytes.Buffer
	start := time.Now()
	defer func() { t.Logf("workload %q trace=%v took %v", cfg.workload, cfg.trace, time.Since(start)) }()
	if code := run(context.Background(), cfg, &out, &errb); code != 0 {
		t.Fatalf("rwsbench exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	var results []result
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "{") {
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, res)
		}
	}
	return results
}

// checkResult requires a correct result that prints exactly the metrics
// of want, each with its unit.
func checkResult(t *testing.T, what string, res result, want []metricSpec) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s printed with unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		}
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// defaultGolden pins the byte-exact report of one small default-flag run
// (the paper's flat, unpriced machine under uniform stealing). It guards
// the CLI surface the same way the engine goldens guard the simulator: new
// flags and report rows must not perturb default output by a single byte.
const defaultGolden = `algorithm prefix, n=256, p=4, B=16, M=4096, b=10, s=20, seed-dependent schedule
makespan (ticks):        1289
work ticks:              1208
successful steals:       29
failed steals:           90
spawns:                  126
usurpations:             25
cache misses:            115
block misses:            91
block wait ticks:        426
block transfers:         206
max transfers/block:     22
root stack peak:         134
stacks created/reused:   10/20
`

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestDefaultOutputByteStable(t *testing.T) {
	code, out, errs := runCLI(t, "-alg", "prefix", "-n", "256", "-p", "4")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if out != defaultGolden {
		t.Errorf("default output drifted from the pinned golden:\n--- got ---\n%s--- want ---\n%s", out, defaultGolden)
	}
}

// TestNewFlagsUnsetAreInert: passing the new steal-pricing flags at their
// zero defaults (and the default policy explicitly) must reproduce the
// default output byte for byte — no extra rows, no metric drift.
func TestNewFlagsUnsetAreInert(t *testing.T) {
	code, out, errs := runCLI(t,
		"-alg", "prefix", "-n", "256", "-p", "4",
		"-policy", "uniform", "-steal-cost", "0", "-steal-cost-remote", "0")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if out != defaultGolden {
		t.Errorf("explicit default flags drifted from the pinned golden:\n--- got ---\n%s--- want ---\n%s", out, defaultGolden)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown policy", []string{"-policy", "bogus"}, `unknown policy "bogus"`},
		{"unknown algorithm", []string{"-alg", "bogus"}, `unknown algorithm "bogus"`},
		{"size the algorithm cannot run", []string{"-alg", "fft", "-n", "100"}, "fft needs n a power of two, got 100"},
		{"size zero", []string{"-n", "0"}, "prefix needs n >= 1, got 0"},
		{"remote without sockets", []string{"-remote", "40"}, "-remote requires -sockets"},
		{"steal-cost-remote without sockets", []string{"-steal-cost-remote", "9"}, "-steal-cost-remote requires -sockets"},
		{"negative steal-cost", []string{"-steal-cost", "-3"}, "Topology.CostSteal=-3"},
		{"steal-cost-remote below steal-cost", []string{"-sockets", "2", "-steal-cost", "9", "-steal-cost-remote", "4"},
			"CostStealRemote=4 < Topology.CostSteal=9"},
		{"unparsable flag", []string{"-p", "many"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errs := runCLI(t, append([]string{"-alg", "prefix", "-n", "64"}, tc.args...)...)
			if code != 2 {
				t.Errorf("exit = %d, want 2 (stderr %q)", code, errs)
			}
			if out != "" {
				t.Errorf("bad flags still produced a report:\n%s", out)
			}
			if !strings.Contains(errs, tc.wantErr) {
				t.Errorf("stderr %q missing %q", errs, tc.wantErr)
			}
		})
	}
}

// TestPricedRowsAppear: the steal-latency report rows are emitted exactly
// when the topology prices steals, after the policy/topology block.
func TestPricedRowsAppear(t *testing.T) {
	code, out, errs := runCLI(t,
		"-alg", "prefix", "-n", "256", "-p", "4",
		"-policy", "hierarchical", "-sockets", "2", "-steal-cost", "5", "-steal-cost-remote", "25")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	for _, want := range []string{"steal policy:", "hierarchical", "remote steal probes:", "steal latency (ticks):"} {
		if !strings.Contains(out, want) {
			t.Errorf("priced run output missing %q:\n%s", want, out)
		}
	}
	// Flat-but-priced: pricing rows without the topology block.
	code, out, errs = runCLI(t, "-alg", "prefix", "-n", "256", "-p", "4", "-steal-cost", "5")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if strings.Contains(out, "sockets:") {
		t.Errorf("flat priced run printed the topology block:\n%s", out)
	}
	if !strings.Contains(out, "steal latency (ticks):") {
		t.Errorf("flat priced run missing the steal latency row:\n%s", out)
	}
}

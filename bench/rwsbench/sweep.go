package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
)

// sweepDigests pins the sha256 of a sweep's stdout with the E14 table
// removed, one "<scale> <hex>" line per scale. E14 times the host's own
// cores and is the only table that differs between runs.
//
//go:embed sweep.sha256
var sweepDigests string

// sweepProcs is the sweep's GOMAXPROCS (see runSweep).
const sweepProcs = 1

// sweepSetupsPerPass is how many set-up samples the sweep takes before each
// pass.
const sweepSetupsPerPass = 3

// runSweep execs `experiments -scale full -par 1` back to back until the
// window is spent. One pass is one unit of work and one latency sample.
//
// The serial sweep runs at GOMAXPROCS=1: on a shared 2-vCPU KVM guest, a
// second P made the same quick sweep 12% slower and more than doubled its
// run-to-run spread. E14, whose native contrast needs two Ps, then skips;
// its table is outside the digest either way.
func runSweep(e *env) (*outcome, error) {
	want, err := pinnedDigest(e.cfg.sz.sweepScale)
	if err != nil {
		return nil, err
	}
	o := &outcome{unit: "pass", latOf: "pass"}

	// Set-up is the program's start: exec to exit of `experiments -h`, which
	// runs the runtime and every package initializer and nothing else. It
	// takes about a millisecond, and the host's speed shifts in spells of
	// seconds, so the samples are taken before every pass, not in one burst:
	// their median then spans the whole run, as the passes do. The window is
	// the passes' own wall time.
	winID := e.tr.id()
	start := time.Now()
	for pass := int64(1); pass == 1 || time.Since(start) < e.cfg.window; pass++ {
		for i := int64(1); i <= sweepSetupsPerPass; i++ {
			t0 := time.Now()
			r, err := e.runOnce(nil, sweepProcs, "experiments", "-h")
			if err != nil {
				return nil, err
			}
			e.tr.span(winID, "setup.experiments", (pass-1)*sweepSetupsPerPass+i, t0)
			o.setups = append(o.setups, r.wall)
		}

		var out bytes.Buffer
		t0 := time.Now()
		r, err := e.runOnce(&out, sweepProcs, "experiments", "-scale", e.cfg.sz.sweepScale, "-par", "1")
		e.tr.span(winID, "sweep.pass", pass, t0)
		o.attempted++
		if e.ctx.Err() != nil {
			return nil, fmt.Errorf("sweep pass %d: %w", pass, e.ctx.Err())
		}
		o.window += r.wall
		if err != nil {
			o.failed++
			o.gateErrs = append(o.gateErrs, err.Error())
			continue
		}
		o.done++
		o.lat = append(o.lat, r.wall)
		o.peakKB = max(o.peakKB, r.rssKB)
		if fails := strings.Count(out.String(), "[FAIL]"); fails > 0 {
			o.failed++
			o.gateErrs = append(o.gateErrs, fmt.Sprintf("pass %d: %d [FAIL] lines", pass, fails))
		} else if got := sweepDigest(out.Bytes()); got != want {
			o.failed++
			o.gateErrs = append(o.gateErrs, fmt.Sprintf("pass %d: output digest %s, pinned %s", pass, got, want))
		}
	}
	e.tr.add(winID, 0, "workload.sweep", 0, start)
	return o, nil
}

func pinnedDigest(scale string) (string, error) {
	for _, line := range strings.Split(sweepDigests, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == scale {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("no pinned sweep digest for scale %q", scale)
}

// sweepDigest hashes a sweep's stdout without the E14 section: from its
// "== E14:" header up to the next table's header.
func sweepDigest(out []byte) string {
	h := sha256.New()
	skip := false
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("== ")) {
			skip = bytes.HasPrefix(line, []byte("== E14:"))
		}
		if !skip {
			h.Write(line)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

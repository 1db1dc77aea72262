package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rwsfs/internal/serve/jobs"
)

const (
	// batchRate is the nominal row rate that sizes the batch work: a run
	// submits window × batchRate rows however fast the daemon is, so the
	// journal a warm restart replays, and with it setup_s and peak_rss_mb,
	// do not move with throughput.
	batchRate    = 600 // rows/s
	batchRowsCap = 65536
)

// batchArgs is the batch_journal daemon: every row fsync'd to the journal,
// no job retention limit, and a result cache large enough for every row of
// the run, so a warm restart must load all of them.
func batchArgs(journal string) []string {
	return []string{"-workers", "2", "-journal-dir", journal, "-max-batch-jobs", "-1",
		"-cache", fmt.Sprint(batchRowsCap)}
}

// batchSpec is job number job of the run, with nseeds seeds and so 16×nseeds
// rows (4 algs × 2 ps × 2 policies × 1 socket count). Every job has fresh
// seeds, so no row is a cache hit and every row is computed and journaled.
func batchSpec(wseed int64, job, nseeds int) jobs.Spec {
	seeds := make([]int64, nseeds)
	for i := range seeds {
		seeds[i] = wseed<<32 | int64(job)<<12 | int64(i)
	}
	return jobs.Spec{
		Algs: []string{"prefix", "fft", "sort-col", "listrank"}, Ns: []int{512}, Ps: []int{4, 8},
		Policies: []string{"uniform", "hierarchical"}, Sockets: []int{2}, Seeds: seeds,
	}
}

// runBatch posts a fixed number of batch specs back to back, one at a time,
// then SIGTERMs the daemon and restarts it with -warm-cache setupRepeats
// times: each restart replays the journal and verifies every row into the
// cache before /healthz answers, and its exec-to-/healthz time is a set-up
// sample.
func runBatch(e *env) (*outcome, error) {
	o := &outcome{unit: "row", latOf: "batch job"}
	o.journal = filepath.Join(e.work, "journal")
	if err := os.RemoveAll(o.journal); err != nil {
		return nil, err
	}
	d, _, err := e.startDaemon(batchArgs(o.journal)...)
	if err != nil {
		return nil, err
	}
	// An untimed 64-row job builds every worker's engines before the window.
	wj, err := e.submitBatch(d, batchSpec(e.cfg.seed, 1<<16, 4))
	if err != nil {
		return nil, err
	}
	if wj.notOK != 0 {
		o.gateErrs = append(o.gateErrs, fmt.Sprintf("warm-up batch: %d rows not ok", wj.notOK))
	}
	done := []streamedJob{wj}
	journaled := int64(len(wj.lines)) - wj.notOK

	jobRows := 16 * e.cfg.sz.batchSeeds
	n := int(math.Round(e.cfg.window.Seconds() * batchRate / float64(jobRows)))
	n = min(max(n, 1), (batchRowsCap-int(journaled))/jobRows) // every row must fit the cache
	winID := e.tr.id()
	start := time.Now()
	for job := 0; job < n; job++ {
		t0 := time.Now()
		sj, err := e.submitBatch(d, batchSpec(e.cfg.seed, job, e.cfg.sz.batchSeeds))
		e.tr.span(winID, "rwsimd.batch", int64(job+1), t0)
		if err != nil {
			return nil, err
		}
		o.lat = append(o.lat, time.Since(t0))
		o.attempted += int64(len(sj.lines))
		o.failed += sj.notOK
		o.done += int64(len(sj.lines)) - sj.notOK
		journaled += int64(len(sj.lines)) - sj.notOK
		done = append(done, sj)
	}
	o.window = time.Since(start)
	e.tr.add(winID, 0, "workload.batch", 0, start)

	for _, sj := range done {
		grid, err := e.get(d.url + "/batch/" + sj.id + "/grid")
		if err != nil {
			return nil, err
		}
		if want := bytes.Join(sj.lines, nil); !bytes.Equal(grid, want) {
			o.gateErrs = append(o.gateErrs, fmt.Sprintf("batch %s: /grid (%d bytes) differs from the streamed rows (%d bytes)", sj.id, len(grid), len(want)))
		}
	}
	e.stopDaemon(d, o)

	setupID := e.tr.id()
	setupStart := time.Now()
	for i := 1; i <= setupRepeats; i++ {
		t0 := time.Now()
		d, took, err := e.startDaemon(append(batchArgs(o.journal), "-warm-cache")...)
		if err != nil {
			return nil, err
		}
		e.tr.span(setupID, "setup.rwsimd", int64(i), t0)
		o.setups = append(o.setups, took)
		var st statzBody
		if err := e.getJSON(d.url+"/statz", &st); err != nil {
			return nil, err
		}
		if st.Counters.CacheWarmed != journaled || st.Counters.WarmSkipped != 0 {
			o.gateErrs = append(o.gateErrs, fmt.Sprintf("warm restart %d: cache_warmed %d (want %d), warm_skipped_rows %d (want 0)",
				i, st.Counters.CacheWarmed, journaled, st.Counters.WarmSkipped))
		}
		e.stopDaemon(d, o)
	}
	e.tr.add(setupID, 0, "setup", 0, setupStart)
	return o, nil
}

// streamedJob is one batch job as its NDJSON stream delivered it.
type streamedJob struct {
	id    string
	lines [][]byte // raw row lines, by row index
	notOK int64
}

// submitBatch posts spec and reads the stream to its end trailer.
func (e *env) submitBatch(d *daemon, spec jobs.Spec) (streamedJob, error) {
	var sj streamedJob
	b, err := json.Marshal(spec)
	if err != nil {
		return sj, err
	}
	req, err := http.NewRequestWithContext(e.ctx, http.MethodPost, d.url+"/batch", bytes.NewReader(b))
	if err != nil {
		return sj, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return sj, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // only for the message
		return sj, fmt.Errorf("POST /batch: status %d: %s", resp.StatusCode, body)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			return sj, fmt.Errorf("batch %s: stream ended without its end trailer", sj.id)
		}
		if err != nil {
			return sj, fmt.Errorf("batch %s: read stream: %w", sj.id, err)
		}
		var rec struct {
			Type   string         `json:"type"`
			Job    string         `json:"job"`
			Rows   int            `json:"rows"`
			Index  int            `json:"index"`
			Status jobs.RowStatus `json:"status"`
		}
		if err := jsonUnmarshal(line, &rec, "batch stream"); err != nil {
			return sj, err
		}
		switch rec.Type {
		case "job":
			sj.id, sj.lines = rec.Job, make([][]byte, rec.Rows)
		case "row":
			if rec.Index < 0 || rec.Index >= len(sj.lines) || sj.lines[rec.Index] != nil {
				return sj, fmt.Errorf("batch %s: row index %d out of range or repeated", sj.id, rec.Index)
			}
			sj.lines[rec.Index] = line
			if rec.Status != jobs.RowOK {
				sj.notOK++
			}
		case "end":
			if rec.Status != "done" {
				return sj, fmt.Errorf("batch %s ended %q", sj.id, rec.Status)
			}
			for i, l := range sj.lines {
				if l == nil {
					return sj, fmt.Errorf("batch %s: row %d never streamed", sj.id, i)
				}
			}
			return sj, nil
		}
	}
}

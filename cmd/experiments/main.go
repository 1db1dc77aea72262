// Command experiments regenerates every reproduction experiment
// (harness.All, E01..E21) and prints the tables, either for a terminal or as
// markdown (-md).
//
// Usage:
//
//	experiments [-scale quick|full] [-only E01,E09] [-md] [-par N]
//	            [-timeout 30s] [-cpuprofile out.prof] [-memprofile out.prof]
//
// -par fans each experiment's independent simulator runs out over N host
// workers (0 = GOMAXPROCS). Runs are deterministic and results are ordered,
// so the output is byte-identical to a serial run (E14, which measures the
// host's wall clock, always runs its native timing serially).
//
// -timeout aborts the whole invocation after the given wall-clock duration.
// Cancellation is polled at simulator-run boundaries (individual runs always
// complete, keeping the runs that did execute bit-for-bit deterministic), so
// the abort lands within one run's latency; partial tables are not printed
// and the exit status is non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rwsfs/internal/harness"
)

func main() {
	scaleFlag := flag.String("scale", "full", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	md := flag.Bool("md", false, "emit markdown instead of aligned text")
	par := flag.Int("par", 1, "parallel simulator runs per sweep (0 = GOMAXPROCS, 1 = serial)")
	timeout := flag.Duration("timeout", 0,
		"abort after this wall-clock duration, at the next simulator-run boundary (0 = no limit)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	n := *par
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	harness.SetWorkers(n)

	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		harness.SetContext(ctx)
	}

	var scale harness.Scale
	switch *scaleFlag {
	case "quick":
		scale = harness.Quick
	case "full":
		scale = harness.Full
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	var selected []harness.Experiment
	if *only == "" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			ex, ok := harness.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, ex)
		}
	}

	failures := 0
	for _, ex := range selected {
		tbl := ex.Run(scale)
		if err := harness.ContextErr(); err != nil {
			// The sweep was cut off mid-experiment; the table would mix real
			// and zero rows, so report the abort instead of printing it.
			fmt.Fprintf(os.Stderr, "experiments: aborted at %s after -timeout %s: %v\n", ex.ID, *timeout, err)
			pprof.StopCPUProfile()
			writeMemProfile(*memprofile)
			os.Exit(1)
		}
		if *md {
			fmt.Print(tbl.Markdown())
		} else {
			fmt.Println(tbl.Format())
		}
		for _, c := range tbl.Checks {
			if !c.Pass {
				failures++
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d shape checks failed\n", failures)
		// Flush the profiles before the non-zero exit skips the defers.
		pprof.StopCPUProfile()
		writeMemProfile(*memprofile)
		os.Exit(1)
	}
}

// writeMemProfile records a heap profile to path if set.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	}
}

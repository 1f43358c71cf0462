// Command tracegen emits the synthetic workload traces of the FlexLevel
// evaluation as CSV (arrival_us,op,lpn,pages), for inspection or for
// feeding external simulators.
//
//	tracegen -w fin-2 -n 100000 > fin2.csv
//	tracegen -list
//
// With -tenants N it instead emits a scenario-spec CSV of N tenants
// (the canonical trio first, then derived variants), the format
// `flexlevel scenario -spec` and `flexlevel serve -tenants` consume —
// one shared tenant vocabulary across the tools.
//
//	tracegen -tenants 3 > tenants.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"flexlevel/internal/core"
	"flexlevel/internal/trace"
)

func main() {
	name := flag.String("w", "fin-2", "workload name")
	n := flag.Int("n", 100000, "number of requests")
	ws := flag.Uint64("pages", core.DefaultOptions(core.Baseline, 0).SSD.FTL.LogicalPages,
		"logical page count the working sets scale against (the simulated device's)")
	seed := flag.Int64("seed", 1, "generator seed")
	list := flag.Bool("list", false, "list available workloads and exit")
	summary := flag.Bool("summary", false, "print workload statistics instead of the trace")
	tenants := flag.Int("tenants", 0, "emit a scenario-spec CSV of this many tenants instead of a trace")
	flag.Parse()

	if *tenants > 0 {
		specs := trace.SampleTenants(*tenants, *ws)
		for _, t := range specs {
			if err := t.Validate(); err != nil {
				fmt.Fprintln(os.Stderr, "tracegen:", err)
				os.Exit(1)
			}
		}
		if err := trace.WriteScenarioSpec(os.Stdout, specs); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, w := range trace.Workloads(*n, *ws, *seed) {
			fmt.Printf("%-8s %-18s reads=%.0f%% zipf=%.2f workingset=%d pages\n",
				w.Name, w.Class, w.ReadRatio*100, w.ZipfS, w.WorkingSet)
		}
		return
	}

	w, err := trace.ByName(*name, *n, *ws, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	reqs, err := w.Generate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	if *summary {
		s := trace.Summarize(reqs)
		fmt.Printf("workload:   %s (%s)\n", w.Name, w.Class)
		fmt.Printf("requests:   %d (%d reads, %d writes)\n", s.Requests, s.Reads, s.Writes)
		fmt.Printf("pages:      %d read, %d written\n", s.ReadPages, s.WritePages)
		fmt.Printf("span:       %v\n", s.Span)
		return
	}
	if err := trace.WriteCSV(os.Stdout, reqs); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

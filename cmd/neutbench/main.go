// Command neutbench regenerates every number, table and figure-level
// claim from the paper's evaluation (§4) plus the behavioural claims of
// Figures 1-2 and the §3 design discussions. Each experiment prints
// paper-vs-measured rows.
//
// It is the one entry point of the experiments. The scenario
// experiments (E6-E10, E13) each carry a full and a reduced config, and
// each config sweeps worker counts (or, for the serial E7 and E10,
// same-seed replays) and fails unless every run's outcome encodes to the
// same bytes. -reduced selects the reduced configs, the size tests and
// CI use. A scenario experiment's stdout is a pure function of the
// flags: rows that depend on wall-clock time go to stderr, so two runs
// byte-diff clean.
//
// Usage:
//
//	neutbench                    # run everything
//	neutbench -exp E3            # run one experiment
//	neutbench -exp E13 -reduced  # a scenario experiment's reduced config
//	neutbench -reduced           # every scenario experiment, reduced
//	neutbench -list              # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	"netneutral"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	reduced := flag.Bool("reduced", false, "run the scenario experiments' reduced configs (E6-E10, E13)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range netneutral.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	run := netneutral.Experiments()
	if *exp != "" {
		e, ok := netneutral.ExperimentByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "neutbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		if *reduced && e.Reduced == nil {
			fmt.Fprintf(os.Stderr, "neutbench: %s has no reduced config\n", e.ID)
			os.Exit(2)
		}
		run = []netneutral.Experiment{e}
	}
	failed := 0
	for _, e := range run {
		fn := e.Run
		if *reduced {
			if e.Reduced == nil {
				continue
			}
			fn = e.Reduced
		}
		res, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "neutbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Println(res.String())
		if wall := res.WallString(); wall != "" {
			fmt.Fprintln(os.Stderr, wall)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

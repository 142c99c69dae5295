// Command benchrunner regenerates the tables and figures of the paper's
// reconstructed evaluation (the roster experiments.All: the E-series plus
// the design ablations), printing each as a text table. See DESIGN.md for
// the experiment index and EXPERIMENTS.md for the recorded results.
//
// Usage:
//
//	benchrunner                    # full scale (~ a couple of minutes)
//	benchrunner -scale 0.1         # quick pass
//	benchrunner -only E7           # a single experiment
//	benchrunner -json results.json # also write machine-readable records
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"websearchbench/internal/experiments"
	"websearchbench/internal/search/exec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters; it returns the
// exit status (2 for a usage error, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale   = fs.Float64("scale", 1.0, "scale factor for corpus/queries/sim durations")
		only    = fs.String("only", "", "run a single experiment: one of "+experiments.IDs())
		jsonO   = fs.String("json", "", "write the run's measurements to this file as a JSON array of records (see experiments.Record for the schema)")
		workers = fs.Int("exec-workers", 0, "bounded search executor workers for the parallel-search experiments (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchrunner: unexpected argument %q (select an experiment with -only); valid: %s\n",
			fs.Arg(0), experiments.IDs())
		return 2
	}
	sel := experiments.Experiment{ID: "all", Run: (*experiments.Context).RunAll}
	if *only != "" {
		var ok bool
		if sel, ok = experiments.Lookup(*only); !ok {
			fmt.Fprintf(stderr, "benchrunner: unknown experiment %q; valid: %s\n", *only, experiments.IDs())
			return 2
		}
	}
	if *workers > 0 {
		exec.SetDefaultWorkers(*workers)
	}

	c := experiments.NewContext(stdout, *scale)
	sel.Run(c)
	if *jsonO == "" {
		return 0
	}
	records := c.Records()
	if len(records) == 0 {
		fmt.Fprintf(stderr, "benchrunner: experiment %s emitted no records; %s not written\n", sel.ID, *jsonO)
		return 1
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err == nil {
		err = os.WriteFile(*jsonO, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchrunner: %v\n", err)
		return 1
	}
	return 0
}

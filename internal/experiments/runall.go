package experiments

import (
	"fmt"
	"strings"
)

// Experiment is one row of the roster: the ID its section header and
// records carry, and the function that runs it and prints its table.
type Experiment struct {
	ID  string
	Run func(*Context)
}

// All is the roster, in run order. RunAll, benchrunner -only, the root
// BenchmarkExperiments and the smoke test all iterate it, so an
// experiment is added or removed here and nowhere else.
//
// The IDs have gaps. E14, E20, E24, E25, ABL-1 and ABL-2 were removed
// when the repository benchmark (bench/) or a wider ablation came to
// report the same measurement; EXPERIMENTS.md maps each to the metric
// that replaced it. The remaining IDs were not renumbered, so recorded
// results keep their names.
var All = []Experiment{
	{"E1", func(c *Context) { c.E1Characterization() }},
	{"E2", func(c *Context) { c.E2Workload() }},
	{"E3", func(c *Context) { c.E3PhaseBreakdown() }},
	{"E4", func(c *Context) { c.E4ServiceTimeAnatomy() }},
	{"E12", func(c *Context) { c.E12RealPartition() }}, // calibration before sims
	{"E5", func(c *Context) { c.E5LoadCurve() }},
	{"E6", func(c *Context) { c.E6Throughput() }},
	{"E7", func(c *Context) { c.E7PartitionTail() }},
	{"E8", func(c *Context) { c.E8PartitionThroughput() }},
	{"E9", func(c *Context) { c.E9CDF() }},
	{"E10", func(c *Context) { c.E10LowPower() }},
	{"E11", func(c *Context) { c.E11Energy() }},
	{"E13", func(c *Context) { c.E13Cluster() }},
	{"E15", func(c *Context) { c.E15DVFS() }},
	{"E16", func(c *Context) { c.E16TailAtScale() }},
	{"E17", func(c *Context) { c.E17Diurnal() }},
	{"E18", func(c *Context) { c.E18Hedging() }},
	{"E19", func(c *Context) { c.E19LiveFaults() }},
	{"E21", func(c *Context) { c.E21Replication() }},
	{"E22", func(c *Context) { c.E22Durability() }},
	{"E23", func(c *Context) { c.E23ParallelIndexing() }},
	{"ABL-3", func(c *Context) { c.AblationAssignment() }},
	{"ABL-4", func(c *Context) { c.AblationTopK() }},
	{"ABL-5", func(c *Context) { c.AblationScheduling() }},
	{"ABL-6", func(c *Context) { c.AblationSkipLists() }},
	{"ABL-7", func(c *Context) { c.AblationBlockMax() }},
}

// Lookup returns the roster row with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the roster's IDs in run order, space-separated, for
// messages that tell the user what can be selected.
func IDs() string {
	ids := make([]string, len(All))
	for i, e := range All {
		ids[i] = e.ID
	}
	return strings.Join(ids, " ")
}

// RunAll executes every experiment and ablation in roster order,
// printing each table.
func (c *Context) RunAll() {
	for _, e := range All {
		e.Run(c)
	}
	fmt.Fprintf(c.Out, "\nall %d experiments completed (scale=%.2f)\n", len(All), c.Scale)
}

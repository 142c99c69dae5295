// Command bench is the repository's benchmark: five workloads over the
// request path, checked against an oracle, reporting the end-to-end and
// per-layer metrics BENCHMARK.json names. See README.md.
//
//	go run ./bench -seed 1 -out bench/results/BENCH_11.json   all workloads, untraced then traced
//	go run ./bench --workload engine-or --seed 3 --seconds 10 --trace 0   one run, one JSON result line
//	go run ./bench -repeat 5 -out a.json                      medians, quartiles and spread over 5 runs
//	go run ./bench -compare a.json b.json                     apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], defaultSizing, os.Stdout, os.Stderr)) }

// spec is BENCHMARK.json: the registry of workloads and metrics, their
// units, directions and bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Set by -repeat: the quartiles and run count behind the median.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	N  int     `json:"n,omitempty"`
}

// pick returns the listed metrics of res with their units; a metric the
// run did not produce is reported as 0 for a per-layer metric (the layer
// did no work on this workload) and is an error for an end-to-end one.
func pick(res *result, defs []metricDef, required bool) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printMetrics writes "workload metric value unit" lines in spec order.
func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", workload, d.Name, v.Value, v.Unit)
		}
	}
}

// workloadReport is one workload's entry in the output JSON.
type workloadReport struct {
	Metrics   map[string]value `json:"metrics"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Invalid   []string         `json:"invalid,omitempty"`
	SpanBytes int64            `json:"span_dump_bytes,omitempty"`
	Spans     int              `json:"spans,omitempty"`
}

// report is the output JSON of a full or repeated run.
type report struct {
	Provenance map[string]any            `json:"provenance"`
	Sizing     sizing                    `json:"sizing"`
	Seconds    float64                   `json:"seconds_per_run"`
	Repeat     int                       `json:"repeat,omitempty"`
	VarySeed   bool                      `json:"vary_seed,omitempty"`
	Workloads  map[string]workloadReport `json:"workloads"`
	WallS      float64                   `json:"wall_s"`
	SpanBytes  int64                     `json:"span_dump_bytes"`
}

func provenance(seed int64) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"git_commit": commit,
		"seed":       seed,
	}
}

func run(args []string, sz sizing, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload and print one JSON result line")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "with -workload: 0 measures end-to-end metrics untraced, 1 per-layer metrics traced")
		out      = fs.String("out", "", "write the results as JSON to this file")
		traceOut = fs.String("trace-out", "", "write the traced runs' spans as JSON lines to this file")
		repeat   = fs.Int("repeat", 0, "run every workload untraced this many times and report medians, quartiles and spread")
		varySeed = fs.Bool("vary-seed", false, "with -repeat: give every run another seed, as the benchmark driver does (exact counts then vary too)")
		compare  = fs.Bool("compare", false, "compare two result files (old new) under BENCHMARK.json's bounds")
		specPath = fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files: old new"))
		}
		regressed, err := compareFiles(stdout, sp, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	base := runOpts{seed: *seed, seconds: *seconds, sz: sz, log: stderr}

	if *workload != "" {
		return runOne(stdout, stderr, sp, base, *workload, *trace != 0)
	}

	start := time.Now()
	rep := report{
		Provenance: provenance(*seed),
		Sizing:     sz,
		Seconds:    *seconds,
		Repeat:     *repeat,
		VarySeed:   *varySeed,
		Workloads:  map[string]workloadReport{},
	}
	spanOut := io.Discard // the dump's size is reported either way
	var spanFile *os.File
	if *traceOut != "" {
		if spanFile, err = os.Create(*traceOut); err != nil {
			return fail(err)
		}
		defer spanFile.Close()
		spanOut = spanFile
	}
	failed := false
	for _, ws := range sp.Workloads {
		o := base
		o.name = ws.Name
		var wr workloadReport
		if *repeat > 0 {
			wr, err = runRepeated(stdout, sp, o, *repeat, *varySeed)
		} else {
			wr, err = runBoth(stdout, sp, o, spanOut)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", ws.Name, err))
		}
		rep.SpanBytes += wr.SpanBytes
		rep.Workloads[ws.Name] = wr
		if wr.Failed > 0 || len(wr.Invalid) > 0 {
			fmt.Fprintf(stderr, "bench: %s: %d of %d failed; invalid: %v\n", ws.Name, wr.Failed, wr.Attempted, wr.Invalid)
			failed = true
		}
	}
	rep.WallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "total wall_s %.1f s\ntotal span_dump_bytes %d B\n", rep.WallS, rep.SpanBytes)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			return fail(err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runOne is the driver's contract: one workload, one mode, and as the
// last line of standard output one JSON object with the keys correct,
// attempted, failed and metrics. An invalid run prints no result; a run
// with wrong answers prints its result and still exits non-zero.
func runOne(stdout, stderr io.Writer, sp *spec, o runOpts, name string, traced bool) int {
	o.name = name
	res, defs, vals, err := runMode(sp, o, traced)
	if err == nil && len(res.Invalid) > 0 {
		err = fmt.Errorf("invalid run: %s", strings.Join(res.Invalid, "; "))
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	printMetrics(stdout, name, defs, vals)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, vals})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %s: %d of %d answers wrong\n", name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runMode runs o's workload once: untraced for the end-to-end metrics, or
// traced for the per-layer ones. It returns the run, the metric
// definitions of that mode and their values.
func runMode(sp *spec, o runOpts, traced bool) (*result, []metricDef, map[string]value, error) {
	defs, required := sp.EndToEnd, true
	o.tr = nil
	if traced {
		o.tr = newTracer()
		defs, required = sp.PerLayer, false
	}
	res, err := runWorkload(o)
	if err != nil {
		return nil, nil, nil, err
	}
	vals, err := pick(res, defs, required)
	return res, defs, vals, err
}

// runBoth runs a workload untraced for the end-to-end metrics, then
// traced for the per-layer ones.
func runBoth(stdout io.Writer, sp *spec, o runOpts, spanOut io.Writer) (workloadReport, error) {
	wr := workloadReport{Metrics: map[string]value{}}
	for _, traced := range []bool{false, true} {
		res, defs, vals, err := runMode(sp, o, traced)
		if err != nil {
			return wr, err
		}
		printMetrics(stdout, o.name, defs, vals)
		for k, v := range vals {
			wr.Metrics[k] = v
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.Invalid = append(wr.Invalid, res.Invalid...)
		if traced {
			wr.Spans = len(res.spans)
			if wr.SpanBytes, err = writeSpans(spanOut, o.name, res.spans); err != nil {
				return wr, err
			}
		}
	}
	return wr, nil
}

// runRepeated runs a workload untraced n times and reports the median,
// quartiles and relative spread of every gated metric. The seed stays the
// same, so exact counts repeat exactly and the spread is the host's alone;
// with varySeed run i gets seed+i, which is what the benchmark driver does.
func runRepeated(stdout io.Writer, sp *spec, o runOpts, n int, varySeed bool) (workloadReport, error) {
	wr := workloadReport{Metrics: map[string]value{}}
	defs := gatedDefs(sp, o.name)
	series := map[string][]float64{}
	for i := 0; i < n; i++ {
		ro := o
		if varySeed {
			ro.seed += int64(i)
		}
		res, _, _, err := runMode(sp, ro, false)
		if err != nil {
			return wr, err
		}
		vals, err := pick(res, defs, true)
		if err != nil {
			return wr, err
		}
		for k, v := range vals {
			series[k] = append(series[k], v.Value)
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.Invalid = append(wr.Invalid, res.Invalid...)
	}
	for _, d := range defs {
		q1, med, q3 := quartiles(series[d.Name])
		wr.Metrics[d.Name] = value{Value: med, Unit: d.Unit, Q1: q1, Q3: q3, N: n}
		fmt.Fprintf(stdout, "%s %s median %.6g q1 %.6g q3 %.6g %s spread %.4f bound %.4f\n",
			o.name, d.Name, med, q1, q3, d.Unit, div(q3-q1, med), d.Bound)
	}
	return wr, nil
}

// gatedDefs is what -repeat reports and -compare checks on one workload:
// every end-to-end metric, and the per-layer metrics gates names for that
// workload, each under the workload's own bound where gates has one and
// BENCHMARK.json's otherwise.
func gatedDefs(sp *spec, workload string) []metricDef {
	defs := slices.Clone(sp.EndToEnd)
	for _, d := range sp.PerLayer {
		if _, ok := gates[workload][d.Name]; ok {
			defs = append(defs, d)
		}
	}
	for i := range defs {
		if b, ok := gates[workload][defs[i].Name]; ok {
			defs[i].Bound = b
		}
	}
	return defs
}

// quartiles matches Python's statistics.quantiles(xs, n=4): the
// exclusive method, positions at (len+1)*k/4.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(k int) float64 {
		if len(s) == 0 {
			return 0
		}
		if len(s) == 1 {
			return s[0]
		}
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		j = max(1, min(j, len(s)-1))
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// compareFiles prints every gated metric of two result files side by side
// and reports whether new is worse than old by more than the bound.
func compareFiles(w io.Writer, sp *spec, oldPath, newPath string) (bool, error) {
	load := func(p string) (report, error) {
		var r report
		data, err := os.ReadFile(p)
		if err != nil {
			return r, err
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return r, fmt.Errorf("%s: %w", p, err)
		}
		return r, nil
	}
	oldR, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newR, err := load(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(oldR.Workloads))
	for name := range oldR.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed := false
	for _, name := range names {
		ow, nw := oldR.Workloads[name], newR.Workloads[name]
		if nw.Failed > ow.Failed {
			fmt.Fprintf(w, "%s failed %d -> %d REGRESSED\n", name, ow.Failed, nw.Failed)
			regressed = true
		}
		for _, d := range gatedDefs(sp, name) {
			ov, ok1 := ow.Metrics[d.Name]
			nv, ok2 := nw.Metrics[d.Name]
			if !ok1 || !ok2 || ov.Value == 0 {
				fmt.Fprintf(w, "%s %s missing\n", name, d.Name)
				regressed = true
				continue
			}
			worse := (nv.Value - ov.Value) / ov.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%s %s %.6g -> %.6g %s worse by %+.4f bound %.4f %s\n",
				name, d.Name, ov.Value, nv.Value, d.Unit, worse, d.Bound, verdict)
		}
	}
	return regressed, nil
}

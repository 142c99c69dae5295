package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"
)

// toySizing shrinks the benchmark to a smoke test: 2k documents, windows
// of half a second, one set-up.
func toySizing() sizing {
	sz := defaultSizing
	sz.Docs, sz.Vocab, sz.BodyTerms = 2000, 3000, 80
	sz.ServeUnique, sz.ServeCache, sz.ServeStream = 300, 30, 1<<12
	sz.EnginePool = 100
	sz.LiveSeedDocs, sz.LiveMemtable, sz.LiveUnique = 1500, 128, 100
	sz.WriterRate, sz.WriterCooldown, sz.SentinelLookback, sz.SentinelEvery = 400, 300, 50, 10
	sz.BlobPool = 200
	sz.Warmup = 50 * time.Millisecond
	sz.OpenRate = map[string]float64{"serve-cluster": 300, "engine-or": 300, "engine-and": 300, "live-churn": 300, "blob-cold": 30}
	sz.TraceSlices = 2
	sz.SetupRepeats, sz.BlobSetupRepeats = 1, 1
	sz.ProbeQueries, sz.ProbeLists = 20, 8
	sz.MaxLateness = time.Hour // the race detector makes every dispatcher late
	return sz
}

// tinySizing is for the runs that only have to reach the failure count.
func tinySizing() sizing {
	sz := toySizing()
	sz.Docs, sz.LiveSeedDocs = 300, 400
	return sz
}

const (
	toySeconds  = 0.5
	tinySeconds = 0.2
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all five workloads at toy scale, traced, and checks that
// every workload and metric BENCHMARK.json names is emitted under a valid
// name with a unit, and that no answer is wrong. A second, smaller run of
// each workload gets a deliberately wrong oracle entry, which must reach
// the failure count.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	defs := map[string]metricDef{}
	for _, d := range append(slices.Clone(sp.EndToEnd), sp.PerLayer...) {
		defs[d.Name] = d
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", d.Name)
		}
		if d.Unit == "" {
			t.Errorf("metric %s has no unit", d.Name)
		}
	}
	for workload, bounds := range gates {
		if workloads[workload] == nil {
			t.Errorf("gates names an unknown workload %q", workload)
		}
		for metric, bound := range bounds {
			if d, ok := defs[metric]; !ok {
				t.Errorf("gates[%s] names an unknown metric %q", workload, metric)
			} else if d.Bound > 0 && bound > d.Bound {
				t.Errorf("gates[%s][%s] = %v is wider than BENCHMARK.json's %v", workload, metric, bound, d.Bound)
			}
		}
	}
	var mu sync.Mutex
	produced := map[string]bool{} // per-layer metrics some workload measured
	t.Run("workloads", func(t *testing.T) {
		for _, ws := range sp.Workloads {
			name := ws.Name
			if !nameRE.MatchString(name) {
				t.Errorf("workload name %q is not made of [A-Za-z0-9_.-]", name)
			}
			// In parallel: the windows are wall-clock, and nothing here
			// asserts a timing.
			t.Run(name+"/traced", func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(runOpts{name: name, seed: 1, seconds: toySeconds, sz: toySizing(), log: io.Discard, tr: newTracer()})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%d of %d answers wrong, want 0 of many", res.Failed, res.Attempted)
				}
				if len(res.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
				vals, err := pick(res, gatedDefs(sp, name), true)
				if err != nil {
					t.Error(err)
				}
				for metric, v := range vals {
					if metric == "heap_mb" {
						continue // a process-wide delta: meaningless beside parallel runs
					}
					if v.Value <= 0 || v.Unit == "" {
						t.Errorf("gated metric %s = %v %q, want a positive value with a unit", metric, v.Value, v.Unit)
					}
				}
				mu.Lock()
				defer mu.Unlock()
				for _, d := range sp.PerLayer {
					if _, ok := res.Metrics[d.Name]; ok {
						produced[d.Name] = true
					}
				}
			})
			t.Run(name+"/wrong-oracle", func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(runOpts{name: name, seed: 1, seconds: tinySeconds, sz: tinySizing(), log: io.Discard, corruptOracle: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d of %d failed", res.Failed, res.Attempted)
				if res.Failed == 0 || res.Metrics["fail_share"] <= 0 {
					t.Errorf("failed = %d, fail_share = %v with a wrong oracle entry, want both above zero", res.Failed, res.Metrics["fail_share"])
				}
			})
		}
	})
	for _, d := range sp.PerLayer {
		if !produced[d.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", d.Name)
		}
	}
}

// TestDriverContract runs the single-workload mode the way the driver
// does and checks the shape of the result line.
func TestDriverContract(t *testing.T) {
	specPath := filepath.Join("..", "BENCHMARK.json")
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "engine-and", "--seed", "3", "--seconds", "0.2", "--trace", "0", "-spec", specPath}
	if code := run(args, tinySizing(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var got struct {
		Correct   *bool            `json:"correct"`
		Attempted *int             `json:"attempted"`
		Failed    *int             `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Fatalf("result line lacks one of correct, attempted, failed: %s", lines[len(lines)-1])
	}
	if len(got.Metrics) != len(sp.EndToEnd) {
		t.Errorf("result line has %d metrics, want the %d end-to-end ones", len(got.Metrics), len(sp.EndToEnd))
	}
	for _, d := range sp.EndToEnd {
		if v, ok := got.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.Name, v, d.Unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestSameRankingAllowsOnlyTies(t *testing.T) {
	want := []ranked[int32]{{1, 9}, {2, 7}, {3, 7}, {4, 5}}
	cases := []struct {
		name string
		got  []ranked[int32]
		ok   bool
	}{
		{"identical", []ranked[int32]{{1, 9}, {2, 7}, {3, 7}, {4, 5}}, true},
		{"tied pair swapped", []ranked[int32]{{1, 9}, {3, 7}, {2, 7 + 1e-12}, {4, 5}}, true},
		{"tie across the cut-off", []ranked[int32]{{1, 9}, {2, 7}, {3, 7}, {8, 5}}, true},
		{"untied pair swapped", []ranked[int32]{{2, 7}, {1, 9}, {3, 7}, {4, 5}}, false},
		{"wrong document", []ranked[int32]{{1, 9}, {2, 7}, {5, 7}, {4, 5}}, false},
		{"wrong score", []ranked[int32]{{1, 9}, {2, 7}, {3, 7}, {4, 5.1}}, false},
		{"short", []ranked[int32]{{1, 9}, {2, 7}, {3, 7}}, false},
	}
	for _, c := range cases {
		if got := sameRanking(c.got, want); got != c.ok {
			t.Errorf("%s: sameRanking = %v, want %v", c.name, got, c.ok)
		}
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	sp := &spec{EndToEnd: []metricDef{
		{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.05},
		{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.05},
	}}
	write := func(name string, qps, p50 float64) string {
		rep := report{Workloads: map[string]workloadReport{"w": {Metrics: map[string]value{
			"qps": {Value: qps, Unit: "1/s"}, "p50_ms": {Value: p50, Unit: "ms"},
		}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 2)
	for _, c := range []struct {
		name      string
		qps, p50  float64
		regressed bool
	}{
		{"within bounds", 960, 2.08, false},
		{"better", 1200, 1.5, false},
		{"qps fell", 940, 2, true},
		{"p50 rose", 1000, 2.2, true},
	} {
		got, err := compareFiles(io.Discard, sp, base, write("new.json", c.qps, c.p50))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.regressed)
		}
	}
}

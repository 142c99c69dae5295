package websearchbench

// The benchmark harness: one table-driven testing.B benchmark over the
// experiment roster (experiments.All — the reconstructed tables and
// figures indexed in DESIGN.md plus the design-choice ablations). Each
// sub-benchmark runs its experiment end-to-end at a reduced scale; the
// full-scale numbers recorded in EXPERIMENTS.md come from cmd/benchrunner.
//
// Run them all with:
//
//	go test -bench=. -benchmem

import (
	"io"
	"testing"

	"websearchbench/internal/experiments"
)

// benchScale keeps every experiment benchmark in the sub-second range.
const benchScale = 0.05

// BenchmarkExperiments regenerates every table of the roster
// experiments.All, one sub-benchmark per experiment ID
// (go test -bench 'BenchmarkExperiments/E7$'). The calibration needs the
// corpus, the workload and the measured demands, so forcing it builds
// every shared artifact up front and each sub-benchmark times its own
// experiment rather than the shared setup.
func BenchmarkExperiments(b *testing.B) {
	c := experiments.NewContext(io.Discard, benchScale)
	c.Calibration()
	for _, e := range experiments.All {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Run(c)
			}
		})
	}
}

// BenchmarkEngineSearch measures the end-to-end facade query path.
func BenchmarkEngineSearch(b *testing.B) {
	e, err := New(Config{Docs: 2000, VocabSize: 5000, Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	q := e.Index().Doc(0).Title
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(q)
	}
}

package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/corpus"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
	"websearchbench/internal/search/exec"
	"websearchbench/internal/textproc"
	"websearchbench/internal/workload"
)

// runOpts is one run of one workload.
type runOpts struct {
	name    string
	seed    int64
	seconds float64
	sz      sizing
	tr      *tracer // nil for the untraced run
	log     io.Writer
	// corruptOracle makes one oracle entry wrong, so the smoke test can
	// see a mismatch reach the failure count.
	corruptOracle bool
}

func (o runOpts) logf(format string, args ...any) {
	fmt.Fprintf(o.log, "bench: %s: "+format+"\n", append([]any{o.name}, args...)...)
}

// result is what one run measured: every metric it can compute, by name
// (units and bounds live in BENCHMARK.json), and the correctness counts.
type result struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Invalid lists why the run's numbers must not be used (generator
	// ran late, open-loop backlog kept growing); empty for a valid run.
	Invalid []string `json:"invalid,omitempty"`
	spans   []span
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

var workloads = map[string]func(runOpts) (*result, error){
	"serve-cluster": runServeCluster,
	"engine-or":     runEngineOr,
	"engine-and":    runEngineAnd,
	"live-churn":    runLiveChurn,
	"blob-cold":     runBlobCold,
}

// runWorkload runs one workload with or without tracing.
func runWorkload(o runOpts) (*result, error) {
	fn, ok := workloads[o.name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json lists them)", o.name)
	}
	nproc := runtime.NumCPU()
	if o.sz.Clients > nproc {
		return nil, fmt.Errorf("invalid run: clients = %d exceeds nproc = %d", o.sz.Clients, nproc)
	}
	// Once per process: resizing closes the executor that searchers of a
	// concurrent run (the smoke test's) were built on.
	sizeExecutor.Do(func() { exec.SetDefaultWorkers(nproc) })
	return fn(o)
}

var sizeExecutor sync.Once

// timedSetups runs build n times, tearing down all but the last instance,
// and returns the median build time in seconds. build covers only calls
// into the program's public functions; input generation happens before.
func timedSetups(n int, build func() (teardown func(), err error)) (float64, func(), error) {
	var secs []float64
	var last func()
	for i := 0; i < n; i++ {
		if last != nil {
			last()
		}
		start := time.Now()
		td, err := build()
		if err != nil {
			return 0, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = td
	}
	return median(secs), last, nil
}

// heapMB is HeapAlloc after a collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// genDocs generates the seeded corpus.
func genDocs(seed int64, n int, sz sizing) ([]corpus.Document, *corpus.Vocabulary, error) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.VocabSize, cfg.MeanBodyTerms, cfg.Seed = n, sz.Vocab, sz.BodyTerms, seed
	g, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	return g.Generate(), g.Vocabulary(), nil
}

// defaultPool is the workload generator's default query pool (canonical
// length mix, OR) with n unique queries.
func defaultPool(seed int64, n int, vocab *corpus.Vocabulary) ([]workload.Query, error) {
	cfg := workload.DefaultConfig()
	cfg.UniqueQueries, cfg.Seed = n, seed
	g, err := workload.NewGenerator(cfg, vocab)
	if err != nil {
		return nil, err
	}
	return g.Pool(), nil
}

// rankPool draws n queries of terms words each, uniformly from
// vocabulary ranks [lo, hi].
func rankPool(seed int64, n, terms, lo, hi int, mode search.Mode, vocab *corpus.Vocabulary) []workload.Query {
	rng := rand.New(rand.NewSource(seed))
	if hi >= vocab.Size() {
		hi = vocab.Size() - 1
	}
	pool := make([]workload.Query, n)
	for i := range pool {
		words := make([]string, terms)
		for j := range words {
			words[j] = vocab.Word(lo + rng.Intn(hi-lo+1))
		}
		pool[i] = workload.Query{Text: strings.Join(words, " "), Mode: mode}
	}
	return pool
}

// buildIndex indexes docs into one partitioned index.
func buildIndex(docs []corpus.Document, parts int) (*partition.Index, error) {
	b, err := partition.NewBuilder(parts, partition.RoundRobin, 0)
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		b.AddCorpusDoc(d)
	}
	return b.Finalize(), nil
}

// indexBytesPerDoc serializes every segment of idx and divides by the
// document count: an exact count.
func indexBytesPerDoc(idx *partition.Index) (float64, error) {
	var total int64
	for p := 0; p < idx.NumPartitions(); p++ {
		n, err := idx.Segment(p).WriteTo(io.Discard)
		if err != nil {
			return 0, fmt.Errorf("serialize partition %d: %w", p, err)
		}
		total += n
	}
	return float64(total) / float64(idx.NumDocs()), nil
}

// parseProbe is textproc.parse_us: mean time of search.ParseQuery over
// the head of pool.
func parseProbe(pool []workload.Query, n int) float64 {
	if n > len(pool) {
		n = len(pool)
	}
	a := textproc.NewAnalyzer()
	terms := 0 // keeps the parsed queries alive
	start := time.Now()
	for _, q := range pool[:n] {
		terms += len(search.ParseQuery(a, q.Text, q.Mode).Terms)
	}
	el := time.Since(start)
	runtime.KeepAlive(terms)
	return float64(el.Microseconds()) / float64(n)
}

// phases holds the loops of one run.
type phases struct {
	ref    loopResult // traced run only: the untraced slices of the closed loop
	closed loopResult
	open   loopResult
	// refQPS[i] and tracedQPS[i] are the qps of the i-th pair of adjacent
	// closed-loop slices of a traced run, one untraced and one traced.
	refQPS, tracedQPS []float64
	// allocs and gcPause are runtime deltas across ref+closed+open.
	allocs  uint64
	gcPause time.Duration
}

// hooks lets a workload act at fixed points of measure. Both are optional.
type hooks struct {
	// background is started at the origin of the measurement; the
	// function it returns is called once the loops are done.
	background func(origin time.Time) (finish func())
	// traceStart is called in a traced run once the warm-up is over, to
	// snapshot the counters per-layer deltas start from.
	traceStart func()
}

// measure runs the load of one workload: a discarded warm-up, a closed
// loop, then an open loop at rate. In a traced run the closed loop is cut
// into slices with the tracer off (the reference) and on, and the open
// loop is traced.
func measure(o runOpts, do request, rate float64, h hooks) phases {
	sz := o.sz
	total := time.Duration(o.seconds * float64(time.Second))
	closedWin := time.Duration(float64(total) * sz.ClosedShare)
	if o.tr != nil {
		closedWin = time.Duration(float64(total) * sz.TraceClosedShare)
	}
	openWin := total - closedWin
	var next atomic.Int64
	var ph phases
	var finish func()
	if h.background != nil {
		finish = h.background(time.Now())
	}
	closedLoop(sz.Clients, sz.Warmup, &next, do)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if o.tr == nil {
		ph.closed = closedLoop(sz.Clients, closedWin, &next, do)
	} else {
		if h.traceStart != nil {
			h.traceStart()
		}
		slice := closedWin / time.Duration(sz.TraceSlices)
		for k := 0; k < sz.TraceSlices; k++ {
			// Slices pair up, (off, on) then (on, off) and so on, so
			// neither side is always the later, warmer one.
			traced := (k%2 == 1) != (k/2%2 == 1)
			into, qps := &ph.ref, &ph.refQPS
			if traced {
				into, qps = &ph.closed, &ph.tracedQPS
			}
			o.tr.enabled.Store(traced)
			r := closedLoop(sz.Clients, slice, &next, do)
			*qps = append(*qps, qpsOf(r.samples, r.window))
			into.samples = append(into.samples, r.samples...)
			into.window += r.window
		}
		o.tr.enabled.Store(true)
	}
	due := poissonSchedule(rand.New(rand.NewSource(o.seed^0x6f70656e)), rate, openWin)
	discard := time.Duration(float64(openWin) * sz.OpenDiscard)
	ph.open = pacedLoop(sz.Clients, time.Now(), due, discard, openWin, int(next.Load()), do, nil)
	runtime.ReadMemStats(&m1)
	if o.tr != nil {
		o.tr.enabled.Store(false)
	}
	if finish != nil {
		finish()
	}
	ph.allocs = m1.Mallocs - m0.Mallocs
	ph.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return ph
}

// report turns the loops into the load metrics every workload shares and
// the run's correctness counts and validity.
func (ph phases) report(o runOpts, res *result, extraLateness []int64) {
	res.Attempted += len(ph.ref.samples) + len(ph.closed.samples) + len(ph.open.samples)
	res.Failed += ph.ref.failed() + ph.closed.failed() + ph.open.failed()
	// Plain statistics of the whole window, so a flush, merge or GC burst
	// shows in qps and in the tail.
	closed, open := latenciesMs(ph.closed.samples), latenciesMs(ph.open.samples)
	res.set("qps", qpsOf(ph.closed.samples, ph.closed.window))
	res.set("p50_ms", percentile(closed, 50))
	res.set("p99_ms", percentile(closed, 99))
	res.set("loadgen.open_p50_ms", percentile(open, 50))
	res.set("loadgen.open_p99_ms", percentile(open, 99))
	o.logf("closed loop: %d samples in %.2f s; open loop: %d samples", len(closed), ph.closed.window.Seconds(), len(open))
	if o.tr == nil && len(closed) < 1000 {
		o.logf("p99_ms rests on %d samples, fewer than the 1000 that leave ten beyond it", len(closed))
	}
	limit := int64(o.sz.OpenLimit[o.name])
	within := 0
	for _, s := range ph.open.samples {
		if s.ok && s.lat <= limit {
			within++
		}
	}
	res.set("open_qos_share", div(float64(within), float64(len(ph.open.samples))))

	queries := float64(len(ph.ref.samples) + len(ph.closed.samples) + len(ph.open.samples))
	res.set("runtime.allocs_per_query", div(float64(ph.allocs), queries))
	res.set("runtime.gc_pause_ms", float64(ph.gcPause)/1e6)
	// The median over the pairs: the first pair still warms caches up.
	var overhead []float64
	for i := range ph.tracedQPS {
		if i < len(ph.refQPS) && ph.refQPS[i] > 0 {
			overhead = append(overhead, 1-ph.tracedQPS[i]/ph.refQPS[i])
		}
	}
	if len(overhead) > 0 {
		res.set("trace.overhead_share", median(overhead))
	}
	late := percentile(int64sToMs(append(append([]int64(nil), ph.open.lateness...), extraLateness...)), 99)
	res.set("loadgen.lateness_p99_ms", late)
	if late > float64(o.sz.MaxLateness)/1e6 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("loadgen.lateness_p99_ms = %.3f exceeds %.3f", late, float64(o.sz.MaxLateness)/1e6))
	}
	if backlogGrowing(ph.open.delay, o.sz.BacklogSlack) {
		res.Invalid = append(res.Invalid, "open-loop backlog still growing at the end of the window")
	}
	res.set("fail_share", div(float64(res.Failed), float64(res.Attempted)))
}

// ranked is one hit of a ranked list, keyed by document.
type ranked[K comparable] struct {
	key   K
	score float64
}

// sameRanking compares a ranked list with the oracle's: scores equal rank
// by rank within 1e-9, and the same documents in the same order, except
// that documents whose scores tie within 1e-9 may swap. Two documents with
// the same term frequencies and length score the same up to the order of
// the floating-point sum, which differs between the pruned and unpruned
// evaluators, so their order (and, at the cut-off, which one is kept) is
// not defined.
func sameRanking[K comparable](got, want []ranked[K]) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		if !closeScore(g.score, want[i].score) {
			return false
		}
		if g.key == want[i].key {
			continue
		}
		tied := closeScore(g.score, want[len(want)-1].score) // a tie across the cut-off
		for _, w := range want {
			tied = tied || (w.key == g.key && closeScore(w.score, g.score))
		}
		if !tied {
			return false
		}
	}
	return true
}

func closeScore(a, b float64) bool {
	d := a - b
	return d <= 1e-9 && d >= -1e-9
}

// sameHits is sameRanking over engine hits, allocating only on a mismatch.
func sameHits(got, want []search.Hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || !closeScore(got[i].Score, want[i].Score) {
			conv := func(hs []search.Hit) []ranked[int32] {
				out := make([]ranked[int32], len(hs))
				for i, h := range hs {
					out[i] = ranked[int32]{h.Doc, h.Score}
				}
				return out
			}
			return sameRanking(conv(got), conv(want))
		}
	}
	return true
}

// oracleSearcher evaluates sequentially without any pruning: no
// MaxScore, no Block-Max, no shared threshold.
func oracleSearcher(idx *partition.Index, k int) *partition.Searcher {
	s := partition.NewSearcher(idx, search.Options{TopK: k, UseMaxScore: false, DisableBlockMax: true}, false)
	s.SetSharedPruning(false)
	s.SetCollectPartTimes(false)
	return s
}

// engineOracle is the expected top-k of every pool query over idx.
func engineOracle(idx *partition.Index, pool []workload.Query, k int) [][]search.Hit {
	s := oracleSearcher(idx, k)
	out := make([][]search.Hit, len(pool))
	for i, q := range pool {
		out[i] = s.ParseAndSearch(q.Text, q.Mode).Hits
	}
	return out
}

// corruptHits makes every eighth oracle entry wrong (the smoke test's
// short loops may not come round to any single entry).
func corruptHits(oracle [][]search.Hit) {
	for i := 0; i < len(oracle); i += 8 {
		oracle[i] = append([]search.Hit{{Doc: -1}}, oracle[i]...)
	}
}

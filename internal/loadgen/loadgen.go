// Package loadgen is the benchmark's load driver, modeled on the Faban
// harness that drives the characterized benchmark: closed-loop client
// agents with negative-exponential think times, an open-loop Poisson
// driver, ramp-up/measurement windows, and QoS evaluation against a
// percentile response-time target.
package loadgen

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/metrics"
	"websearchbench/internal/workload"
)

// Backend executes one query; implementations are the system under test
// (in-process engine, partitioned searcher, or HTTP front-end client).
type Backend interface {
	Do(q workload.Query) error
}

// BackendFunc adapts a function to the Backend interface.
type BackendFunc func(q workload.Query) error

// Do calls f(q).
func (f BackendFunc) Do(q workload.Query) error { return f(q) }

// degradedCounter is the optional interface a backend implements to
// report degraded (partial, some-nodes-failed) responses — answers that
// succeeded but may be missing hits. cluster.Client implements it.
type degradedCounter interface {
	DegradedCount() int64
}

// degradedStart snapshots the backend's degraded counter before a run.
func degradedStart(backend Backend) int64 {
	if dc, ok := backend.(degradedCounter); ok {
		return dc.DegradedCount()
	}
	return 0
}

// degradedDelta returns how many degraded responses arrived since start.
func degradedDelta(backend Backend, start int64) int64 {
	if dc, ok := backend.(degradedCounter); ok {
		return dc.DegradedCount() - start
	}
	return 0
}

// QoS is a percentile response-time target, e.g. "90% of queries under
// 500ms" — the service-level objective the benchmark's driver checks.
type QoS struct {
	Percentile float64       // e.g. 90
	Target     time.Duration // e.g. 500ms
}

// DefaultQoS returns the benchmark's shipped target: 90th percentile
// under 500ms.
func DefaultQoS() QoS { return QoS{Percentile: 90, Target: 500 * time.Millisecond} }

// Result summarizes one load-generation run.
type Result struct {
	Latency   metrics.Snapshot
	Duration  time.Duration // measurement window wall time
	Completed int64
	Errors    int64
	// Degraded counts responses that succeeded but were flagged as
	// partial merges (some cluster nodes failed to answer). Only
	// backends implementing DegradedCount report it; others leave 0.
	Degraded int64
	// Throughput is completed queries per second over the measurement
	// window.
	Throughput float64
	// QoSFraction is the fraction of measured queries at or under the
	// QoS target.
	QoSFraction float64
	// QoSMet reports whether QoSFraction >= Percentile/100.
	QoSMet bool
	// Timeline is per-second completed-query rates across the window.
	Timeline []float64
}

// ClosedLoopConfig configures a closed-loop run: a fixed population of
// clients that each issue a query, wait for the response, then think for
// a negative-exponentially distributed time.
type ClosedLoopConfig struct {
	Clients       int
	MeanThinkTime time.Duration // 0 means no think time (back-to-back)
	RampUp        time.Duration // discarded warm-up
	Measure       time.Duration // measurement window
	QoS           QoS
	Seed          int64
}

func (c ClosedLoopConfig) validate() error {
	switch {
	case c.Clients <= 0:
		return fmt.Errorf("loadgen: Clients = %d, must be positive", c.Clients)
	case c.MeanThinkTime < 0:
		return fmt.Errorf("loadgen: negative MeanThinkTime")
	case c.Measure <= 0:
		return fmt.Errorf("loadgen: Measure window must be positive")
	case c.RampUp < 0:
		return fmt.Errorf("loadgen: negative RampUp")
	case c.QoS.Percentile <= 0 || c.QoS.Percentile > 100:
		return fmt.Errorf("loadgen: QoS percentile %v out of (0,100]", c.QoS.Percentile)
	}
	return nil
}

// RunClosedLoop drives backend with cfg.Clients concurrent agents drawing
// queries from the pre-generated stream (agents sample it independently,
// preserving its popularity mix).
func RunClosedLoop(cfg ClosedLoopConfig, stream []workload.Query, backend Backend) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if len(stream) == 0 {
		return Result{}, fmt.Errorf("loadgen: empty query stream")
	}

	var (
		hist      metrics.ConcurrentHistogram
		completed atomic.Int64
		errors    atomic.Int64
		underQoS  atomic.Int64
		stop      atomic.Bool
	)
	degStart := degradedStart(backend)
	measureStart := time.Now().Add(cfg.RampUp)
	timeline := metrics.NewTimeline(measureStart, time.Second)
	deadline := measureStart.Add(cfg.Measure)

	var wg sync.WaitGroup
	for a := 0; a < cfg.Clients; a++ {
		wg.Add(1)
		go func(agent int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(agent)*7919))
			for !stop.Load() {
				q := stream[rng.Intn(len(stream))]
				start := time.Now()
				err := backend.Do(q)
				end := time.Now()
				if end.After(measureStart) && start.Before(deadline) {
					lat := end.Sub(start)
					hist.Record(lat)
					completed.Add(1)
					timeline.Record(end)
					if err != nil {
						errors.Add(1)
					}
					if lat <= cfg.QoS.Target {
						underQoS.Add(1)
					}
				}
				if cfg.MeanThinkTime > 0 {
					think := time.Duration(rng.ExpFloat64() * float64(cfg.MeanThinkTime))
					time.Sleep(think)
				}
			}
		}(a)
	}
	time.Sleep(time.Until(deadline))
	stop.Store(true)
	wg.Wait()

	res := assemble(hist.Snapshot(), cfg.Measure, completed.Load(), errors.Load(),
		underQoS.Load(), cfg.QoS, timeline)
	res.Degraded = degradedDelta(backend, degStart)
	return res, nil
}

// OpenLoopConfig configures an open-loop run: queries arrive in a Poisson
// process at RateQPS regardless of completions, the discipline that
// exposes queueing delay.
type OpenLoopConfig struct {
	RateQPS float64
	RampUp  time.Duration
	Measure time.Duration
	QoS     QoS
	Seed    int64
	// MaxOutstanding bounds in-flight queries as a safety valve against
	// unbounded goroutine growth when the backend saturates; 0 means
	// 16384. Arrivals finding the bound full are counted as errors
	// (dropped), mirroring a full accept queue.
	MaxOutstanding int
}

func (c OpenLoopConfig) validate() error {
	switch {
	case c.RateQPS <= 0:
		return fmt.Errorf("loadgen: RateQPS = %v, must be positive", c.RateQPS)
	case c.Measure <= 0:
		return fmt.Errorf("loadgen: Measure window must be positive")
	case c.RampUp < 0:
		return fmt.Errorf("loadgen: negative RampUp")
	case c.QoS.Percentile <= 0 || c.QoS.Percentile > 100:
		return fmt.Errorf("loadgen: QoS percentile %v out of (0,100]", c.QoS.Percentile)
	case c.MaxOutstanding < 0:
		return fmt.Errorf("loadgen: negative MaxOutstanding")
	}
	return nil
}

// RunOpenLoop drives backend with Poisson arrivals at cfg.RateQPS. Each
// query's latency runs from its scheduled arrival, not from when the
// generator got round to sending it, so time the generator spends behind
// its schedule is charged to the queries it delayed (no coordinated
// omission); the scheduled arrival also decides whether a query falls in
// the measurement window.
func RunOpenLoop(cfg OpenLoopConfig, stream []workload.Query, backend Backend) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if len(stream) == 0 {
		return Result{}, fmt.Errorf("loadgen: empty query stream")
	}
	maxOut := cfg.MaxOutstanding
	if maxOut == 0 {
		maxOut = 16384
	}

	var (
		hist      metrics.ConcurrentHistogram
		completed atomic.Int64
		errors    atomic.Int64
		underQoS  atomic.Int64
	)
	rng := rand.New(rand.NewSource(cfg.Seed))
	degStart := degradedStart(backend)
	measureStart := time.Now().Add(cfg.RampUp)
	timeline := metrics.NewTimeline(measureStart, time.Second)
	deadline := measureStart.Add(cfg.Measure)
	sem := make(chan struct{}, maxOut)

	var wg sync.WaitGroup
	next := time.Now()
	for {
		// Negative-exponential inter-arrival gap.
		gap := time.Duration(rng.ExpFloat64() / cfg.RateQPS * float64(time.Second))
		next = next.Add(gap)
		if next.After(deadline) {
			break
		}
		time.Sleep(time.Until(next))
		q := stream[rng.Intn(len(stream))]
		// The loop leaves before an arrival past the deadline, so an
		// arrival belongs to the measurement window when it is due after
		// the ramp-up.
		select {
		case sem <- struct{}{}:
		default:
			if next.After(measureStart) {
				errors.Add(1)
			}
			continue
		}
		wg.Add(1)
		go func(q workload.Query, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			err := backend.Do(q)
			end := time.Now()
			if due.After(measureStart) {
				lat := end.Sub(due)
				hist.Record(lat)
				completed.Add(1)
				timeline.Record(end)
				if err != nil {
					errors.Add(1)
				}
				if lat <= cfg.QoS.Target {
					underQoS.Add(1)
				}
			}
		}(q, next)
	}
	wg.Wait()

	res := assemble(hist.Snapshot(), cfg.Measure, completed.Load(), errors.Load(),
		underQoS.Load(), cfg.QoS, timeline)
	res.Degraded = degradedDelta(backend, degStart)
	return res, nil
}

func assemble(snap metrics.Snapshot, window time.Duration, completed, errs, under int64,
	qos QoS, tl *metrics.Timeline) Result {
	res := Result{
		Latency:   snap,
		Duration:  window,
		Completed: completed,
		Errors:    errs,
		Timeline:  tl.Rates(),
	}
	if window > 0 {
		res.Throughput = float64(completed) / window.Seconds()
	}
	if completed > 0 {
		res.QoSFraction = float64(under) / float64(completed)
	}
	res.QoSMet = completed > 0 && res.QoSFraction >= qos.Percentile/100
	return res
}

package main

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"websearchbench/internal/stats"
)

// The benchmark's own load driver. internal/loadgen is not used:
// RunOpenLoop spawns a goroutine per arrival and times from send, not
// from when the request was due (see README, "Not covered").

// sample is one completed request: lat is the latency in nanoseconds
// (from the send in a closed loop, from the due time in a paced one), ok
// whether the answer was correct.
type sample struct {
	lat int64
	ok  bool
}

// request performs request i on worker w and reports whether the answer
// was correct.
type request func(w, i int) bool

// loopResult is what one loop measured inside its reporting window.
type loopResult struct {
	samples []sample
	window  time.Duration
	// Paced loops only. lateness holds, for every request its
	// dispatcher was idle for, how long after the due time it was sent:
	// the generator's own timing error. delay holds send minus due for
	// every request, in due order, which also counts time spent waiting
	// for a free dispatcher.
	lateness []int64
	delay    []int64
}

// failed counts the requests answered wrongly or not at all.
func (r loopResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// closedLoop runs workers callers with zero think time for window, taking
// request indices from next. A request counts when it completes inside
// the window.
func closedLoop(workers int, window time.Duration, next *atomic.Int64, do request) loopResult {
	origin := time.Now()
	to := int64(window)
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]sample, 0, 1<<14)
			for {
				start := time.Since(origin)
				if int64(start) >= to {
					break
				}
				ok := do(w, int(next.Add(1)-1))
				end := time.Since(origin)
				if int64(end) >= to {
					break
				}
				buf = append(buf, sample{lat: int64(end - start), ok: ok})
			}
			per[w] = buf
		}(w)
	}
	wg.Wait()
	res := loopResult{window: window}
	for w := range per {
		res.samples = append(res.samples, per[w]...)
	}
	return res
}

// poissonSchedule returns due times (ns since the loop's origin) of a
// Poisson process at rate per second over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []int64 {
	var due []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(d) {
			return due
		}
		due = append(due, int64(t))
	}
}

// uniformSchedule returns due times at a fixed interval.
func uniformSchedule(rate float64, d time.Duration) []int64 {
	n := int(rate * d.Seconds())
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(float64(i) / rate * 1e9)
	}
	return due
}

// pacedLoop sends request i at origin+due[i], dispatched by workers
// goroutines, and times each from its due time. Requests due before
// discard are sent but not reported. The request index passed to do is
// first+i. A non-nil stop ends the loop early once it is set, and the
// reporting window then ends there.
func pacedLoop(workers int, origin time.Time, due []int64, discard time.Duration, window time.Duration, first int, do request, stop *atomic.Bool) loopResult {
	type rec struct {
		i          int
		s          sample
		late, wait int64
	}
	per := make([][]rec, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]rec, 0, len(due)/workers+16)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || (stop != nil && stop.Load()) {
					break
				}
				late := int64(-1)
				now := int64(time.Since(origin))
				if now < due[i] {
					time.Sleep(time.Duration(due[i] - now))
					now = int64(time.Since(origin))
					late = now - due[i]
				}
				ok := do(w, first+i)
				end := int64(time.Since(origin))
				buf = append(buf, rec{i: i, s: sample{lat: end - due[i], ok: ok}, late: late, wait: now - due[i]})
			}
			per[w] = buf
		}(w)
	}
	wg.Wait()
	var all []rec
	for _, b := range per {
		all = append(all, b...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	if stop != nil && stop.Load() {
		window = min(window, time.Since(origin))
	}
	res := loopResult{window: window - discard}
	for _, r := range all {
		if due[r.i] < int64(discard) {
			continue
		}
		res.samples = append(res.samples, r.s)
		res.delay = append(res.delay, r.wait)
		if r.late >= 0 {
			res.lateness = append(res.lateness, r.late)
		}
	}
	return res
}

// backlogGrowing reports whether a paced loop ended with a queue that no
// longer drained: every request of the last tenth was dispatched more than
// slack after it was due. A loop that keeps up empties its queue again and
// again, however heavy single requests are.
func backlogGrowing(delay []int64, slack time.Duration) bool {
	if len(delay) < 20 {
		return false
	}
	return slices.Min(delay[len(delay)-len(delay)/10:]) > int64(slack)
}

// percentile is stats.Percentile (p in 0..100) with an empty sample, its
// only error here, reading 0.
func percentile(xs []float64, p float64) float64 {
	v, _ := stats.Percentile(xs, p)
	return v
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// div is a / b, and 0 when there is nothing to divide by.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latenciesMs extracts the latencies of samples in milliseconds.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.lat) / 1e6
	}
	return out
}

// qpsOf is correct completions per second of the window.
func qpsOf(samples []sample, window time.Duration) float64 {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

func int64sToMs(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / 1e6
	}
	return out
}

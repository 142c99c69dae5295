package loadgen

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"websearchbench/internal/workload"
)

var testStream = []workload.Query{{Text: "a"}, {Text: "b"}, {Text: "c"}}

// fakeBackend sleeps a fixed service time per request.
type fakeBackend struct {
	service time.Duration
	calls   atomic.Int64
	fail    bool
}

func (f *fakeBackend) Do(q workload.Query) error {
	f.calls.Add(1)
	if f.service > 0 {
		time.Sleep(f.service)
	}
	if f.fail {
		return errors.New("boom")
	}
	return nil
}

func TestClosedLoopValidation(t *testing.T) {
	good := ClosedLoopConfig{Clients: 1, Measure: time.Millisecond, QoS: DefaultQoS()}
	mutations := []func(*ClosedLoopConfig){
		func(c *ClosedLoopConfig) { c.Clients = 0 },
		func(c *ClosedLoopConfig) { c.MeanThinkTime = -1 },
		func(c *ClosedLoopConfig) { c.Measure = 0 },
		func(c *ClosedLoopConfig) { c.RampUp = -1 },
		func(c *ClosedLoopConfig) { c.QoS.Percentile = 0 },
		func(c *ClosedLoopConfig) { c.QoS.Percentile = 101 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if _, err := RunClosedLoop(c, testStream, &fakeBackend{}); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
	if _, err := RunClosedLoop(good, nil, &fakeBackend{}); err == nil {
		t.Error("empty stream: expected error")
	}
}

func TestClosedLoopRun(t *testing.T) {
	be := &fakeBackend{service: 2 * time.Millisecond}
	cfg := ClosedLoopConfig{
		Clients: 4,
		RampUp:  20 * time.Millisecond,
		Measure: 200 * time.Millisecond,
		QoS:     QoS{Percentile: 90, Target: 100 * time.Millisecond},
		Seed:    1,
	}
	res, err := RunClosedLoop(cfg, testStream, be)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completed queries")
	}
	if res.Errors != 0 {
		t.Errorf("Errors = %d", res.Errors)
	}
	// 4 clients / 2ms service: expect hundreds of QPS; assert a loose
	// lower bound to stay robust on slow CI.
	if res.Throughput < 50 {
		t.Errorf("Throughput = %v, want >= 50", res.Throughput)
	}
	if res.Latency.Mean < time.Millisecond {
		t.Errorf("mean latency %v below service time", res.Latency.Mean)
	}
	if !res.QoSMet || res.QoSFraction < 0.9 {
		t.Errorf("QoS not met: fraction=%v", res.QoSFraction)
	}
	if len(res.Timeline) == 0 {
		t.Error("empty timeline")
	}
}

func TestClosedLoopThinkTimeReducesThroughput(t *testing.T) {
	busy := &fakeBackend{service: time.Millisecond}
	idle := &fakeBackend{service: time.Millisecond}
	base := ClosedLoopConfig{
		Clients: 2,
		Measure: 150 * time.Millisecond,
		QoS:     DefaultQoS(),
		Seed:    1,
	}
	noThink, err := RunClosedLoop(base, testStream, busy)
	if err != nil {
		t.Fatal(err)
	}
	withThink := base
	withThink.MeanThinkTime = 10 * time.Millisecond
	thinky, err := RunClosedLoop(withThink, testStream, idle)
	if err != nil {
		t.Fatal(err)
	}
	if thinky.Throughput >= noThink.Throughput {
		t.Errorf("think time did not reduce throughput: %v vs %v",
			thinky.Throughput, noThink.Throughput)
	}
}

func TestClosedLoopErrorsCounted(t *testing.T) {
	be := &fakeBackend{fail: true}
	cfg := ClosedLoopConfig{
		Clients: 1,
		Measure: 50 * time.Millisecond,
		QoS:     DefaultQoS(),
	}
	res, err := RunClosedLoop(cfg, testStream, be)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 || res.Errors != res.Completed {
		t.Errorf("Errors = %d, Completed = %d", res.Errors, res.Completed)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	good := OpenLoopConfig{RateQPS: 100, Measure: time.Millisecond, QoS: DefaultQoS()}
	mutations := []func(*OpenLoopConfig){
		func(c *OpenLoopConfig) { c.RateQPS = 0 },
		func(c *OpenLoopConfig) { c.Measure = 0 },
		func(c *OpenLoopConfig) { c.RampUp = -1 },
		func(c *OpenLoopConfig) { c.QoS.Percentile = 0 },
		func(c *OpenLoopConfig) { c.MaxOutstanding = -1 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if _, err := RunOpenLoop(c, testStream, &fakeBackend{}); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
	if _, err := RunOpenLoop(good, nil, &fakeBackend{}); err == nil {
		t.Error("empty stream: expected error")
	}
}

func TestOpenLoopRun(t *testing.T) {
	be := &fakeBackend{service: time.Millisecond}
	cfg := OpenLoopConfig{
		RateQPS: 200,
		Measure: 200 * time.Millisecond,
		QoS:     QoS{Percentile: 90, Target: 100 * time.Millisecond},
		Seed:    2,
	}
	res, err := RunOpenLoop(cfg, testStream, be)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completed queries")
	}
	// Arrival rate 200/s over 200ms: ~40 arrivals; allow wide slack.
	if res.Completed < 10 || res.Completed > 120 {
		t.Errorf("Completed = %d, want ~40", res.Completed)
	}
	if !res.QoSMet {
		t.Errorf("QoS unmet at light load: %+v", res.Latency)
	}
}

func TestOpenLoopDropsWhenSaturated(t *testing.T) {
	// One outstanding slot and slow service: most arrivals are dropped.
	be := &fakeBackend{service: 20 * time.Millisecond}
	cfg := OpenLoopConfig{
		RateQPS:        500,
		Measure:        150 * time.Millisecond,
		QoS:            DefaultQoS(),
		Seed:           3,
		MaxOutstanding: 1,
	}
	res, err := RunOpenLoop(cfg, testStream, be)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Error("saturated open loop reported no drops")
	}
}

// TestOpenLoopChargesGeneratorLateness drives an instant backend at an
// arrival rate the generator cannot sustain: the 100ns mean gap is far
// below the cost of spawning a goroutine, so the generator falls steadily
// behind its Poisson schedule. That backlog is latency a real client
// would see, so it must show in the recorded percentiles; timing from the
// send would report the backend's own (near-zero) service time.
func TestOpenLoopChargesGeneratorLateness(t *testing.T) {
	cfg := OpenLoopConfig{
		RateQPS:        10e6,
		Measure:        20 * time.Millisecond,
		QoS:            DefaultQoS(),
		Seed:           4,
		MaxOutstanding: 1 << 20,
	}
	res, err := RunOpenLoop(cfg, testStream, &fakeBackend{})
	if err != nil {
		t.Fatal(err)
	}
	// ~200k arrivals are due inside the window, and all of them are
	// issued however late the generator runs.
	if res.Completed < 100_000 {
		t.Errorf("Completed = %d, want the ~200k scheduled arrivals", res.Completed)
	}
	// The median arrival is the ~100,000th; even at 120ns per send it is
	// issued 2ms after it was due.
	if res.Latency.P50 < 2*time.Millisecond {
		t.Errorf("p50 = %v: generator lateness was not charged to latency", res.Latency.P50)
	}
}

func TestBackendFunc(t *testing.T) {
	called := false
	f := BackendFunc(func(q workload.Query) error {
		called = true
		return nil
	})
	if err := f.Do(workload.Query{Text: "x"}); err != nil || !called {
		t.Error("BackendFunc broken")
	}
}

func TestDefaultQoS(t *testing.T) {
	q := DefaultQoS()
	if q.Percentile != 90 || q.Target != 500*time.Millisecond {
		t.Errorf("DefaultQoS = %+v", q)
	}
}

// Package resilience provides the failure-handling policies of the live
// cluster path: per-query deadlines, hedged requests against stragglers,
// jittered-exponential retries under a budget, per-node health tracking
// with a circuit breaker, and a deterministic fault-injection middleware
// for testing the whole stack under partial failure. The simulator's
// fan-out runs (internal/simsrv) model hedging with a copy of this
// package's rule; this package is what the real HTTP serving tier runs.
package resilience

import "time"

// Policy bundles every resilience knob the front-end applies on the
// scatter path. The zero value disables everything; DefaultPolicy returns
// production-shaped defaults.
type Policy struct {
	// Deadline bounds one end-to-end query, scatter and merge included.
	// 0 means no deadline beyond the caller's context: the transport
	// sets no timeout of its own.
	Deadline time.Duration

	// HedgeEnabled turns on hedged sub-requests: when a replica has not
	// answered after the hedge delay, the same sub-request is raced
	// against it on a different replica of the shard (on the same one
	// only when no other is admissible) and the first response wins.
	HedgeEnabled bool
	// HedgeAfter is a fixed hedge delay. 0 means adaptive: hedge after
	// the node's tracked p95 latency.
	HedgeAfter time.Duration
	// HedgeMinDelay floors the adaptive hedge delay so sub-millisecond
	// p95s on a warm loopback cluster don't hedge every request.
	HedgeMinDelay time.Duration

	// MaxRetries caps retry attempts (beyond the first try) for
	// transient transport errors. Retries are distinct from hedges:
	// a hedge races a slow request, a retry replaces a failed one.
	MaxRetries int
	// RetryBackoff shapes the jittered exponential delay between
	// attempts.
	RetryBackoff Backoff
	// RetryBudgetRatio is the token-bucket refill per first attempt
	// (Finagle-style retry budget): with 0.1, sustained retries cannot
	// exceed ~10% of request volume. 0 disables the budget check.
	RetryBudgetRatio float64

	// BreakerThreshold is the consecutive-failure count that trips a
	// node's circuit breaker. 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// allowing one half-open probe.
	BreakerCooldown time.Duration
}

// DefaultPolicy returns the front-end's stock policy: a 5 s query
// deadline, hedging off (opt in — it buys tail latency with extra work),
// two budgeted retries, and a 5-failure breaker with a 1 s cooldown.
func DefaultPolicy() Policy {
	return Policy{
		Deadline:         5 * time.Second,
		HedgeEnabled:     false,
		HedgeAfter:       0, // adaptive p95
		HedgeMinDelay:    time.Millisecond,
		MaxRetries:       2,
		RetryBackoff:     Backoff{Base: 2 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2},
		RetryBudgetRatio: 0.1,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
	}
}

// Command loadgen drives a running front-end or node with the benchmark
// workload and reports latency, throughput and QoS — the Faban-driver
// role.
//
// Usage:
//
//	loadgen -target http://127.0.0.1:8080 -clients 8 -think 100ms -measure 30s
//	loadgen -target http://127.0.0.1:8080 -open -rate 200 -measure 30s
//	loadgen -target http://127.0.0.1:8080 -replay trace.timed -speedup 2
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"os"

	"websearchbench/internal/cluster"
	"websearchbench/internal/corpus"
	"websearchbench/internal/loadgen"
	"websearchbench/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	var (
		target   = flag.String("target", "http://127.0.0.1:8080", "service base URL")
		vocab    = flag.Int("vocab", 30000, "vocabulary size (must match the index)")
		clients  = flag.Int("clients", 8, "closed-loop client population")
		think    = flag.Duration("think", 100*time.Millisecond, "mean think time")
		open     = flag.Bool("open", false, "open-loop (Poisson) instead of closed-loop")
		rate     = flag.Float64("rate", 100, "open-loop arrival rate (qps)")
		rampUp   = flag.Duration("rampup", 2*time.Second, "warm-up window")
		measure  = flag.Duration("measure", 10*time.Second, "measurement window")
		qosPct   = flag.Float64("qos-pct", 90, "QoS percentile")
		qosTgt   = flag.Duration("qos-target", 500*time.Millisecond, "QoS response-time target")
		seed     = flag.Int64("seed", 7, "workload seed")
		nq       = flag.Int("queries", 5000, "query stream length")
		replay   = flag.String("replay", "", "timed trace file to replay (overrides open/closed modes)")
		speedup  = flag.Float64("speedup", 1, "replay time scaling")
		deadline = flag.Duration("deadline", 0, "per-query client deadline (0 = none)")
	)
	flag.Parse()

	backendQoS := loadgen.QoS{Percentile: *qosPct, Target: *qosTgt}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatal(err)
		}
		trace, err := workload.ReadTimedTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		replayClient := cluster.NewClient(*target, 10)
		replayClient.SetDeadline(*deadline)
		res, err := loadgen.RunReplay(loadgen.ReplayConfig{
			Speedup:    *speedup,
			SkipWarmup: *rampUp,
			QoS:        backendQoS,
		}, trace, replayClient)
		if err != nil {
			log.Fatal(err)
		}
		report(res, backendQoS)
		return
	}

	wcfg := workload.DefaultConfig()
	wcfg.Seed = *seed
	gen, err := workload.NewGenerator(wcfg, corpus.NewVocabulary(*vocab))
	if err != nil {
		log.Fatal(err)
	}
	stream := gen.Generate(*nq)
	backend := cluster.NewClient(*target, 10)
	backend.SetDeadline(*deadline)
	qos := backendQoS

	var res loadgen.Result
	if *open {
		res, err = loadgen.RunOpenLoop(loadgen.OpenLoopConfig{
			RateQPS: *rate, RampUp: *rampUp, Measure: *measure, QoS: qos, Seed: *seed,
		}, stream, backend)
	} else {
		res, err = loadgen.RunClosedLoop(loadgen.ClosedLoopConfig{
			Clients: *clients, MeanThinkTime: *think,
			RampUp: *rampUp, Measure: *measure, QoS: qos, Seed: *seed,
		}, stream, backend)
	}
	if err != nil {
		log.Fatal(err)
	}

	report(res, qos)
}

func report(res loadgen.Result, qos loadgen.QoS) {
	fmt.Printf("completed: %d (errors %d, degraded %d)\n", res.Completed, res.Errors, res.Degraded)
	fmt.Printf("throughput: %.1f qps\n", res.Throughput)
	fmt.Printf("latency: %s\n", res.Latency)
	status := "MET"
	if !res.QoSMet {
		status = "VIOLATED"
	}
	fmt.Printf("QoS p%.0f <= %v: %s (%.1f%% under target)\n",
		qos.Percentile, qos.Target, status, res.QoSFraction*100)
}

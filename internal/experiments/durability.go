package experiments

import (
	"fmt"
	"os"
	"time"

	"websearchbench/internal/corpus"
	"websearchbench/internal/durable"
	"websearchbench/internal/live"
	"websearchbench/internal/textproc"
)

// E22FsyncRow is one fsync-policy ingest measurement.
type E22FsyncRow struct {
	Name string
	// Ingest is the achieved write throughput in docs/sec.
	Ingest float64
	// WALBytes and WALSyncs describe the log activity the run generated.
	WALBytes int64
	WALSyncs int64
	Flushes  int64
}

// E22RecoveryRow is one recovery-time measurement: a crash is simulated
// by closing the store with the entire ingest still in the write-ahead
// log, then reopening and timing the replay.
type E22RecoveryRow struct {
	Docs            int
	WALBytes        int64
	ReplayedRecords int
	RecoveryTime    time.Duration
	// RecoveredDocs cross-checks that replay reconstructed every
	// document.
	RecoveredDocs int64
}

// E22Result is the durability experiment.
type E22Result struct {
	IngestDocs int
	Fsync      []E22FsyncRow
	Recovery   []E22RecoveryRow
}

// E22Durability measures what crash safety costs and what recovery
// takes. Part one sweeps the WAL fsync policy (an in-memory index is
// the no-durability baseline) and reports sustained ingest throughput —
// the classic price of a synchronous fsync per acknowledged write.
// Part two grows the write-ahead log (flushes disabled, so every
// document stays in the log), simulates a crash, and times startup
// recovery as a function of WAL size.
func (c *Context) E22Durability() E22Result {
	gen, err := corpus.NewGenerator(c.CorpusCfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: corpus generator failed: %v", err))
	}
	var docs []corpus.Document
	gen.GenerateFunc(func(d corpus.Document) { docs = append(docs, d) })

	analyzer := textproc.NewAnalyzer()
	ingestDocs := len(docs)
	res := E22Result{IngestDocs: ingestDocs}

	policies := []struct {
		name  string
		fsync durable.FsyncPolicy
		mem   bool
	}{
		{"memory", 0, true},
		{"fsync_none", durable.FsyncNone, false},
		{"fsync_interval", durable.FsyncInterval, false},
		{"fsync_always", durable.FsyncAlways, false},
	}
	for _, p := range policies {
		row := c.runDurableIngest(p.name, p.fsync, p.mem, docs, analyzer)
		res.Fsync = append(res.Fsync, row)
		c.record("E22", row.Name, "ingest_docs_per_sec", row.Ingest)
		c.record("E22", row.Name, "wal_bytes", float64(row.WALBytes))
		c.record("E22", row.Name, "wal_syncs", float64(row.WALSyncs))
	}

	// Recovery time vs WAL size: everything stays in the log (memtable
	// cap above the doc count, no final flush), so reopening replays the
	// full ingest.
	for _, frac := range []int{4, 2, 1} {
		n := ingestDocs / frac
		if n == 0 {
			continue
		}
		row := c.runRecovery(docs[:n], analyzer)
		res.Recovery = append(res.Recovery, row)
		name := fmt.Sprintf("recover_%ddocs", row.Docs)
		c.record("E22", name, "wal_bytes", float64(row.WALBytes))
		c.record("E22", name, "replayed_records", float64(row.ReplayedRecords))
		c.record("E22", name, "recovery_ms", float64(row.RecoveryTime.Microseconds())/1000)
	}

	c.section("E22", "durability: fsync policy cost and recovery time")
	fmt.Fprintf(c.Out, "%d documents ingested per row\n", ingestDocs)
	w := c.table()
	fmt.Fprintf(w, "policy\tingest/s\twal_bytes\twal_syncs\tflushes\n")
	for _, r := range res.Fsync {
		fmt.Fprintf(w, "%s\t%.0f\t%d\t%d\t%d\n", r.Name, r.Ingest, r.WALBytes, r.WALSyncs, r.Flushes)
	}
	w.Flush()
	w = c.table()
	fmt.Fprintf(w, "\nwal_docs\twal_bytes\treplayed\trecovery\n")
	for _, r := range res.Recovery {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", r.Docs, r.WALBytes, r.ReplayedRecords, ms(r.RecoveryTime))
	}
	w.Flush()
	return res
}

// runDurableIngest times one bulk ingest under a durability
// configuration and reports the sustained docs/sec.
func (c *Context) runDurableIngest(name string, fsync durable.FsyncPolicy, memOnly bool,
	docs []corpus.Document, analyzer *textproc.Analyzer) E22FsyncRow {

	lcfg := live.Config{Analyzer: analyzer, RefreshEvery: 64}
	row := E22FsyncRow{Name: name}

	var li *live.Index
	var store *durable.Store
	if memOnly {
		li = live.NewIndex(lcfg)
	} else {
		dir, err := os.MkdirTemp("", "wsb-e22-*")
		if err != nil {
			panic(fmt.Sprintf("experiments: tempdir: %v", err))
		}
		defer os.RemoveAll(dir)
		li, store, err = durable.OpenIndex(dir, lcfg, durable.Options{
			Fsync:         fsync,
			FsyncInterval: 10 * time.Millisecond,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: open durable index: %v", err))
		}
	}

	start := time.Now()
	for _, d := range docs {
		if err := li.Add(d.URL, d.Title, d.Body, d.Quality); err != nil {
			panic(fmt.Sprintf("experiments: durable add: %v", err))
		}
	}
	elapsed := time.Since(start)
	// Every flush the ingest froze has committed (and cut the WAL) before
	// the reading, so flushes and WAL bytes are a function of the input.
	li.WaitFlushes()
	st := li.Stats()
	row.Ingest = float64(len(docs)) / elapsed.Seconds()
	row.Flushes = st.Flushes
	if st.Durable != nil {
		row.WALBytes = st.Durable.WALBytes
		row.WALSyncs = st.Durable.WALSyncs
	}
	li.Close()
	if store != nil {
		if err := store.Close(); err != nil {
			panic(fmt.Sprintf("experiments: close store: %v", err))
		}
	}
	return row
}

// runRecovery ingests docs entirely into the WAL (no flush), closes the
// store as a stand-in crash, and times the subsequent recovery.
func (c *Context) runRecovery(docs []corpus.Document, analyzer *textproc.Analyzer) E22RecoveryRow {
	dir, err := os.MkdirTemp("", "wsb-e22-rec-*")
	if err != nil {
		panic(fmt.Sprintf("experiments: tempdir: %v", err))
	}
	defer os.RemoveAll(dir)

	lcfg := live.Config{
		Analyzer:        analyzer,
		RefreshEvery:    1 << 30,
		MemtableMaxDocs: 1 << 30, // never flush: the WAL holds everything
	}
	li, store, err := durable.OpenIndex(dir, lcfg, durable.Options{Fsync: durable.FsyncNone})
	if err != nil {
		panic(fmt.Sprintf("experiments: open durable index: %v", err))
	}
	for _, d := range docs {
		if err := li.Add(d.URL, d.Title, d.Body, d.Quality); err != nil {
			panic(fmt.Sprintf("experiments: durable add: %v", err))
		}
	}
	row := E22RecoveryRow{Docs: len(docs)}
	if st := li.Stats(); st.Durable != nil {
		row.WALBytes = st.Durable.WALBytes
	}
	// Close without flushing: the memtable dies with the process, the
	// WAL survives — exactly a crash's end state (Close only makes the
	// measurement deterministic by completing in-flight writes).
	li.Close()
	if err := store.Close(); err != nil {
		panic(fmt.Sprintf("experiments: close store: %v", err))
	}

	li2, store2, err := durable.OpenIndex(dir, lcfg, durable.Options{Fsync: durable.FsyncNone})
	if err != nil {
		panic(fmt.Sprintf("experiments: recovery open: %v", err))
	}
	rs := store2.RecoveryStats()
	row.ReplayedRecords = rs.ReplayedRecords
	row.RecoveryTime = rs.RecoveryTime
	row.RecoveredDocs = li2.Stats().LiveDocs
	li2.Close()
	store2.Close()
	if row.RecoveredDocs != int64(row.Docs) {
		panic(fmt.Sprintf("experiments: recovery lost documents: %d of %d", row.RecoveredDocs, row.Docs))
	}
	return row
}

package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"websearchbench/internal/live"
	"websearchbench/internal/search"
)

// testDoc synthesizes a document whose key and version are recoverable
// from search results: the body carries a unique per-key probe term and
// the title encodes the version.
func testDoc(key int, version int) (k, title, body string) {
	k = fmt.Sprintf("doc:%03d", key)
	title = fmt.Sprintf("v%d", version)
	body = fmt.Sprintf("probe%03d shared corpus text version %d", key, version)
	return
}

// probe finds the live document for a key via its unique term, returning
// (title, true) when present.
func probe(li *live.Index, key int) (string, bool) {
	hits := li.Search(fmt.Sprintf("probe%03d", key), search.ModeOr, 5)
	want := fmt.Sprintf("doc:%03d", key)
	for _, h := range hits {
		if h.Doc.URL == want {
			return h.Doc.Title, true
		}
	}
	return "", false
}

func openTest(t *testing.T, dir string, fs FS, cfg live.Config) (*live.Index, *Store) {
	t.Helper()
	li, store, err := OpenIndex(dir, cfg, Options{FS: fs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("OpenIndex(%s): %v", dir, err)
	}
	return li, store
}

// smallCfg forces frequent flushes and merges so short workloads cross
// every commit path.
func smallCfg() live.Config {
	return live.Config{MemtableMaxDocs: 8, MaxSegments: 2}
}

// stableCfg flushes often but never merges or reclaims, so the segment
// layout — and with it every BM25 score — is deterministic. Determinism
// tests need this: background merges would race with their probes.
func stableCfg() live.Config {
	return live.Config{MemtableMaxDocs: 8, MaxSegments: 1 << 20, ReclaimFrac: 2}
}

func TestCleanShutdownAndReopenIdenticalTopK(t *testing.T) {
	dir := t.TempDir()
	li, store := openTest(t, dir, NewOSFS(), stableCfg())
	for i := 0; i < 50; i++ {
		k, title, body := testDoc(i, 1)
		if err := li.Add(k, title, body, float64(i)/50); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i += 2 {
		if ok, err := li.Delete(fmt.Sprintf("doc:%03d", i)); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	if err := li.Flush(); err != nil {
		t.Fatal(err)
	}
	queries := []string{"shared corpus", "probe007", "version text", "probe042 shared"}
	type hit struct {
		url   string
		score float64
	}
	before := map[string][]hit{}
	for _, q := range queries {
		for _, h := range li.Search(q, search.ModeOr, 10) {
			before[q] = append(before[q], hit{h.Doc.URL, h.Score})
		}
	}
	liveBefore := li.Stats().LiveDocs
	li.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	li2, store2 := openTest(t, dir, NewOSFS(), stableCfg())
	defer li2.Close()
	defer store2.Close()
	if rs := store2.RecoveryStats(); rs.ReplayedRecords != 0 {
		t.Errorf("clean shutdown replayed %d WAL records, want 0", rs.ReplayedRecords)
	}
	if got := li2.Stats().LiveDocs; got != liveBefore {
		t.Fatalf("recovered %d live docs, want %d", got, liveBefore)
	}
	// The flushed segment layout is identical, so every score must be
	// byte-identical, not merely close.
	for _, q := range queries {
		var after []hit
		for _, h := range li2.Search(q, search.ModeOr, 10) {
			after = append(after, hit{h.Doc.URL, h.Score})
		}
		if len(after) != len(before[q]) {
			t.Fatalf("query %q: %d hits after recovery, want %d", q, len(after), len(before[q]))
		}
		for i := range after {
			if after[i] != before[q][i] {
				t.Errorf("query %q hit %d: %+v after recovery, want %+v", q, i, after[i], before[q][i])
			}
		}
	}
}

func TestRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	cfg := live.Config{MemtableMaxDocs: 1 << 20} // never flush
	li, store := openTest(t, dir, NewOSFS(), cfg)
	for i := 0; i < 30; i++ {
		k, title, body := testDoc(i, 1)
		if err := li.Add(k, title, body, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	k, title, body := testDoc(3, 2) // update
	if err := li.Add(k, title, body, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := li.Delete("doc:007"); err != nil {
		t.Fatal(err)
	}
	// Crash: no Flush — the memtable state exists only in the WAL.
	li.Close()
	store.Close()

	li2, store2 := openTest(t, dir, NewOSFS(), cfg)
	defer li2.Close()
	defer store2.Close()
	rs := store2.RecoveryStats()
	if rs.ReplayedRecords != 32 {
		t.Errorf("replayed %d records, want 32", rs.ReplayedRecords)
	}
	if got := li2.Stats().LiveDocs; got != 29 {
		t.Errorf("recovered %d live docs, want 29", got)
	}
	if title, ok := probe(li2, 3); !ok || title != "v2" {
		t.Errorf("doc 3 after recovery: %q, %v (want v2)", title, ok)
	}
	if _, ok := probe(li2, 7); ok {
		t.Error("deleted doc 7 resurrected by recovery")
	}
}

// TestReplayIdempotence re-applies the recovered WAL on top of a
// recovered index: keyed replay must supersede, not duplicate.
func TestReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	cfg := live.Config{MemtableMaxDocs: 1 << 20}
	li, store := openTest(t, dir, NewOSFS(), cfg)
	for i := 0; i < 20; i++ {
		k, title, body := testDoc(i, 1)
		li.Add(k, title, body, 0.5)
	}
	li.Delete("doc:004")
	li.Close()
	store.Close()

	// First recovery replays the log; reading the raw log and applying
	// it again models a double replay (e.g. a crash between recovery and
	// the next rotation, then another recovery).
	data, err := os.ReadFile(filepath.Join(dir, walFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	li2, store2 := openTest(t, dir, NewOSFS(), cfg)
	defer li2.Close()
	defer store2.Close()
	want := li2.Stats().LiveDocs
	if _, _, err := ReplayWAL(data, func(r Record) error {
		switch r.Op {
		case OpAdd:
			return li2.Add(r.Key, r.Title, r.Body, r.Quality)
		case OpDelete:
			_, err := li2.Delete(r.Key)
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := li2.Stats().LiveDocs; got != want {
		t.Errorf("double replay changed live docs: %d -> %d", want, got)
	}
	if _, ok := probe(li2, 4); ok {
		t.Error("double replay resurrected a deleted doc")
	}
}

// TestRecoveryDeterminism recovers two copies of the same crashed
// directory and requires identical results — same documents, same
// scores.
func TestRecoveryDeterminism(t *testing.T) {
	dir := t.TempDir()
	li, store := openTest(t, dir, NewOSFS(), stableCfg())
	for i := 0; i < 40; i++ {
		k, title, body := testDoc(i%25, i/25+1)
		li.Add(k, title, body, 0.5)
	}
	li.Delete("doc:011")
	// No flush: crash with a dirty memtable plus flushed segments.
	li.Close()
	store.Close()

	copyA := copyDir(t, dir)
	copyB := copyDir(t, dir)
	liA, stA := openTest(t, copyA, NewOSFS(), stableCfg())
	defer liA.Close()
	defer stA.Close()
	liB, stB := openTest(t, copyB, NewOSFS(), stableCfg())
	defer liB.Close()
	defer stB.Close()

	if a, b := liA.Stats().LiveDocs, liB.Stats().LiveDocs; a != b {
		t.Fatalf("recoveries disagree on live docs: %d vs %d", a, b)
	}
	for _, q := range []string{"shared corpus text", "probe003", "version"} {
		ha := liA.Search(q, search.ModeOr, 10)
		hb := liB.Search(q, search.ModeOr, 10)
		if len(ha) != len(hb) {
			t.Fatalf("query %q: %d vs %d hits", q, len(ha), len(hb))
		}
		for i := range ha {
			if ha[i].Doc.URL != hb[i].Doc.URL || ha[i].Score != hb[i].Score {
				t.Errorf("query %q hit %d: (%s, %v) vs (%s, %v)",
					q, i, ha[i].Doc.URL, ha[i].Score, hb[i].Doc.URL, hb[i].Score)
			}
		}
	}
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestQuarantineCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	li, store := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 10, MaxSegments: 100})
	for i := 0; i < 30; i++ { // three flushed segments
		k, title, body := testDoc(i, 1)
		li.Add(k, title, body, 0.5)
	}
	li.Close()
	store.Close()

	// Bit-rot one segment file's payload.
	if err := FlipBit(NewOSFS(), filepath.Join(dir, segFileName(2)), 40, 2); err != nil {
		t.Fatal(err)
	}

	li2, store2 := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 10})
	defer li2.Close()
	defer store2.Close()
	rs := store2.RecoveryStats()
	if rs.SegmentsQuarantined != 1 || rs.SegmentsLoaded != 2 {
		t.Fatalf("recovery loaded %d, quarantined %d segments (want 2, 1)", rs.SegmentsLoaded, rs.SegmentsQuarantined)
	}
	if got := li2.Stats().LiveDocs; got != 20 {
		t.Errorf("serving %d docs after quarantine, want 20", got)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, segFileName(2))); err != nil {
		t.Errorf("quarantined file not preserved: %v", err)
	}
	// The store keeps working: ingest, flush, and a third open.
	for i := 100; i < 110; i++ {
		k, title, body := testDoc(i, 1)
		if err := li2.Add(k, title, body, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := li2.Flush(); err != nil {
		t.Fatal(err)
	}
	li2.Close()
	store2.Close()
	li3, store3 := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 10})
	defer li3.Close()
	defer store3.Close()
	if got := li3.Stats().LiveDocs; got != 30 {
		t.Errorf("third open serves %d docs, want 30", got)
	}
	if st := store3.RecoveryStats(); st.SegmentsQuarantined != 0 {
		t.Errorf("third open quarantined %d segments, want 0 (manifest dropped the bad one)", st.SegmentsQuarantined)
	}
}

// TestCorruptTombstonesQuarantinesSegment: serving a segment without its
// deletes would resurrect acknowledged removals, so a bad tombstone file
// condemns the whole segment.
func TestCorruptTombstonesQuarantinesSegment(t *testing.T) {
	dir := t.TempDir()
	li, store := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 10, MaxSegments: 100, ReclaimFrac: 2})
	for i := 0; i < 10; i++ {
		k, title, body := testDoc(i, 1)
		li.Add(k, title, body, 0.5)
	}
	li.Flush()
	li.Delete("doc:002") // tombstone in the flushed segment
	// A second batch makes the next flush commit, persisting segment 1's
	// tombstone bitmap alongside the new segment.
	for i := 20; i < 30; i++ {
		k, title, body := testDoc(i, 1)
		li.Add(k, title, body, 0.5)
	}
	li.Flush()
	li.Close()
	store.Close()

	if err := FlipBit(NewOSFS(), filepath.Join(dir, tombFileName(1)), 20, 1); err != nil {
		t.Fatal(err)
	}
	li2, store2 := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 10})
	defer li2.Close()
	defer store2.Close()
	if rs := store2.RecoveryStats(); rs.SegmentsQuarantined != 1 {
		t.Fatalf("quarantined %d segments, want 1", rs.SegmentsQuarantined)
	}
	if _, ok := probe(li2, 2); ok {
		t.Error("acked delete resurrected by corrupt tombstone file")
	}
}

func TestCorruptManifestIsFatal(t *testing.T) {
	dir := t.TempDir()
	li, store := openTest(t, dir, NewOSFS(), smallCfg())
	k, title, body := testDoc(0, 1)
	li.Add(k, title, body, 0.5)
	li.Close()
	store.Close()
	if err := FlipBit(NewOSFS(), filepath.Join(dir, manifestName), 25, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenIndex(dir, smallCfg(), Options{}); err == nil {
		t.Fatal("corrupt manifest did not fail startup")
	}
}

func TestFailedManifestRenameRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(NewOSFS())
	li, store := openTest(t, dir, ffs, live.Config{MemtableMaxDocs: 1 << 20})
	for i := 0; i < 5; i++ {
		k, title, body := testDoc(i, 1)
		if err := li.Add(k, title, body, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailRenames(1)
	if err := li.Flush(); err == nil {
		t.Fatal("flush with failing rename reported success")
	}
	if store.Err() == nil {
		t.Error("store did not latch the commit error")
	}
	// The fault was transient: the next flush succeeds and the data
	// survives a restart either way (the WAL still covered it).
	if err := li.Flush(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	li.Close()
	store.Close()
	li2, store2 := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 1 << 20})
	defer li2.Close()
	defer store2.Close()
	if got := li2.Stats().LiveDocs; got != 5 {
		t.Errorf("recovered %d docs after transient rename failure, want 5", got)
	}
}

func TestStatsSurfaceDurability(t *testing.T) {
	dir := t.TempDir()
	li, store := openTest(t, dir, NewOSFS(), smallCfg())
	defer store.Close()
	defer li.Close()
	for i := 0; i < 20; i++ {
		k, title, body := testDoc(i, 1)
		li.Add(k, title, body, 0.5)
	}
	li.WaitFlushes() // the two full memtables flush in the background
	st := li.Stats()
	if st.Durable == nil {
		t.Fatal("Stats.Durable is nil for a durable index")
	}
	d := st.Durable
	if d.FsyncPolicy != "always" {
		t.Errorf("fsync policy %q", d.FsyncPolicy)
	}
	if d.Commits == 0 || d.Rotations == 0 {
		t.Errorf("commits %d rotations %d after %d flushes", d.Commits, d.Rotations, st.Flushes)
	}
	if d.WALRecords != 20 {
		t.Errorf("wal records %d, want 20", d.WALRecords)
	}
	if d.ManifestGeneration < 2 {
		t.Errorf("manifest generation %d", d.ManifestGeneration)
	}
}

// TestOrphanSweep leaves commit debris (tmp files, an unreferenced
// segment) in the directory and checks activation clears it.
func TestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	li, store := openTest(t, dir, NewOSFS(), smallCfg())
	for i := 0; i < 20; i++ {
		k, title, body := testDoc(i, 1)
		li.Add(k, title, body, 0.5)
	}
	li.Close()
	store.Close()
	for _, junk := range []string{segFileName(900), "seg-000900.tomb", "wal-000900.log", "MANIFEST.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	li2, store2 := openTest(t, dir, NewOSFS(), smallCfg())
	li2.Close()
	store2.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		n := e.Name()
		if strings.Contains(n, "900") || strings.HasSuffix(n, ".tmp") {
			t.Errorf("orphan %s survived the sweep", n)
		}
	}
}

func TestErrInjectedCrashSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(NewOSFS())
	li, store := openTest(t, dir, ffs, live.Config{MemtableMaxDocs: 1 << 20})
	defer li.Close()
	defer store.Close()
	k, title, body := testDoc(0, 1)
	if err := li.Add(k, title, body, 0.5); err != nil {
		t.Fatal(err)
	}
	ffs.CrashAfterWrites(1, 0)
	k, title, body = testDoc(1, 1)
	if err := li.Add(k, title, body, 0.5); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("add after crash: %v", err)
	}
	// The failed mutation must not be applied.
	if _, ok := probe(li, 1); ok {
		t.Error("unjournaled add became visible")
	}
	if _, ok := probe(li, 0); !ok {
		t.Error("pre-crash doc lost from the serving index")
	}
}

// TestQuarantinePersistsWithoutFlush is the read-mostly-node scenario:
// recovery quarantines a corrupt segment and the process restarts before
// any flush or merge commits a fresh manifest. The pruned manifest must
// have been persisted by recovery itself, or every later startup finds a
// manifest naming a file that was moved to quarantine and fails forever.
func TestQuarantinePersistsWithoutFlush(t *testing.T) {
	dir := t.TempDir()
	li, store := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 10, MaxSegments: 100})
	for i := 0; i < 30; i++ { // three flushed segments
		k, title, body := testDoc(i, 1)
		li.Add(k, title, body, 0.5)
	}
	li.Close()
	store.Close()
	if err := FlipBit(NewOSFS(), filepath.Join(dir, segFileName(2)), 40, 2); err != nil {
		t.Fatal(err)
	}

	// First restart quarantines; no mutation, no flush, just close.
	li2, store2 := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 1 << 20})
	if rs := store2.RecoveryStats(); rs.SegmentsQuarantined != 1 {
		t.Fatalf("quarantined %d segments, want 1", rs.SegmentsQuarantined)
	}
	li2.Close()
	store2.Close()

	// Second restart must come up clean on the pruned manifest.
	li3, store3, err := OpenIndex(dir, live.Config{MemtableMaxDocs: 1 << 20}, Options{})
	if err != nil {
		t.Fatalf("restart after quarantine without flush: %v", err)
	}
	defer li3.Close()
	defer store3.Close()
	if rs := store3.RecoveryStats(); rs.SegmentsQuarantined != 0 {
		t.Errorf("second restart quarantined %d segments, want 0", rs.SegmentsQuarantined)
	}
	if got := li3.Stats().LiveDocs; got != 20 {
		t.Errorf("serving %d docs after restart, want 20", got)
	}
}

// TestMissingSegmentFileQuarantined: a manifest-referenced file that has
// vanished outright (operator cleanup, or a quarantining recovery that
// crashed before pruning) is skipped like corruption, not fatal.
func TestMissingSegmentFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	li, store := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 10, MaxSegments: 100})
	for i := 0; i < 30; i++ {
		k, title, body := testDoc(i, 1)
		li.Add(k, title, body, 0.5)
	}
	li.Close()
	store.Close()
	if err := os.Remove(filepath.Join(dir, segFileName(2))); err != nil {
		t.Fatal(err)
	}

	li2, store2 := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 1 << 20})
	rs := store2.RecoveryStats()
	if rs.SegmentsQuarantined != 1 || rs.SegmentsLoaded != 2 {
		t.Fatalf("recovery loaded %d, quarantined %d segments (want 2, 1)", rs.SegmentsLoaded, rs.SegmentsQuarantined)
	}
	if got := li2.Stats().LiveDocs; got != 20 {
		t.Errorf("serving %d docs, want 20", got)
	}
	li2.Close()
	store2.Close()
	// And the directory stays healthy across another restart.
	li3, store3, err := OpenIndex(dir, live.Config{MemtableMaxDocs: 1 << 20}, Options{})
	if err != nil {
		t.Fatalf("restart after missing-file quarantine: %v", err)
	}
	li3.Close()
	store3.Close()
}

// TestAddSucceedsWhenFlushCommitFails: once a mutation is journaled and
// applied, a failing flush commit must not fail the Add — the document
// is WAL-covered and visible. The error is latched in the store and the
// document survives a restart.
func TestAddSucceedsWhenFlushCommitFails(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(NewOSFS())
	li, store := openTest(t, dir, ffs, live.Config{MemtableMaxDocs: 4, MaxSegments: 100})
	for i := 0; i < 3; i++ {
		k, title, body := testDoc(i, 1)
		if err := li.Add(k, title, body, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailRenames(1) // fails the flush commit's first atomic write
	k, title, body := testDoc(3, 1)
	if err := li.Add(k, title, body, 0.5); err != nil {
		t.Fatalf("Add whose flush commit failed returned %v; the write is journaled and applied", err)
	}
	// The flush runs in the background; Flush waits for it and reports
	// its commit error.
	if err := li.Flush(); err == nil || !strings.Contains(err.Error(), "injected rename failure") {
		t.Errorf("Flush after the failed flush commit returned %v, want the injected rename failure", err)
	}
	if store.Err() == nil {
		t.Error("store did not latch the commit error")
	}
	if _, ok := probe(li, 3); !ok {
		t.Error("acked doc not visible after failed flush commit")
	}
	li.Close()
	store.Close()

	li2, store2 := openTest(t, dir, NewOSFS(), live.Config{MemtableMaxDocs: 1 << 20})
	defer li2.Close()
	defer store2.Close()
	if got := li2.Stats().LiveDocs; got != 4 {
		t.Errorf("recovered %d docs, want 4 (WAL covered the failed commit)", got)
	}
	if title, ok := probe(li2, 3); !ok || title != "v1" {
		t.Errorf("doc 3 after restart: (%q, %v), want v1", title, ok)
	}
}

// TestFlushCommitCutsWALAtFreezeMark drives the store's cut protocol
// directly, with no index and no goroutines: a flush commit drops exactly
// the log prefix journaled before its Freeze, later marks shift with the
// cut, and a commit without a mark leaves the log byte-identical.
func TestFlushCommitCutsWALAtFreezeMark(t *testing.T) {
	dir := t.TempDir()
	store, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Activate(); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	journal := func(n int) {
		for i := 0; i < n; i++ {
			k, title, body := testDoc(len(recs), 1)
			r := Record{Op: OpAdd, Key: k, Title: title, Body: body, Quality: 0.5}
			if len(recs)%4 == 3 {
				r = Record{Op: OpDelete, Key: recs[len(recs)-1].Key}
				err = store.LogDelete(r.Key)
			} else {
				err = store.LogAdd(r.Key, r.Title, r.Body, r.Quality)
			}
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
	}
	active := func() []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, store.manifest.WAL))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	commit := func(flushed uint64) {
		t.Helper()
		if err := store.Commit(live.Commit{Reason: "flush", NextSegID: 10, Flushed: flushed}); err != nil {
			t.Fatal(err)
		}
	}
	wantLog := func(want []Record) {
		t.Helper()
		if got, _ := replayAll(t, active()); !reflect.DeepEqual(got, want) {
			t.Fatalf("active WAL holds %d records %v, want %d %v", len(got), got, len(want), want)
		}
	}

	journal(7)
	store.Freeze(3) // the memtable ends after record 7
	journal(5)
	store.Freeze(4) // and the next one after record 12
	journal(4)

	before := active()
	commit(9) // no mark: cut nothing
	if after := active(); !bytes.Equal(after, before) {
		t.Fatalf("a commit without a mark changed the WAL: %d -> %d bytes", len(before), len(after))
	}

	commit(3)
	wantLog(recs[7:])
	commit(4) // its mark moved down with the first cut
	wantLog(recs[12:])
	if st := store.SinkStats(); st.Rotations != 2 || st.WALRecords != int64(len(recs)) {
		t.Errorf("rotations %d, wal records %d; want 2, %d", st.Rotations, st.WALRecords, len(recs))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, rec, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if !reflect.DeepEqual(rec.Records, recs[12:]) {
		t.Fatalf("reopen replays %d records, want the %d journaled after the last freeze", len(rec.Records), len(recs[12:]))
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Errorf("directory holds %d files, want MANIFEST and one WAL", len(ents))
	}
}

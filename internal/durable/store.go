package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"websearchbench/internal/index"
	"websearchbench/internal/live"
)

// Options tunes a Store.
type Options struct {
	// FS is the filesystem implementation; nil selects the real OS one.
	// Tests inject a FaultFS here.
	FS FS
	// Fsync selects the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the ticker period under FsyncInterval (default
	// 100ms).
	FsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = NewOSFS()
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	return o
}

// RecoveryStats summarizes what Open found and repaired.
type RecoveryStats struct {
	ManifestGeneration  uint64
	SegmentsLoaded      int
	SegmentsQuarantined int
	DocsLoaded          int
	ReplayedRecords     int
	ReplayedBytes       int64
	TruncatedBytes      int64
	RecoveryTime        time.Duration
}

// Store is the durable backend of one live index: it owns a data
// directory holding the manifest, checksummed segment and tombstone
// files, and the write-ahead log, and implements live.StatsSink so the
// index journals mutations and persists flushes/merges through it.
//
// Lifecycle: Open loads the directory and returns the recovered state;
// the caller replays the returned WAL records into a fresh index (the
// store suppresses journaling while replaying — the records are already
// on disk) and then calls Activate to truncate the log's torn tail and
// resume appending. OpenIndex packages that dance.
type Store struct {
	fs   FS
	dir  string
	opts Options

	mu        sync.Mutex
	replaying bool
	closed    bool
	manifest  Manifest
	wal       *WAL
	walGood   int64 // intact prefix of the recovered WAL
	// persisted tracks segment files on disk; lastTomb the bitmap bytes
	// last written per segment, to skip rewriting unchanged tombstones.
	persisted map[uint64]bool
	lastTomb  map[uint64][]byte
	// marks holds, per pending flush, the active WAL's size when its
	// memtable froze: the prefix its flush commit may cut.
	marks map[uint64]int64

	commits     int64
	rotations   int64 // WAL cuts
	walRecords  int64 // records appended across cuts
	walSyncs    int64
	lastErr     error
	recovery    RecoveryStats
	flusherStop chan struct{}
	flusherDone chan struct{}
	recovered   *Recovered
}

// Recovered is the state Open reconstructed from the data directory.
type Recovered struct {
	// Segments is the verified live segment set in ascending-ID order.
	Segments []live.RecoveredSegment
	// NextSegID resumes the index's segment ID sequence.
	NextSegID uint64
	// Records are the intact WAL records to replay, in append order.
	Records []Record
	Stats   RecoveryStats
}

// Open loads (or initializes) the data directory: it reads the
// manifest, verifies every referenced segment's checksum — moving
// failures to quarantine/ instead of aborting — loads tombstone
// bitmaps, and scans the WAL up to its first torn record. The returned
// store is in replay mode; call Activate (or use OpenIndex) after
// replaying the records.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	opts = opts.withDefaults()
	start := time.Now()
	s := &Store{
		fs:        opts.FS,
		dir:       dir,
		opts:      opts,
		replaying: true,
		persisted: make(map[uint64]bool),
		lastTomb:  make(map[uint64][]byte),
		marks:     make(map[uint64]int64),
	}
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("durable: create %s: %w", dir, err)
	}

	m, err := readManifest(s.fs, dir)
	switch {
	case err == nil:
		s.manifest = *m
	case errors.Is(err, fs.ErrNotExist):
		// Fresh directory: establish the empty generation so every later
		// startup takes the same recovery path.
		s.manifest = Manifest{Format: manifestFormat, Generation: 1, NextSegID: 1, WAL: walFileName(1)}
		w, err := CreateWAL(s.fs, dir, filepath.Join(dir, s.manifest.WAL), opts.Fsync)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: init WAL: %w", err)
		}
		if err := w.Close(); err != nil {
			return nil, nil, err
		}
		if err := writeManifest(s.fs, dir, &s.manifest); err != nil {
			return nil, nil, fmt.Errorf("durable: init manifest: %w", err)
		}
	default:
		// A corrupt manifest is fatal: it is the root of trust and is
		// only ever swapped atomically, so damage here is not a torn
		// write we can shrug off.
		return nil, nil, fmt.Errorf("durable: manifest: %w", err)
	}

	rec := &Recovered{NextSegID: s.manifest.NextSegID}
	kept := s.manifest.Segments[:0]
	for _, ms := range s.manifest.Segments {
		rs, err := s.loadSegment(ms)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				return nil, nil, err
			}
			s.quarantine(ms)
			rec.Stats.SegmentsQuarantined++
			continue
		}
		rec.Segments = append(rec.Segments, rs)
		rec.Stats.SegmentsLoaded++
		rec.Stats.DocsLoaded += rs.Seg.NumDocs() - rs.Tomb.Count()
		s.persisted[ms.ID] = true
		if ms.Tomb != "" {
			s.lastTomb[ms.ID] = rs.Tomb.Marshal()
		}
		kept = append(kept, ms)
	}
	s.manifest.Segments = kept
	if rec.Stats.SegmentsQuarantined > 0 {
		// The quarantined files are gone from the directory, so the
		// pruned segment list must become durable before we serve: a
		// restart before the next flush/merge commit would otherwise
		// re-read the stale manifest, find its files missing, and (on a
		// read-mostly node) keep failing startup forever.
		s.manifest.Generation++
		if err := writeManifest(s.fs, dir, &s.manifest); err != nil {
			return nil, nil, fmt.Errorf("durable: prune quarantined segments: %w", err)
		}
	}

	walPath := filepath.Join(dir, s.manifest.WAL)
	data, err := s.fs.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("durable: read WAL: %w", err)
	}
	n, good, _ := ReplayWAL(data, func(r Record) error {
		rec.Records = append(rec.Records, r)
		return nil
	})
	s.walGood = good
	rec.Stats.ReplayedRecords = n
	rec.Stats.ReplayedBytes = good
	rec.Stats.TruncatedBytes = int64(len(data)) - good
	rec.Stats.ManifestGeneration = s.manifest.Generation
	rec.Stats.RecoveryTime = time.Since(start)
	s.recovery = rec.Stats
	s.recovered = rec
	return s, rec, nil
}

// loadSegment verifies and parses one manifest entry. Checksum and
// parse failures wrap ErrCorrupt (quarantine); so does a referenced
// file that is simply missing — e.g. moved aside by a recovery that
// died before pruning the manifest — since refusing to start would
// brick the directory. Other I/O errors stay fatal. A corrupt
// tombstone file condemns its segment too: serving the segment without
// its deletes would resurrect acknowledged removals.
func (s *Store) loadSegment(ms ManifestSeg) (live.RecoveredSegment, error) {
	payload, err := ReadEnvelopeFile(s.fs, filepath.Join(s.dir, ms.File), KindSegment)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			err = fmt.Errorf("%w: segment %s: %v", ErrCorrupt, ms.File, err)
		}
		return live.RecoveredSegment{}, err
	}
	seg, err := index.ReadSegment(bytes.NewReader(payload))
	if err != nil {
		return live.RecoveredSegment{}, fmt.Errorf("%w: segment %s: %v", ErrCorrupt, ms.File, err)
	}
	tomb := live.NewTombstones()
	if ms.Tomb != "" {
		tb, err := ReadEnvelopeFile(s.fs, filepath.Join(s.dir, ms.Tomb), KindTombstones)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				err = fmt.Errorf("%w: tombstones %s: %v", ErrCorrupt, ms.Tomb, err)
			}
			return live.RecoveredSegment{}, err
		}
		if tomb, err = live.UnmarshalTombstones(tb); err != nil {
			return live.RecoveredSegment{}, fmt.Errorf("%w: tombstones %s: %v", ErrCorrupt, ms.Tomb, err)
		}
	}
	return live.RecoveredSegment{ID: ms.ID, Seg: seg, Tomb: tomb}, nil
}

// quarantine moves a corrupt segment (and its tombstone file) aside so
// the next commit's manifest drops it; startup continues on the
// remaining segments.
func (s *Store) quarantine(ms ManifestSeg) {
	qdir := filepath.Join(s.dir, quarantineDir)
	_ = s.fs.MkdirAll(qdir)
	_ = s.fs.Rename(filepath.Join(s.dir, ms.File), filepath.Join(qdir, ms.File))
	if ms.Tomb != "" {
		_ = s.fs.Rename(filepath.Join(s.dir, ms.Tomb), filepath.Join(qdir, ms.Tomb))
	}
}

// Activate completes recovery: sweep files no commit references,
// truncate the WAL's torn tail, reopen it for appending, and leave
// replay mode. Journaling and commits are live afterwards.
func (s *Store) Activate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.replaying {
		return nil
	}
	s.sweepOrphansLocked()
	w, err := OpenWAL(s.fs, filepath.Join(s.dir, s.manifest.WAL), s.walGood, s.opts.Fsync)
	if err != nil {
		return fmt.Errorf("durable: reopen WAL: %w", err)
	}
	s.wal = w
	s.walRecords = int64(s.recovery.ReplayedRecords)
	s.replaying = false
	if s.opts.Fsync == FsyncInterval {
		s.flusherStop = make(chan struct{})
		s.flusherDone = make(chan struct{})
		go s.runFlusher()
	}
	return nil
}

// sweepOrphansLocked removes artifacts an interrupted commit left
// behind: segment/tombstone files the manifest does not reference and
// WAL files other than the active one.
func (s *Store) sweepOrphansLocked() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	referenced := map[string]bool{manifestName: true, s.manifest.WAL: true}
	for _, ms := range s.manifest.Segments {
		referenced[ms.File] = true
		if ms.Tomb != "" {
			referenced[ms.Tomb] = true
		}
	}
	for _, name := range names {
		if referenced[name] || name == quarantineDir {
			continue
		}
		if strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".tomb") ||
			strings.HasSuffix(name, ".log") || strings.HasSuffix(name, ".tmp") {
			_ = s.fs.Remove(filepath.Join(s.dir, name))
		}
	}
}

// runFlusher periodically syncs the WAL under the interval policy.
func (s *Store) runFlusher() {
	defer close(s.flusherDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.flusherStop:
			return
		case <-t.C:
			s.mu.Lock()
			w := s.wal
			s.mu.Unlock()
			if w != nil {
				if err := w.Sync(); err != nil {
					s.noteErr(err)
				}
			}
		}
	}
}

func (s *Store) noteErr(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// LogAdd implements live.Sink: journal one Add before it is applied.
func (s *Store) LogAdd(key, title, body string, quality float64) error {
	return s.log(Record{Op: OpAdd, Key: key, Title: title, Body: body, Quality: quality})
}

// LogDelete implements live.Sink.
func (s *Store) LogDelete(key string) error {
	return s.log(Record{Op: OpDelete, Key: key})
}

// Freeze implements live.Sink: remember where the frozen memtable ends
// in the active WAL. Replay freezes record nothing, so their commits cut
// nothing.
func (s *Store) Freeze(segID uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.replaying && !s.closed {
		s.marks[segID] = s.wal.Size()
	}
}

func (s *Store) log(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replaying || s.closed {
		// Replay: the record is already in the log being replayed.
		return nil
	}
	// Append under s.mu (the WAL's own lock nests inside it, never the
	// reverse) so a concurrent Close cannot close the file out from
	// under an in-flight append.
	if err := s.wal.Append(rec); err != nil {
		s.lastErr = err
		return fmt.Errorf("durable: WAL append: %w", err)
	}
	return nil
}

// Commit implements live.Sink: persist the post-flush/merge segment
// set. New segments and changed tombstone bitmaps are written first
// (each atomically); a flush commit whose Freeze left a mark then copies
// the WAL's bytes past the mark into a fresh log; then the manifest is
// swapped, and only after the swap are dead files and the old log
// deleted. A crash at any point leaves either the old manifest (whose
// files are all intact, with the old WAL re-covering the delta) or the
// new one. Cutting too little is safe — replay is keyed and idempotent —
// so a commit without a mark keeps the whole log.
func (s *Store) Commit(c live.Commit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replaying || s.closed {
		return nil
	}
	if err := s.commitLocked(c); err != nil {
		s.lastErr = err
		return err
	}
	s.commits++
	return nil
}

func (s *Store) commitLocked(c live.Commit) error {
	next := Manifest{
		Format:     manifestFormat,
		Generation: s.manifest.Generation + 1,
		NextSegID:  c.NextSegID,
		WAL:        s.manifest.WAL,
	}
	for _, cs := range c.Segments {
		ms := ManifestSeg{ID: cs.ID, File: segFileName(cs.ID), Docs: cs.Seg.NumDocs()}
		if !s.persisted[cs.ID] {
			var buf bytes.Buffer
			if _, err := cs.Seg.WriteTo(&buf); err != nil {
				return fmt.Errorf("durable: serialize segment %d: %w", cs.ID, err)
			}
			if err := WriteEnvelopeFileAtomic(s.fs, filepath.Join(s.dir, ms.File), KindSegment, buf.Bytes()); err != nil {
				return fmt.Errorf("durable: write segment %d: %w", cs.ID, err)
			}
			s.persisted[cs.ID] = true
		}
		if len(cs.Tomb) > 0 {
			ms.Tomb = tombFileName(cs.ID)
			if !bytes.Equal(cs.Tomb, s.lastTomb[cs.ID]) {
				if err := WriteEnvelopeFileAtomic(s.fs, filepath.Join(s.dir, ms.Tomb), KindTombstones, cs.Tomb); err != nil {
					return fmt.Errorf("durable: write tombstones %d: %w", cs.ID, err)
				}
				s.lastTomb[cs.ID] = append([]byte(nil), cs.Tomb...)
			}
		}
		next.Segments = append(next.Segments, ms)
	}

	var newWAL *WAL
	mark, cut := s.marks[c.Flushed]
	if cut {
		// The fresh log holds the records journaled after the freeze and
		// must be durable before the manifest names it; a crash in between
		// only orphans it.
		data, err := s.fs.ReadFile(filepath.Join(s.dir, s.manifest.WAL))
		if err != nil {
			return fmt.Errorf("durable: read WAL: %w", err)
		}
		next.WAL = walFileName(next.Generation)
		path := filepath.Join(s.dir, next.WAL)
		tail := data[mark:]
		if err := WriteFileAtomic(s.fs, path, func(w io.Writer) error { _, err := w.Write(tail); return err }); err != nil {
			return fmt.Errorf("durable: cut WAL: %w", err)
		}
		if newWAL, err = OpenWAL(s.fs, path, int64(len(tail)), s.opts.Fsync); err != nil {
			return fmt.Errorf("durable: cut WAL: %w", err)
		}
	}

	if err := writeManifest(s.fs, s.dir, &next); err != nil {
		// The swap may have landed before the error (a failed directory
		// sync), so the fresh log stays; recovery sweeps it if unnamed.
		if newWAL != nil {
			newWAL.Close()
		}
		return fmt.Errorf("durable: swap manifest: %w", err)
	}

	// The swap landed: everything below is cleanup of now-dead files and
	// may fail without losing data (recovery sweeps orphans).
	oldWAL := s.manifest.WAL
	alive := make(map[uint64]bool, len(c.Segments))
	for _, cs := range c.Segments {
		alive[cs.ID] = true
	}
	for id := range s.persisted {
		if !alive[id] {
			_ = s.fs.Remove(filepath.Join(s.dir, segFileName(id)))
			_ = s.fs.Remove(filepath.Join(s.dir, tombFileName(id)))
			delete(s.persisted, id)
			delete(s.lastTomb, id)
		}
	}
	s.manifest = next
	if newWAL != nil {
		if s.wal != nil {
			s.walRecords += s.wal.Records()
			s.walSyncs += s.wal.Syncs()
			_ = s.wal.Close()
		}
		s.wal = newWAL
		s.rotations++
		_ = s.fs.Remove(filepath.Join(s.dir, oldWAL))
		for id, m := range s.marks {
			if id <= c.Flushed {
				delete(s.marks, id)
			} else {
				s.marks[id] = m - mark
			}
		}
	}
	return nil
}

// SinkStats implements live.StatsSink.
func (s *Store) SinkStats() live.SinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := live.SinkStats{
		FsyncPolicy:         s.opts.Fsync.String(),
		ManifestGeneration:  s.manifest.Generation,
		PersistedSegments:   len(s.persisted),
		Commits:             s.commits,
		Rotations:           s.rotations,
		WALRecords:          s.walRecords,
		WALSyncs:            s.walSyncs,
		RecoveredSegments:   s.recovery.SegmentsLoaded,
		QuarantinedSegments: s.recovery.SegmentsQuarantined,
		ReplayedRecords:     s.recovery.ReplayedRecords,
		ReplayedBytes:       s.recovery.ReplayedBytes,
		TruncatedBytes:      s.recovery.TruncatedBytes,
		RecoveryMillis:      float64(s.recovery.RecoveryTime.Microseconds()) / 1000,
	}
	if s.wal != nil {
		st.WALRecords = s.walRecords + s.wal.Records()
		st.WALBytes = s.wal.Size()
		st.WALSyncs = s.walSyncs + s.wal.Syncs()
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}

// RecoveryStats returns what the last Open found.
func (s *Store) RecoveryStats() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Err returns the sticky last durability error, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Close syncs and closes the WAL and stops the background flusher. The
// in-memory index keeps serving; only durability stops.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	w := s.wal
	s.wal = nil
	stop, done := s.flusherStop, s.flusherDone
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if w != nil {
		return w.Close()
	}
	return nil
}

// OpenIndex opens (or creates) a durable live index at dir: recover
// state, replay the WAL into a fresh index, activate the store, and
// publish. The returned index has the store attached as its durability
// sink; close the index first, then the store.
func OpenIndex(dir string, lcfg live.Config, opts Options) (*live.Index, *Store, error) {
	start := time.Now()
	store, rec, err := Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	lcfg.Durable = store
	refresh := lcfg.RefreshEvery
	lcfg.RefreshEvery = 1 << 30 // replay publishes once at the end
	li := live.NewRecoveredIndex(lcfg, rec.Segments, rec.NextSegID)
	for _, r := range rec.Records {
		// Replay is journaling-suppressed (the records are already in
		// the log) and errors cannot occur on the in-memory path.
		switch r.Op {
		case OpAdd:
			_ = li.Add(r.Key, r.Title, r.Body, r.Quality)
		case OpDelete:
			_, _ = li.Delete(r.Key)
		}
	}
	// Every recovery of one directory serves the same segments: flushes
	// frozen during replay splice (their commits are suppressed like the
	// journaling) before the index is returned.
	li.WaitFlushes()
	if err := store.Activate(); err != nil {
		li.Close()
		store.Close()
		return nil, nil, err
	}
	li.SetRefreshEvery(refresh)
	li.Refresh()
	// Recovery time as observed by a caller: directory load plus WAL
	// replay into the memtable, which dominates after a crash.
	store.mu.Lock()
	store.recovery.RecoveryTime = time.Since(start)
	store.mu.Unlock()
	return li, store, nil
}

package live

import "websearchbench/internal/index"

// Durability hooks. The live index is storage-agnostic: when
// Config.Durable is set, every mutation is journaled through the sink
// before it is acknowledged, every memtable freeze tells the sink where
// that memtable ends in its journal, and every flush or merge hands the
// sink a Commit describing the complete post-change segment set so the
// sink can persist new segments, refresh tombstone bitmaps, swap its
// manifest, and (after a flush) drop the journal prefix the flushed
// segment now holds. internal/durable provides the production
// implementation; the indirection keeps this package free of filesystem
// concerns and lets tests drive the hooks directly.

// Sink receives durability events from a live index. All methods are
// invoked under the index's mutation lock, so implementations see a
// serialized event stream; an error from LogAdd/LogDelete aborts the
// mutation before it is applied.
type Sink interface {
	// LogAdd journals an Add/Update before it becomes visible.
	LogAdd(key, title, body string, quality float64) error
	// LogDelete journals a Delete before it becomes visible.
	LogDelete(key string) error
	// Freeze marks the end of the memtable that becomes segment segID:
	// every mutation journaled so far is held by that segment or by an
	// earlier one once its flush commits.
	Freeze(segID uint64)
	// Commit persists a flush or merge: c lists the full live segment
	// set after the change.
	Commit(c Commit) error
}

// Commit describes the index's complete durable state after a flush,
// merge or compaction.
type Commit struct {
	// Reason is "flush", "merge" or "compact" — for logging and stats.
	Reason string
	// Segments is the full post-change live set in ascending-ID order.
	// Sinks diff it against what they already persisted: unknown IDs are
	// new segments to write, absent IDs are dead files to delete.
	Segments []CommitSegment
	// NextSegID is the next segment ID the index will allocate; recovery
	// resumes the sequence from here.
	NextSegID uint64
	// Flushed names the segment whose flush this commit completes (0 on
	// merge and attach commits): everything journaled before its Freeze
	// is now in the persisted segments, so the sink may drop that prefix
	// of its log.
	Flushed uint64
}

// CommitSegment is one live segment within a Commit.
type CommitSegment struct {
	ID  uint64
	Seg *index.Segment
	// Tomb is the segment's marshaled tombstone bitmap (Tombstones.
	// Marshal), nil when no documents are deleted.
	Tomb []byte
}

// SinkStats is the durability telemetry surfaced through Stats and the
// node /metrics endpoint, so experiments and operators can observe WAL
// and recovery behavior without log scraping.
type SinkStats struct {
	FsyncPolicy        string `json:"fsync_policy"`
	ManifestGeneration uint64 `json:"manifest_generation"`
	PersistedSegments  int    `json:"persisted_segments"`
	WALRecords         int64  `json:"wal_records"`
	WALBytes           int64  `json:"wal_bytes"`
	WALSyncs           int64  `json:"wal_syncs"`
	Commits            int64  `json:"commits"`
	Rotations          int64  `json:"rotations"`

	// Recovery snapshot from the sink's last Open.
	RecoveredSegments   int     `json:"recovered_segments"`
	QuarantinedSegments int     `json:"quarantined_segments"`
	ReplayedRecords     int     `json:"replayed_records"`
	ReplayedBytes       int64   `json:"replayed_bytes"`
	TruncatedBytes      int64   `json:"truncated_bytes"`
	RecoveryMillis      float64 `json:"recovery_ms"`

	LastError string `json:"last_error,omitempty"`
}

// StatsSink is optionally implemented by sinks that report telemetry;
// Stats includes it when available.
type StatsSink interface {
	Sink
	SinkStats() SinkStats
}

// RecoveredSegment is one segment handed back to NewRecoveredIndex by a
// recovery path: the immutable segment, its durable ID, and the
// tombstones that were persisted for it.
type RecoveredSegment struct {
	ID   uint64
	Seg  *index.Segment
	Tomb *Tombstones
}

package blob

import (
	"websearchbench/internal/live"
)

// Blob publishing from the live path: a LiveSink rides the same Commit
// stream the local durable store consumes, uploading each flush/merge's
// post-change segment set as a new blob-store generation. Stateless
// searchers polling that store pick the generation up within one poll
// interval — near-real-time serving with no index state on the
// searcher.
//
// The sink journals nothing (LogAdd/LogDelete/Freeze are no-ops): remote
// durability is segment-granular, so mutations since the last flush are
// covered by the local WAL (when a durable store is teed in via
// live.MultiSink) or simply lost with the process, exactly like a
// non-durable live index.

// LiveSink publishes every live-index commit to a blob store.
type LiveSink struct {
	pub *Publisher
}

// NewLiveSink returns a sink publishing commits through pub.
func NewLiveSink(pub *Publisher) *LiveSink { return &LiveSink{pub: pub} }

// LogAdd is a no-op: the sink persists segments, not mutations.
func (s *LiveSink) LogAdd(key, title, body string, quality float64) error { return nil }

// LogDelete is a no-op: the sink persists segments, not mutations.
func (s *LiveSink) LogDelete(key string) error { return nil }

// Freeze is a no-op: the sink keeps no journal to cut.
func (s *LiveSink) Freeze(segID uint64) {}

// Commit uploads the commit's full segment set as the next generation.
// Content addressing makes the common case cheap: a merge that rewrote
// two of ten segments re-uploads two blobs and a manifest.
func (s *LiveSink) Commit(c live.Commit) error {
	segs := make([]PubSegment, 0, len(c.Segments))
	for _, cs := range c.Segments {
		segs = append(segs, PubSegment{ID: cs.ID, Seg: cs.Seg, Tomb: cs.Tomb})
	}
	_, err := s.pub.Publish(segs)
	return err
}

package live

// PublishCommit re-emits the index's current segment set to the
// durability sink as a synthetic commit (reason "attach", no WAL
// cut). Callers use it after SetDurableSink so a freshly attached
// publisher sees the present state without waiting for the next flush
// or merge; the memtable's undurable tail is not included, exactly as
// in any other non-flush commit.
func (li *Index) PublishCommit() error {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.commitLocked("attach", 0)
}

// MultiSink tees the durability event stream to several sinks in order
// — typically the local durable store first, then a blob publisher. The
// first error aborts the fan-out (and, for LogAdd/LogDelete, the
// mutation).
type MultiSink []Sink

// LogAdd journals to every sink.
func (m MultiSink) LogAdd(key, title, body string, quality float64) error {
	for _, s := range m {
		if err := s.LogAdd(key, title, body, quality); err != nil {
			return err
		}
	}
	return nil
}

// LogDelete journals to every sink.
func (m MultiSink) LogDelete(key string) error {
	for _, s := range m {
		if err := s.LogDelete(key); err != nil {
			return err
		}
	}
	return nil
}

// Freeze forwards the freeze mark to every sink.
func (m MultiSink) Freeze(segID uint64) {
	for _, s := range m {
		s.Freeze(segID)
	}
}

// Commit persists to every sink.
func (m MultiSink) Commit(c Commit) error {
	for _, s := range m {
		if err := s.Commit(c); err != nil {
			return err
		}
	}
	return nil
}

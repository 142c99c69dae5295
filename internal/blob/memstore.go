package blob

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MemStore is the in-process fake: a map guarded by a mutex, with an
// injectable per-operation latency (to model object-store round-trip
// time in experiments) and an injectable fault hook (to exercise
// searcher retry paths in tests). It also counts operations, which is
// what lets the benchmark report blocks fetched and bytes over the wire
// without instrumenting the real backends.
type MemStore struct {
	mu   sync.RWMutex
	objs map[string][]byte

	// Latency is added to every operation (simulated round-trip).
	Latency time.Duration

	// fault, when set, runs before each operation; a non-nil return is
	// surfaced as that operation's error.
	fault atomic.Pointer[func(op, key string) error]

	// Op counters (atomic; read via Counters).
	gets, ranges, puts int64
	bytesRead          int64
}

// MemCounters is a snapshot of a MemStore's operation counts.
type MemCounters struct {
	Gets, GetRanges, Puts int64
	BytesRead             int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objs: make(map[string][]byte)}
}

// SetFault installs (or, with nil, clears) a fault hook invoked before
// every operation with the operation name ("get", "getrange", "put",
// "list", "delete") and key; returning a non-nil error fails the
// operation. Safe to flip concurrently with operations.
func (st *MemStore) SetFault(f func(op, key string) error) {
	if f == nil {
		st.fault.Store(nil)
		return
	}
	st.fault.Store(&f)
}

// Counters returns the operation counts so far.
func (st *MemStore) Counters() MemCounters {
	return MemCounters{
		Gets:      atomic.LoadInt64(&st.gets),
		GetRanges: atomic.LoadInt64(&st.ranges),
		Puts:      atomic.LoadInt64(&st.puts),
		BytesRead: atomic.LoadInt64(&st.bytesRead),
	}
}

func (st *MemStore) before(op, key string) error {
	if d := st.Latency; d > 0 {
		time.Sleep(d)
	}
	if f := st.fault.Load(); f != nil {
		return (*f)(op, key)
	}
	return nil
}

// Put stores a copy of data under key.
func (st *MemStore) Put(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := st.before("put", key); err != nil {
		return err
	}
	atomic.AddInt64(&st.puts, 1)
	cp := make([]byte, len(data))
	copy(cp, data)
	st.mu.Lock()
	st.objs[key] = cp
	st.mu.Unlock()
	return nil
}

// Get returns a copy of the object under key.
func (st *MemStore) Get(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	if err := st.before("get", key); err != nil {
		return nil, err
	}
	st.mu.RLock()
	obj, ok := st.objs[key]
	st.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	atomic.AddInt64(&st.gets, 1)
	atomic.AddInt64(&st.bytesRead, int64(len(obj)))
	cp := make([]byte, len(obj))
	copy(cp, obj)
	return cp, nil
}

// GetRange returns a copy of n bytes at offset off.
func (st *MemStore) GetRange(key string, off, n int64) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	if err := st.before("getrange", key); err != nil {
		return nil, err
	}
	st.mu.RLock()
	obj, ok := st.objs[key]
	st.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err := checkRange(key, int64(len(obj)), off, n); err != nil {
		return nil, err
	}
	atomic.AddInt64(&st.ranges, 1)
	atomic.AddInt64(&st.bytesRead, n)
	cp := make([]byte, n)
	copy(cp, obj[off:off+n])
	return cp, nil
}

// List returns the sorted keys with the given prefix.
func (st *MemStore) List(prefix string) ([]string, error) {
	if err := st.before("list", prefix); err != nil {
		return nil, err
	}
	st.mu.RLock()
	var keys []string
	for k := range st.objs {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	st.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Delete removes key; absent keys are a no-op.
func (st *MemStore) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := st.before("delete", key); err != nil {
		return err
	}
	st.mu.Lock()
	delete(st.objs, key)
	st.mu.Unlock()
	return nil
}

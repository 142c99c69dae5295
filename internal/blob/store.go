// Package blob disaggregates segment storage from the searchers that
// serve it. Publishers (the offline indexer, the live index's
// flush/merge path) upload immutable segment files to a BlobStore under
// content-addressed keys and commit each index version by writing a
// generation-stamped manifest; searchers open the manifest, pull only
// each segment's metadata prefix (header, doc store, dictionary, skip
// tables — everything except posting bytes), and demand-load posting
// blocks through a byte-budgeted cache as queries touch them. A
// searcher therefore needs no local index state at all: point it at a
// store URL and it is serving within a footer-fetch and a dictionary
// read per segment, with steady-state latency governed by block-cache
// hit rate rather than index residency.
//
// Three Store implementations cover the deployment spectrum: DirStore
// (a shared directory — NFS stand-in), HTTPStore against the blobd
// object server (the S3-like path), and MemStore (an in-process fake
// with injectable latency and faults, used by tests and the benchmark's
// blob-cold workload).
package blob

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNotFound reports a key with no object behind it. All Store
// implementations return errors wrapping it so callers can distinguish
// absence (benign during races with publishers) from transport failure.
var ErrNotFound = errors.New("blob: object not found")

// Store is a minimal object store: flat string keys, whole-object
// writes, whole- or ranged reads. Implementations must be safe for
// concurrent use, and Put must be atomic — a concurrent Get sees either
// the whole object or ErrNotFound, never a prefix. Objects are
// immutable in practice (keys are content hashes or one-shot generation
// names); only the MANIFEST pointer is ever overwritten.
type Store interface {
	// Put stores data under key, overwriting any previous object.
	Put(key string, data []byte) error
	// Get returns the whole object.
	Get(key string) ([]byte, error)
	// GetRange returns n bytes starting at off. Implementations may
	// return fewer only by error; a range extending past the object's
	// end is an error, not a short read.
	GetRange(key string, off, n int64) ([]byte, error)
	// List returns all keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Delete removes key. Deleting an absent key is not an error.
	Delete(key string) error
}

// Open resolves a store spec to a Store: "http://host:port" or
// "https://…" dials a blobd object server, "mem:" creates a fresh
// in-process fake, and anything else is a directory path.
func Open(spec string) (Store, error) {
	switch {
	case spec == "":
		return nil, fmt.Errorf("blob: empty store spec")
	case spec == "mem:":
		return NewMemStore(), nil
	case strings.HasPrefix(spec, "http://"), strings.HasPrefix(spec, "https://"):
		return NewHTTPStore(spec), nil
	default:
		return NewDirStore(spec)
	}
}

// validKey rejects keys that could escape a directory store or confuse
// the HTTP server's path routing. Keys are slash-separated names of
// [A-Za-z0-9._-] components, no empty or dot-only components.
func validKey(key string) error {
	if key == "" || len(key) > 512 {
		return fmt.Errorf("blob: invalid key %q", key)
	}
	for _, part := range strings.Split(key, "/") {
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("blob: invalid key %q", key)
		}
		for _, r := range part {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
			default:
				return fmt.Errorf("blob: invalid key %q", key)
			}
		}
	}
	return nil
}

// checkRange validates a ranged read against the object size.
func checkRange(key string, size, off, n int64) error {
	if off < 0 || n < 0 || off+n > size {
		return fmt.Errorf("blob: range [%d,%d) outside %q (%d bytes)", off, off+n, key, size)
	}
	return nil
}

// Package partition implements intra-server index partitioning, the
// mechanism at the center of the paper's study: the document collection is
// split into P sub-indexes inside one server, a query is executed against
// all P partitions by parallel workers (fork), and the per-partition top-k
// lists are merged (join). Partitioning shortens the longest posting-list
// traversal — the critical path of a slow query — at the cost of
// duplicated per-query fixed work and a merge step.
package partition

import (
	"fmt"

	"websearchbench/internal/corpus"
	"websearchbench/internal/index"
)

// Assignment selects how documents are distributed over partitions.
type Assignment uint8

const (
	// RoundRobin assigns document i to partition i mod P. It balances
	// posting lists across partitions, the property that makes fork-join
	// effective; it is the default in the paper's study.
	RoundRobin Assignment = iota
	// Range assigns contiguous document ranges to partitions. Kept for
	// the assignment ablation: crawl-ordered ranges are topically
	// clustered, which skews per-partition work.
	Range
)

func (a Assignment) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case Range:
		return "range"
	default:
		return fmt.Sprintf("Assignment(%d)", uint8(a))
	}
}

// Index is a partitioned index: P independent segments plus the local-to-
// global docID mapping. The mapping is affine per partition (see
// DocMap), so it costs O(P) memory however many documents there are.
type Index struct {
	segs       []*index.Segment
	maps       []DocMap
	assignment Assignment
	numDocs    int
}

// DocMap places one view's local docIDs in its set's global docID
// space: global = Base + local*Stride. Round-robin partition p of P is
// {p, P}; a view owning a consecutive ID block is {first ID, 1}.
type DocMap struct{ Base, Stride int32 }

// Builder routes documents to per-partition index builders.
type Builder struct {
	builders   []*index.Builder
	assignment Assignment
	expected   int // expected total docs, needed by Range
	next       int
}

// NewBuilder creates a partitioned-index builder over parts partitions.
// expectedDocs is required for Range assignment (it determines the range
// boundaries) and ignored for RoundRobin. Builder options apply to every
// partition.
func NewBuilder(parts int, assignment Assignment, expectedDocs int, opts ...index.BuilderOption) (*Builder, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("partition: parts = %d, must be positive", parts)
	}
	if assignment == Range && expectedDocs <= 0 {
		return nil, fmt.Errorf("partition: Range assignment requires expectedDocs > 0")
	}
	b := &Builder{
		builders:   make([]*index.Builder, parts),
		assignment: assignment,
		expected:   expectedDocs,
	}
	for i := range b.builders {
		b.builders[i] = index.NewBuilder(opts...)
	}
	return b, nil
}

// partitionFor returns the partition for global document id.
func (b *Builder) partitionFor(id int) int {
	p := len(b.builders)
	switch b.assignment {
	case Range:
		part := id * p / b.expected
		if part >= p {
			part = p - 1
		}
		return part
	default:
		return id % p
	}
}

// AddDocument indexes one document, assigning the next global docID.
func (b *Builder) AddDocument(title, body, url string, quality float64) int32 {
	global := int32(b.next)
	part := b.partitionFor(b.next)
	b.next++
	b.builders[part].AddDocument(title, body, url, quality)
	return global
}

// AddCorpusDoc indexes a synthetic corpus document.
func (b *Builder) AddCorpusDoc(d corpus.Document) int32 {
	return b.AddDocument(d.Title, d.Body, d.URL, d.Quality)
}

// Finalize freezes all partitions into an immutable Index.
func (b *Builder) Finalize() *Index {
	segs := make([]*index.Segment, len(b.builders))
	for i, pb := range b.builders {
		segs[i] = pb.Finalize()
	}
	b.builders = nil
	if b.assignment == Range {
		// partitionFor is monotone in the docID, so Range partitions own
		// consecutive ID blocks in partition order.
		return FromSegments(segs)
	}
	idx := &Index{segs: segs, maps: make([]DocMap, len(segs)), assignment: RoundRobin, numDocs: b.next}
	for p := range idx.maps {
		idx.maps[p] = DocMap{Base: int32(p), Stride: int32(len(segs))}
	}
	return idx
}

// FromSegments wraps an already-built segment set (a blob-store
// manifest's, say) as a Range-assigned index: segment i is partition i
// and owns the next NumDocs-long block of global docIDs.
func FromSegments(segs []*index.Segment) *Index {
	idx := &Index{segs: segs, maps: make([]DocMap, len(segs)), assignment: Range}
	for p, seg := range segs {
		idx.maps[p] = DocMap{Base: int32(idx.numDocs), Stride: 1}
		idx.numDocs += seg.NumDocs()
	}
	return idx
}

// Build generates cfg's corpus and indexes it into parts partitions.
func Build(cfg corpus.Config, parts int, assignment Assignment, opts ...index.BuilderOption) (*Index, error) {
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	b, err := NewBuilder(parts, assignment, cfg.NumDocs, opts...)
	if err != nil {
		return nil, err
	}
	gen.GenerateFunc(func(d corpus.Document) { b.AddCorpusDoc(d) })
	return b.Finalize(), nil
}

// NumPartitions returns the partition count.
func (idx *Index) NumPartitions() int { return len(idx.segs) }

// NumDocs returns the total document count across partitions.
func (idx *Index) NumDocs() int { return idx.numDocs }

// Assignment returns the document-assignment policy.
func (idx *Index) Assignment() Assignment { return idx.assignment }

// Segment returns partition p's segment.
func (idx *Index) Segment(p int) *index.Segment { return idx.segs[p] }

// GlobalID maps partition p's local docID to the global docID.
func (idx *Index) GlobalID(p int, local int32) int32 {
	m := idx.maps[p]
	return m.Base + local*m.Stride
}

// Doc returns the stored document for a global docID.
func (idx *Index) Doc(global int32) index.StoredDoc {
	p, local := idx.locate(global)
	return idx.segs[p].Doc(local)
}

// URLTitle returns the URL and title of a global docID, without the
// rest of its stored fields.
func (idx *Index) URLTitle(global int32) (url, title string) {
	p, local := idx.locate(global)
	return idx.segs[p].URLTitle(local)
}

// locate maps a global docID back to (partition, local docID). It panics
// on an unknown ID, which indicates programmer error.
func (idx *Index) locate(global int32) (int, int32) {
	switch idx.assignment {
	case Range:
		// Range partitions hold contiguous ascending ID blocks; with at
		// most a few dozen partitions a linear scan is fine.
		for p, m := range idx.maps {
			if local := global - m.Base; local >= 0 && int(local) < idx.segs[p].NumDocs() {
				return p, local
			}
		}
		panic(fmt.Sprintf("partition: unknown global docID %d", global))
	default:
		if global < 0 || int(global) >= idx.numDocs {
			panic(fmt.Sprintf("partition: unknown global docID %d", global))
		}
		return int(global) % len(idx.segs), global / int32(len(idx.segs))
	}
}

package cluster

import (
	"fmt"
	"net/http"
	"testing"

	"websearchbench/internal/blob"
	"websearchbench/internal/corpus"
	"websearchbench/internal/partition"
	"websearchbench/internal/search"
)

// TestLostBlockReadIsDegraded: a blob-served node whose posting reads
// fail for good answers Degraded, the front-end passes the flag on and
// keeps the answer out of its result cache, and the first query after
// the store is back is evaluated afresh and equals a static node's.
func TestLostBlockReadIsDegraded(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.VocabSize, cfg.Seed = 600, 1500, 3
	parted, err := partition.Build(cfg, 2, partition.Range)
	if err != nil {
		t.Fatal(err)
	}
	st := blob.NewMemStore()
	pub := make([]blob.PubSegment, parted.NumPartitions())
	for p := range pub {
		pub[p] = blob.PubSegment{ID: uint64(p + 1), Seg: parted.Segment(p)}
	}
	if _, err := (&blob.Publisher{Store: st, CreatedBy: "test"}).Publish(pub); err != nil {
		t.Fatal(err)
	}
	src := blob.NewCachedSegmentSource(st, blob.NewBlockCache(1<<20))
	src.MaxAttempts = 2
	snap, ok, err := src.LoadSnapshot()
	if err != nil || !ok {
		t.Fatalf("load snapshot: ok=%v err=%v", ok, err)
	}
	// Sequential partitions: run in parallel, the partitions share a
	// pruning threshold whose timing moves the pruned evaluator's window
	// splits, and with them a score's summation order and last bit, so the
	// two nodes could differ by one ULP.
	opts := search.Options{TopK: 10, UseMaxScore: true}
	static := NewNode("static", parted, opts, false)
	node := NewNodeFromSearcher("blob", partition.NewSearcher(partition.FromSegments(snap.Segments), opts, false), 10)
	addr, err := node.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	fe, err := NewFrontend([]string{"http://" + addr}, 10)
	if err != nil {
		t.Fatal(err)
	}
	fe.EnableCache(16)

	vocab := corpus.NewVocabulary(cfg.VocabSize)
	req := SearchRequest{Query: vocab.Word(0) + " " + vocab.Word(3) + " " + vocab.Word(11)}
	_, want := postSearch(t, static.Handler(), req)
	if len(want.Hits) == 0 {
		t.Fatal("the query matches nothing; the comparison is vacuous")
	}

	st.SetFault(func(op, key string) error {
		if op == "getrange" {
			return fmt.Errorf("injected outage")
		}
		return nil
	})
	if code, resp := postSearch(t, node.Handler(), req); code != http.StatusOK || !resp.Degraded {
		t.Errorf("node with its store down: status %d, degraded=%v; want 200 and degraded", code, resp.Degraded)
	}
	resp, err := fe.Search(req)
	if err != nil || !resp.Degraded {
		t.Errorf("front-end over a degraded node: degraded=%v err=%v; want degraded", resp.Degraded, err)
	}
	// The HTTP path encodes what it stores; a degraded merge must reach
	// the client flagged and must not be stored either.
	for i := 0; i < 2; i++ {
		if code, resp := postSearch(t, fe.Handler(), req); code != http.StatusOK || !resp.Degraded || resp.Node != "frontend" {
			t.Errorf("front-end /search over a degraded node: status %d, node %q, degraded=%v; want 200 from the shards, degraded", code, resp.Node, resp.Degraded)
		}
	}
	st.SetFault(nil)
	if src.Stats().FetchFailures == 0 {
		t.Error("no fetch failure was counted")
	}

	sameWire := func(tag string, got SearchResponse) {
		t.Helper()
		if got.Degraded {
			t.Errorf("%s: still degraded", tag)
		}
		if fmt.Sprint(got.Hits) != fmt.Sprint(want.Hits) {
			t.Errorf("%s:\n got %v\nwant %v", tag, got.Hits, want.Hits)
		}
	}
	resp, err = fe.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node == "frontend-cache" {
		t.Error("the degraded answer was served from the front-end cache")
	}
	sameWire("first query after the outage", resp)
	if resp, err = fe.Search(req); err != nil || resp.Node != "frontend-cache" {
		t.Errorf("a complete answer was not cached: node %q err %v", resp.Node, err)
	}
	sameWire("cached answer", resp)
}

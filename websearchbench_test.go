package websearchbench

import (
	"strings"
	"testing"
)

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Docs == 0 {
		cfg.Docs = 500
	}
	if cfg.VocabSize == 0 {
		cfg.VocabSize = 2000
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineDefaults(t *testing.T) {
	e := newTestEngine(t, Config{})
	if e.NumDocs() != 500 || e.NumPartitions() != 1 {
		t.Errorf("docs=%d partitions=%d", e.NumDocs(), e.NumPartitions())
	}
}

func TestEngineSearch(t *testing.T) {
	e := newTestEngine(t, Config{Partitions: 4})
	// Search for a word that certainly exists: take one from a stored
	// doc's title.
	title := e.Index().Doc(0).Title
	term := strings.Fields(title)[0]
	results := e.Search(term)
	if len(results) == 0 {
		t.Fatalf("no results for %q", term)
	}
	if len(results) > 10 {
		t.Errorf("%d results, default TopK is 10", len(results))
	}
	for i, r := range results {
		if r.URL == "" || r.Title == "" {
			t.Errorf("result %d missing fields: %+v", i, r)
		}
		if i > 0 && r.Score > results[i-1].Score {
			t.Error("results not sorted")
		}
	}
}

func TestEngineGlobalStatsPartitionInvariance(t *testing.T) {
	e1 := newTestEngine(t, Config{GlobalStats: true})
	e8 := newTestEngine(t, Config{Partitions: 8, GlobalStats: true})
	term := strings.Fields(e1.Index().Doc(0).Title)[0]
	r1, r8 := e1.Search(term), e8.Search(term)
	if len(r1) != len(r8) {
		t.Fatalf("partition counts changed results: %d vs %d", len(r1), len(r8))
	}
	for i := range r1 {
		if r1[i].URL != r8[i].URL {
			t.Errorf("result %d: %s vs %s", i, r1[i].URL, r8[i].URL)
		}
	}
}

func TestEngineConjunctive(t *testing.T) {
	e := newTestEngine(t, Config{Conjunctive: true})
	if got := e.Search("zzzznope alsonothere"); len(got) != 0 {
		t.Errorf("AND of absent terms returned %d results", len(got))
	}
}

func TestEngineCache(t *testing.T) {
	e := newTestEngine(t, Config{CacheSize: 8})
	q := e.Index().Doc(0).Title
	first := e.Search(q)
	second := e.Search(q)
	if len(first) != len(second) {
		t.Fatalf("cached result differs: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("cached result %d differs", i)
		}
	}
	if e.CacheHitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", e.CacheHitRate())
	}
	// Callers own what Search returns, on a miss and on a hit alike:
	// editing it must not reach the cached entry.
	first[0].URL, second[0].URL = "mutated", "mutated"
	if third := e.Search(q); third[0].URL == "mutated" {
		t.Error("a caller's edit of a returned result changed the cached answer")
	}
	if newTestEngine(t, Config{}).CacheHitRate() != 0 {
		t.Error("uncached engine hit rate should be 0")
	}
}

func TestEnginePhraseQueries(t *testing.T) {
	e := newTestEngine(t, Config{Positions: true})
	title := e.Index().Doc(0).Title
	words := strings.Fields(title)
	if len(words) < 2 {
		t.Skip("doc 0 title too short for a phrase")
	}
	phrase := `"` + words[0] + " " + words[1] + `"`
	results := e.Search(phrase)
	if len(results) == 0 {
		t.Fatalf("phrase %s matched nothing", phrase)
	}
	// The doc whose title contains the phrase must be among the hits.
	found := false
	for _, r := range results {
		if r.Title == title {
			found = true
		}
	}
	if !found {
		t.Errorf("source doc missing from phrase results for %s", phrase)
	}
	// Phrases on a non-positional engine return nothing rather than
	// wrong results.
	plain := newTestEngine(t, Config{})
	if got := plain.Search(phrase); len(got) != 0 {
		t.Errorf("non-positional engine matched a phrase: %d hits", len(got))
	}
}

func TestEngineInvalidConfig(t *testing.T) {
	if _, err := New(Config{Docs: 10, VocabSize: -5}); err == nil {
		t.Error("negative vocab accepted")
	}
}

func TestEngineLive(t *testing.T) {
	e := newTestEngine(t, Config{Live: true})
	defer e.Close()
	if e.NumDocs() != 500 {
		t.Fatalf("live engine seeded %d docs, want 500", e.NumDocs())
	}

	e.Add("doc:new", "zyzzogeton studies", "a body about zyzzogeton behavior", 0.9)
	res := e.Search("zyzzogeton")
	if len(res) != 1 || res[0].URL != "doc:new" {
		t.Fatalf("fresh add not searchable: %+v", res)
	}

	e.Update("doc:new", "quokka studies", "a body about quokka behavior", 0.9)
	if res := e.Search("zyzzogeton"); len(res) != 0 {
		t.Fatalf("superseded version still matches: %+v", res)
	}
	if res := e.Search("quokka"); len(res) != 1 || res[0].URL != "doc:new" {
		t.Fatalf("updated doc not searchable: %+v", res)
	}

	if ok, _ := e.Delete("doc:new"); !ok {
		t.Fatal("Delete returned false for a live key")
	}
	if res := e.Search("quokka"); len(res) != 0 {
		t.Fatalf("deleted doc still matches: %+v", res)
	}

	st, ok := e.LiveStats()
	if !ok || st.LiveDocs != 500 {
		t.Fatalf("LiveStats = %+v, %v", st, ok)
	}
}

// TestEngineLiveStaleCache is the cache-coherence acceptance test: a
// query result cached before a delete must not be served after it.
func TestEngineLiveStaleCache(t *testing.T) {
	e := newTestEngine(t, Config{Live: true, CacheSize: 64})
	defer e.Close()

	e.Add("doc:target", "xylographic survey", "a body about xylographic methods", 0.5)
	first := e.Search("xylographic")
	if len(first) != 1 || first[0].URL != "doc:target" {
		t.Fatalf("priming query returned %+v", first)
	}
	// Same query again: served from cache (hit rate goes positive).
	e.Search("xylographic")
	if e.CacheHitRate() == 0 {
		t.Fatal("repeat query did not hit the cache")
	}

	_, _ = e.Delete("doc:target")
	after := e.Search("xylographic")
	if len(after) != 0 {
		t.Fatalf("query cached before the delete was served after it: %+v", after)
	}

	// And the inverse: a cached empty result must not mask a later add.
	e.Add("doc:target2", "xylographic revival", "more xylographic material", 0.5)
	revived := e.Search("xylographic")
	if len(revived) != 1 || revived[0].URL != "doc:target2" {
		t.Fatalf("cached empty result masked a later add: %+v", revived)
	}
}

func TestEngineLiveRejectsPositions(t *testing.T) {
	if _, err := New(Config{Docs: 10, VocabSize: 100, Live: true, Positions: true}); err == nil {
		t.Fatal("Live+Positions config accepted")
	}
}

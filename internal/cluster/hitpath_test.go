package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// startFrontend serves fe on loopback and returns its base URL.
func startFrontend(t *testing.T, fe *Frontend) string {
	t.Helper()
	addr, err := fe.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	return "http://" + addr
}

// rawSearch posts body to base's /search over real HTTP and returns the
// response bytes exactly as they arrived.
func rawSearch(t testing.TB, base, body string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	wire, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("POST %s: status %d, content type %q, body %q", body, resp.StatusCode, resp.Header.Get("Content-Type"), wire)
	}
	return wire
}

// refDecode decodes a response with encoding/json, so the tests of the
// serving path do not lean on the codec they exercise.
func refDecode(t testing.TB, wire []byte) SearchResponse {
	t.Helper()
	var resp SearchResponse
	if err := json.Unmarshal(wire, &resp); err != nil {
		t.Fatalf("response %q: %v", wire, err)
	}
	return resp
}

// TestCacheKeyIsCanonical: the three spellings of the default mode are
// one query to the result cache: one scatter, then two hits.
func TestCacheKeyIsCanonical(t *testing.T) {
	fe, _, vocab := buildCluster(t, 2, 1)
	fe.EnableCache(16)
	query := vocab.Word(0) + " " + vocab.Word(4)
	var first SearchResponse
	for i, mode := range []string{"", "or", "OR"} {
		resp, err := fe.Search(SearchRequest{Query: query, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = resp
			continue
		}
		if resp.Node != "frontend-cache" || !reflect.DeepEqual(resp.Hits, first.Hits) {
			t.Errorf("mode %q: answered by %q with %v, want the cached %v", mode, resp.Node, resp.Hits, first.Hits)
		}
	}
	if q := fe.ResilienceStats().Queries; q != 1 {
		t.Errorf("%d scatters for one query spelled three ways, want 1", q)
	}
	if resp, err := fe.Search(SearchRequest{Query: query, Mode: "AND"}); err != nil || resp.Node == "frontend-cache" {
		t.Errorf("an AND query was answered from the OR entry: node %q err %v", resp.Node, err)
	}
}

// TestSearchReturnsCallersOwnHits: what an in-process caller does to the
// hits it was given reaches neither the result cache nor the pooled merge
// buffer behind later answers.
func TestSearchReturnsCallersOwnHits(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			fe, _, vocab := buildCluster(t, 2, 1)
			if cached {
				fe.EnableCache(16)
			}
			req := SearchRequest{Query: vocab.Word(0) + " " + vocab.Word(4)}
			first, err := fe.Search(req)
			if err != nil || len(first.Hits) < 2 {
				t.Fatalf("setup: %d hits, err %v", len(first.Hits), err)
			}
			want := slices.Clone(first.Hits)
			for round := 0; round < 3; round++ {
				// An unrelated query reuses whatever scratch the first gave back.
				if _, err := fe.Search(SearchRequest{Query: vocab.Word(1)}); err != nil {
					t.Fatal(err)
				}
				got, err := fe.Search(req)
				if err != nil {
					t.Fatal(err)
				}
				if cached != (got.Node == "frontend-cache") {
					t.Errorf("round %d: answered by %q", round, got.Node)
				}
				if !reflect.DeepEqual(got.Hits, want) || !reflect.DeepEqual(first.Hits[:len(want)], want) {
					t.Fatalf("round %d: hits changed under their owner:\n got %v\nheld %v\nwant %v", round, got.Hits, first.Hits, want)
				}
				slices.Reverse(got.Hits)
				got.Hits[0] = WireHit{URL: "overwritten"}
				_ = append(got.Hits[:1], WireHit{URL: "appended"})
			}
		})
	}
}

// TestCachedHitBytes: over real HTTP a cache hit is the miss's response
// in everything but who answered and how long it took, byte for byte.
func TestCachedHitBytes(t *testing.T) {
	fe, _, vocab := buildCluster(t, 2, 1)
	fe.EnableCache(16)
	base := startFrontend(t, fe)
	query := fmt.Sprintf("%q", vocab.Word(0)+" "+vocab.Word(4))

	miss := rawSearch(t, base, `{"query":`+query+`,"topK":7}`)
	hit := rawSearch(t, base, `{"query":`+query+`,"topK":7}`)
	again := rawSearch(t, base, ` { "topK" : 7, "mode" : "or", "ignored" : [1, {"a": null}], "query" : `+query+` } `)

	m := refDecode(t, miss)
	if m.Node != "frontend" || m.NodesAnswered != 2 || len(m.Hits) != 7 {
		t.Fatalf("miss: %+v", m)
	}
	m.Node, m.TookMicros = "frontend-cache", 0
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit, want.Bytes()) {
		t.Errorf("hit body\n %q\nwant the miss's with node and tookMicros replaced\n %q", hit, want.Bytes())
	}
	if !bytes.Equal(again, hit) {
		t.Errorf("the same request spelled differently got\n %q\nwant the stored\n %q", again, hit)
	}
	if rate := fe.CacheHitRate(); rate != 2.0/3 {
		t.Errorf("hit rate %v after a miss and two hits", rate)
	}
}

// TestWriteMakesStoredBytesUnreachable: after a write through the
// front-end, an HTTP search is answered by the shards again, and sees the
// write.
func TestWriteMakesStoredBytesUnreachable(t *testing.T) {
	fe, _ := buildLiveReplicatedCluster(t, 2, 1)
	fe.EnableCache(16)
	base := startFrontend(t, fe)
	if _, err := fe.AddDoc(context.Background(), AddDocRequest{Key: "k1", Title: "one", Body: "stored bytes"}); err != nil {
		t.Fatal(err)
	}
	const body = `{"query":"stored"}`
	if r := refDecode(t, rawSearch(t, base, body)); r.Node != "frontend" || len(r.Hits) != 1 {
		t.Fatalf("setup miss: %+v", r)
	}
	if r := refDecode(t, rawSearch(t, base, body)); r.Node != "frontend-cache" || len(r.Hits) != 1 {
		t.Fatalf("setup hit: %+v", r)
	}
	if _, err := fe.AddDoc(context.Background(), AddDocRequest{Key: "k2", Title: "two", Body: "more stored bytes"}); err != nil {
		t.Fatal(err)
	}
	if r := refDecode(t, rawSearch(t, base, body)); r.Node != "frontend" || len(r.Hits) != 2 {
		t.Errorf("after the write: answered by %q with %d hits, want the shards and 2", r.Node, len(r.Hits))
	}
}

// TestConcurrentSearchesKeepTheirBytes: requests in flight together —
// identical ones and different ones, served from the cache and from the
// shards — each receive a whole response of their own query, so no
// pooled buffer is handed out while a response still lives in it. Run
// under -race this is also the data-race check of the scratch pool.
func TestConcurrentSearchesKeepTheirBytes(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			fe, _, vocab := buildCluster(t, 2, 2)
			if cached {
				fe.EnableCache(16)
			}
			base := startFrontend(t, fe)
			bodies := []string{
				fmt.Sprintf(`{"query":%q}`, vocab.Word(0)+" "+vocab.Word(4)),
				fmt.Sprintf(`{"query":%q,"topK":3}`, vocab.Word(2)),
				fmt.Sprintf(`{"query":%q,"mode":"AND","topK":50}`, vocab.Word(0)+" "+vocab.Word(1)),
			}
			want := make([][]WireHit, len(bodies))
			for i, b := range bodies {
				want[i] = refDecode(t, rawSearch(t, base, b)).Hits
				if len(want[i]) == 0 {
					t.Fatalf("setup: %s matches nothing", b)
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						q := (g/2 + i) % len(bodies) // pairs of goroutines send the same request at once
						resp, err := http.Post(base+"/search", "application/json", strings.NewReader(bodies[q]))
						if err != nil {
							t.Error(err)
							return
						}
						wire, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						var got SearchResponse
						if err == nil {
							err = json.Unmarshal(wire, &got)
						}
						if err != nil || !reflect.DeepEqual(got.Hits, want[q]) {
							t.Errorf("%s: err %v, body %q, want hits %v", bodies[q], err, wire, want[q])
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// encoding/json is the reference the codec is held to, which is why it is
// imported here and nowhere on the search path. The wire types must never
// implement json.Marshaler or json.Unmarshaler: the reference would then
// be the codec itself.

// jsonEncode is what the search path wrote before it had its own codec.
func jsonEncode(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkRequest holds the request codec to encoding/json on one value.
func checkRequest(t *testing.T, req SearchRequest) {
	t.Helper()
	want, err := jsonEncode(t, req)
	if err != nil {
		t.Fatalf("reference cannot encode %+v: %v", req, err)
	}
	got := appendSearchRequest(nil, &req)
	if !bytes.Equal(got, want) {
		t.Fatalf("request %+v encodes as\n %q\nencoding/json gives\n %q", req, got, want)
	}
	var ours, ref SearchRequest
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if err := decodeSearchRequest(string(want), &ours); err != nil {
		t.Fatalf("decoding %q: %v", want, err)
	}
	if ours != ref {
		t.Fatalf("%q decodes to %+v, encoding/json gives %+v", want, ours, ref)
	}
}

// checkResponse holds the response codec to encoding/json on one value.
func checkResponse(t *testing.T, resp SearchResponse) {
	t.Helper()
	want, refErr := jsonEncode(t, resp)
	got, err := appendSearchResponse([]byte("kept"), &resp)
	if refErr != nil {
		if err == nil {
			t.Fatalf("encoded %+v, which encoding/json refuses: %v", resp, refErr)
		}
		if string(got) != "kept" {
			t.Fatalf("a failed encode left %q in the buffer", got)
		}
		return
	}
	if err != nil {
		t.Fatalf("encoding %+v: %v", resp, err)
	}
	if got = got[len("kept"):]; !bytes.Equal(got, want) {
		t.Fatalf("response %+v encodes as\n %q\nencoding/json gives\n %q", resp, got, want)
	}
	var ours, ref SearchResponse
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if err := decodeSearchResponse(string(want), &ours); err != nil {
		t.Fatalf("decoding %q: %v", want, err)
	}
	if !reflect.DeepEqual(ours, ref) {
		t.Fatalf("%q decodes to %+v, encoding/json gives %+v", want, ours, ref)
	}
}

// checkBytes holds both decoders to json.Unmarshal on arbitrary input:
// they never panic, they reject whatever it rejects, and what both accept
// decodes the same.
func checkBytes(t *testing.T, raw []byte) {
	t.Helper()
	// The decoder refuses unknown members nested deeper than
	// maxSkipDepth, which encoding/json would skip.
	shallow := bytes.Count(raw, []byte("["))+bytes.Count(raw, []byte("{")) < maxSkipDepth

	var req, refReq SearchRequest
	err, refErr := decodeSearchRequest(string(raw), &req), json.Unmarshal(raw, &refReq)
	switch {
	case refErr != nil && err == nil:
		t.Fatalf("request %q accepted as %+v; encoding/json: %v", raw, req, refErr)
	case refErr == nil && err != nil && shallow:
		t.Fatalf("request %q rejected (%v); encoding/json gives %+v", raw, err, refReq)
	case refErr == nil && err == nil && req != refReq:
		t.Fatalf("request %q decodes to %+v, encoding/json gives %+v", raw, req, refReq)
	}

	var resp, refResp SearchResponse
	err, refErr = decodeSearchResponse(string(raw), &resp), json.Unmarshal(raw, &refResp)
	// A second "hits" member starts the list afresh here; encoding/json
	// decodes it over the elements of the first.
	oneHits := strings.Count(strings.ToUpper(string(raw)), "HITS") <= 1 && !bytes.Contains(raw, []byte(`\u`))
	switch {
	case refErr != nil && err == nil:
		t.Fatalf("response %q accepted as %+v; encoding/json: %v", raw, resp, refErr)
	case refErr == nil && err != nil && shallow:
		t.Fatalf("response %q rejected (%v); encoding/json gives %+v", raw, err, refResp)
	case refErr == nil && err == nil && oneHits && !reflect.DeepEqual(resp, refResp):
		t.Fatalf("response %q decodes to %+v, encoding/json gives %+v", raw, resp, refResp)
	}
}

// FuzzSearchCodec: for arbitrary wire values the encoders are
// byte-identical to json.NewEncoder(w).Encode and the decoders agree with
// json.Unmarshal on its output; for arbitrary bytes see checkBytes.
func FuzzSearchCodec(f *testing.F) {
	f.Add([]byte(`{"query":"ba da","mode":"AND","topK":3}`), "ba da", "http://x/1", 1.5, int64(10), uint8(0))
	f.Add([]byte(`{"hits":[{"url":"u","title":"t","score":1e-7}],"matches":1,"tookMicros":2,"node":"n"}`),
		"<a href=\"x\">&</a>", "line\u2028sep\u2029", 1e21, int64(-3), uint8(0xff))
	f.Add([]byte(`{"hits":null,"matches":0,"tookMicros":0}`), "\xff\xfe bad utf8 \xc0", "\x00\x01\x1f\x7f\b\f\n\r\t", -1e-7, int64(math.MaxInt64), uint8(0x15))
	f.Add([]byte(`{"hits":[],"degraded":true,"nodesAnswered":2}`), `quote " back \ slash /`, "\xed\xa0\x80 ünï©ödé 🎉", 123456789.125, int64(math.MinInt64), uint8(0x2a))
	f.Add([]byte(`{"QUERY":1}`), "", "", 0.0, int64(0), uint8(1))
	f.Add([]byte(`{"hits":[{"score":1e999}]}`), "a", "b", math.MaxFloat64, int64(1), uint8(2))
	f.Add([]byte(` { "unknown" : [ { "a" : [ 1 , 2.5e+3 , true , null , "\ud83c\udf89" ] } ] , "topK" : 7 } `), "a", "b", math.SmallestNonzeroFloat64, int64(1000), uint8(3))
	f.Add([]byte(`{"hits":[null,{"URL":"x"}],"Matches":-0}`), "a", "b", math.Inf(1), int64(5), uint8(7))
	f.Add([]byte(`{"hits":[{"url":"a"}],"hits":[{"title":"b"}]}`), "a", "b", math.NaN(), int64(5), uint8(7))

	f.Fuzz(func(t *testing.T, raw []byte, s1, s2 string, score float64, n int64, flags uint8) {
		checkBytes(t, raw)

		req := SearchRequest{Query: s1}
		if flags&1 != 0 {
			req.Mode = s2
		}
		if flags&2 != 0 {
			req.TopK = int(n)
		}
		checkRequest(t, req)

		resp := SearchResponse{Matches: int(n), TookMicros: n >> 3}
		switch flags >> 6 {
		case 1:
			resp.Hits = []WireHit{}
		case 2:
			resp.Hits = []WireHit{{URL: s1, Title: s2, Score: score}}
		case 3:
			resp.Hits = []WireHit{{URL: s1, Score: -score}, {Title: s1 + s2, Score: score * 1e20}, {URL: s2, Title: s1, Score: score * 1e-9}, {}}
		}
		if flags&4 != 0 {
			resp.Node = s2
		}
		if flags&8 != 0 {
			resp.NodesAnswered = int(n % 7)
		}
		resp.Degraded = flags&16 != 0
		checkResponse(t, resp)
	})
}

// TestSearchCodecCases pins the inputs a fuzzer finds slowly: member
// order, whitespace, unknown nested members, escapes and every truncation
// of a valid body.
func TestSearchCodecCases(t *testing.T) {
	full := SearchResponse{
		Hits: []WireHit{
			{URL: "http://a/1", Title: "first <b>&</b>", Score: 12.75},
			{URL: "http://a/2", Title: "tab\there \u2028", Score: 1e-9},
		},
		Matches: 41, TookMicros: 1234, Node: "frontend", NodesAnswered: 2, Degraded: true,
	}
	checkResponse(t, full)
	checkRequest(t, SearchRequest{Query: "ba da", Mode: "AND", TopK: 1000})

	for _, c := range []struct {
		name, in string
		want     SearchResponse
	}{
		{"shuffled members", `{"degraded":true,"node":"n","hits":[{"score":2,"title":"t","url":"u"}],"tookMicros":5,"matches":1}`,
			SearchResponse{Hits: []WireHit{{URL: "u", Title: "t", Score: 2}}, Matches: 1, TookMicros: 5, Node: "n", Degraded: true}},
		{"whitespace", " \t\r\n{ \"hits\" : [ { \"url\" : \"u\" , \"score\" : 1 } , { } ] , \"matches\" : 2 } \n",
			SearchResponse{Hits: []WireHit{{URL: "u", Score: 1}, {}}, Matches: 2}},
		{"unknown nested members", `{"debug":{"a":[1,{"b":[[],{}]}],"c":"\"}"},"matches":3,"hits":[{"url":"u","why":{"terms":["x","y"]}}],"z":null}`,
			SearchResponse{Hits: []WireHit{{URL: "u"}}, Matches: 3}},
		{"surrogate pair", `{"node":"\ud83c\udf89 \uD83C\uDF89"}`, SearchResponse{Node: "🎉 🎉"}},
		{"unpaired surrogates", `{"node":"\ud83c x \udf89\ud83c"}`, SearchResponse{Node: "\ufffd x \ufffd\ufffd"}},
		{"every escape", `{"node":"\"\\\/\b\f\n\r\t\u0041\u00e9"}`, SearchResponse{Node: "\"\\/\b\f\n\r\tA\u00e9"}},
		{"escaped member name", `{"m\u0061tches":7}`, SearchResponse{Matches: 7}},
		{"member names fold case", `{"MATCHES":7,"tooKMicros":9}`, SearchResponse{Matches: 7, TookMicros: 9}},
		{"member names fold beyond ASCII", `{"too\u212aMicros":9,"hit\u017f":[]}`, SearchResponse{Hits: []WireHit{}, TookMicros: 9}},
		{"null leaves members unset", `{"hits":null,"matches":null,"node":null,"degraded":null}`, SearchResponse{}},
		{"top-level null", `null`, SearchResponse{}},
		{"last duplicate wins", `{"matches":1,"matches":2}`, SearchResponse{Matches: 2}},
	} {
		var got, ref SearchResponse
		if err := decodeSearchResponse(c.in, &got); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if err := json.Unmarshal([]byte(c.in), &ref); err != nil {
			t.Errorf("%s: reference rejects the input: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) || !reflect.DeepEqual(got, ref) {
			t.Errorf("%s:\n got %+v\nwant %+v\n ref %+v", c.name, got, c.want, ref)
		}
	}

	for _, in := range []string{
		``, ` `, `{`, `{"matches":1`, `{"matches":1,}`, `{"matches":1}x`, `{"matches":1}{}`, `[]`, `7`, `"s"`,
		`{"matches":1.0}`, `{"matches":1e2}`, `{"matches":"1"}`, `{"matches":01}`, `{"matches":-}`, `{"matches":9223372036854775808}`,
		`{"hits":{}}`, `{"hits":[1]}`, `{"hits":[{"score":"1"}]}`, `{"hits":[{"score":1e999}]}`, `{"hits":[{}],}`, `{"hits":[{},]}`,
		`{"node":"a` + "\n" + `b"}`, `{"node":"\x"}`, `{"node":"\u12g4"}`, `{"node":"\u12"}`, `{"node":'a'}`, `{"degraded":1}`, `{"degraded":tru}`,
		`{"x":nul}`, `{"x":[1 2]}`, `{"x":{"a" 1}}`, `{matches:1}`, "\ufeff{}",
		`{"x":` + strings.Repeat("[", maxSkipDepth+1) + strings.Repeat("]", maxSkipDepth+1) + `}`,
	} {
		var got SearchResponse
		if err := decodeSearchResponse(in, &got); err == nil {
			t.Errorf("%q accepted as %+v", in, got)
		}
		checkBytes(t, []byte(in))
	}

	wire, err := appendSearchResponse(nil, &full)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(wire)-2; n++ { // without "}\n" it is no longer whole
		var got SearchResponse
		if err := decodeSearchResponse(string(wire[:n]), &got); err == nil {
			t.Fatalf("truncated body %q accepted", wire[:n])
		}
	}
	reqWire := appendSearchRequest(nil, &SearchRequest{Query: "ba \"da\"", Mode: "OR", TopK: 5})
	for n := 0; n < len(reqWire)-2; n++ {
		var got SearchRequest
		if err := decodeSearchRequest(string(reqWire[:n]), &got); err == nil {
			t.Fatalf("truncated body %q accepted", reqWire[:n])
		}
	}
}

// TestSearchCodecAllocs: encoding into a buffer that is already large
// enough allocates nothing, and a decoded response costs its hit slice on
// top of the string the body became.
func TestSearchCodecAllocs(t *testing.T) {
	req := SearchRequest{Query: "ba da fa", Mode: "OR", TopK: 10}
	resp := fakeResp("node-0", 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
	resp.TookMicros, resp.NodesAnswered = 31, 2
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		buf = appendSearchRequest(buf[:0], &req)
		buf, _ = appendSearchResponse(buf[:0], &resp)
	}); n != 0 {
		t.Errorf("encoding into a reused buffer: %v allocs, want 0", n)
	}
	var out SearchResponse
	if n := testing.AllocsPerRun(100, func() {
		out = SearchResponse{}
		if err := decodeSearchResponse(string(buf), &out); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decoding a 10-hit response: %v allocs, want <= 3", n)
	}
	if !reflect.DeepEqual(out, resp) {
		t.Errorf("decoded %+v, want %+v", out, resp)
	}
}

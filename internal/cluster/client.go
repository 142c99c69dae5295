package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"websearchbench/internal/search"
	"websearchbench/internal/workload"
)

// Client issues search requests against a front-end or node URL. It
// implements loadgen.Backend, so the load driver can push HTTP traffic at
// a live cluster, and counts degraded (partial-merge) responses so the
// driver can distinguish full from partial answers.
type Client struct {
	base     string
	search   postTarget
	client   *http.Client
	topK     int
	deadline time.Duration
	degraded atomic.Int64
}

// NewClient returns a client for the service at base (no trailing slash).
func NewClient(base string, topK int) *Client {
	if topK <= 0 {
		topK = 10
	}
	return &Client{
		base:   base,
		search: newPostTarget(base + "/search"),
		client: newHTTPClient(),
		topK:   topK,
	}
}

// newHTTPClient returns the keep-alive client both hops of the cluster
// use. It sets no http.Client.Timeout: that would fork every request (a
// header clone, a timer and a cancel context each) to enforce a bound the
// caller's context already carries — the client's SetDeadline, the
// front-end's resilience.Policy.Deadline.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
}

// SetDeadline sets a per-query deadline applied by Search/Do when the
// caller supplies no tighter context. 0 (the default) applies none: a
// call then waits as long as its context and the server allow.
func (c *Client) SetDeadline(d time.Duration) { c.deadline = d }

// DegradedCount returns how many degraded (partial-merge) responses this
// client has received. The load generator picks this up through an
// optional interface to report partial answers alongside errors.
func (c *Client) DegradedCount() int64 { return c.degraded.Load() }

// Search issues one request and returns the parsed response.
func (c *Client) Search(query string, mode search.Mode) (SearchResponse, error) {
	ctx, cancel := c.queryContext(context.Background())
	defer cancel()
	return c.SearchContext(ctx, query, mode)
}

// SearchContext issues one request under ctx and returns the parsed
// response.
func (c *Client) SearchContext(ctx context.Context, query string, mode search.Mode) (SearchResponse, error) {
	var buf [128]byte
	body := appendSearchRequest(buf[:0], &SearchRequest{Query: query, Mode: mode.String(), TopK: c.topK})
	out, err := c.search.search(ctx, c.client, string(body))
	if err != nil {
		return SearchResponse{}, clientErr(err)
	}
	if out.Degraded {
		c.degraded.Add(1)
	}
	return out, nil
}

// queryContext derives the per-query context from the configured
// deadline.
func (c *Client) queryContext(parent context.Context) (context.Context, context.CancelFunc) {
	if c.deadline > 0 {
		return context.WithTimeout(parent, c.deadline)
	}
	return parent, func() {}
}

// Do implements loadgen.Backend.
func (c *Client) Do(q workload.Query) error {
	return c.DoContext(context.Background(), q)
}

// DoContext executes one workload query under ctx (tightened by the
// configured deadline).
func (c *Client) DoContext(ctx context.Context, q workload.Query) error {
	ctx, cancel := c.queryContext(ctx)
	defer cancel()
	_, err := c.SearchContext(ctx, q.Text, q.Mode)
	return err
}

// AddDoc ingests one document through the service at base. Against a
// front-end the write is ring-routed and fanned out to the owning
// shard's replicas; against a live node it applies directly.
func (c *Client) AddDoc(ctx context.Context, req AddDocRequest) (MutateResponse, error) {
	return c.mutate(ctx, "/docs", req)
}

// DeleteDoc removes one document through the service at base.
func (c *Client) DeleteDoc(ctx context.Context, req DeleteDocRequest) (MutateResponse, error) {
	return c.mutate(ctx, "/delete", req)
}

func (c *Client) mutate(ctx context.Context, path string, req any) (MutateResponse, error) {
	ctx, cancel := c.queryContext(ctx)
	defer cancel()
	body, err := json.Marshal(req)
	if err != nil {
		return MutateResponse{}, err
	}
	out, err := postMutation(ctx, c.client, c.base+path, body)
	return out, clientErr(err)
}

// clientErr gives a bare status error the package prefix.
func clientErr(err error) error {
	var se *statusError
	if errors.As(err, &se) {
		return fmt.Errorf("cluster: %w", err)
	}
	return err
}

// postMutation posts one encoded /docs or /delete body to url and decodes
// the acknowledgment. Mutations are the cold path and keep encoding/json.
func postMutation(ctx context.Context, hc *http.Client, url string, body []byte) (MutateResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return MutateResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		return MutateResponse{}, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return MutateResponse{}, err
	}
	var out MutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return MutateResponse{}, err
	}
	return out, nil
}

// statusError is a non-200 response, kept typed so the front-end's retry
// path can distinguish transient (502/503/504/429) from permanent
// statuses.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.msg) }

// checkStatus turns a non-200 response into a statusError carrying the
// start of its body.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &statusError{code: resp.StatusCode, msg: string(msg)}
}

// postTarget is the invariant part of a POST to one /search URL — parsed
// URL, method, headers — built once, so a call costs a shallow copy of
// the template and not a URL parse and a header map.
type postTarget struct {
	proto *http.Request
	err   error // why the URL did not parse; returned by every call
}

func newPostTarget(rawURL string) postTarget {
	proto, err := http.NewRequest(http.MethodPost, rawURL, nil)
	if err == nil {
		proto.Header.Set("Content-Type", "application/json")
		if u := proto.URL.User; u != nil {
			pw, _ := u.Password()
			proto.SetBasicAuth(u.Username(), pw) // http.Client.Do's doing, which search bypasses
		}
	}
	return postTarget{proto: proto, err: err}
}

// stringBody is a request body over an immutable string. The transport
// may still be reading a body after a canceled call has returned, so a
// body must never live in a recycled buffer.
type stringBody struct{ strings.Reader }

func (*stringBody) Close() error { return nil }

func newStringBody(s string) *stringBody {
	b := new(stringBody)
	b.Reset(s)
	return b
}

// search posts one encoded SearchRequest under ctx and decodes the
// answer. A non-200 status is a *statusError, a transport failure a
// *url.Error. It hands the request to hc's transport itself: what
// http.Client.Do adds is redirect handling, which a POST to /search never
// needs and which clones the headers of every request in case it does.
func (t postTarget) search(ctx context.Context, hc *http.Client, body string) (SearchResponse, error) {
	if t.err != nil {
		return SearchResponse{}, t.err
	}
	hreq := t.proto.WithContext(ctx) // shares the template's URL and headers, which nothing writes
	hreq.Body = newStringBody(body)
	hreq.ContentLength = int64(len(body))
	hreq.GetBody = func() (io.ReadCloser, error) { return newStringBody(body), nil }
	resp, err := hc.Transport.RoundTrip(hreq)
	if err != nil {
		return SearchResponse{}, &url.Error{Op: "Post", URL: t.proto.URL.Redacted(), Err: err}
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return SearchResponse{}, err
	}
	sc := getScratch()
	text, err := sc.readText(resp.Body, resp.ContentLength)
	putScratch(sc)
	if err != nil {
		return SearchResponse{}, err
	}
	var out SearchResponse
	if err := decodeSearchResponse(text, &out); err != nil {
		return SearchResponse{}, err
	}
	return out, nil
}

// Stats fetches a node's index shape.
func (c *Client) Stats() (StatsResponse, error) {
	ctx, cancel := c.queryContext(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return StatsResponse{}, err
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return StatsResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return StatsResponse{}, fmt.Errorf("cluster: status %d", resp.StatusCode)
	}
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return StatsResponse{}, err
	}
	return out, nil
}

package spacetrack

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/tle"
)

// Client telemetry: one requests counter plus a retry counter per fault
// cause, so a degraded crawl shows where its retry budget went.
var (
	metricClientRequests = obs.Default().Counter("spacetrack_client_requests_total")
	metricRetries        = map[string]*obs.Counter{}
)

func init() {
	for _, cause := range []string{"rate_limit", "server_error", "transport", "truncated", "corrupt"} {
		metricRetries[cause] = obs.Default().Counter("spacetrack_client_retries_total", "cause", cause)
	}
}

// retryCause buckets a retryable fault for the retries-by-cause counter.
func retryCause(err error) string {
	var ra *rateLimitError
	if errors.As(err, &ra) {
		return "rate_limit"
	}
	switch {
	case errors.Is(err, ErrTruncatedBody):
		return "truncated"
	case errors.Is(err, ErrCorruptBody):
		return "corrupt"
	}
	var se *StatusError
	if errors.As(err, &se) {
		return "server_error"
	}
	return "transport"
}

// StatusError is returned for non-2xx responses.
type StatusError struct {
	Code int
	Body string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	return fmt.Sprintf("spacetrack: server returned %d: %s", e.Code, e.Body)
}

// ErrTooManyRetries is returned when a request keeps failing past the
// client's retry budget, whatever the fault class.
var ErrTooManyRetries = errors.New("spacetrack: retries exhausted")

// ErrTruncatedBody marks a response body that ended before the server's
// declared length — the short-read shape a dying connection produces.
var ErrTruncatedBody = errors.New("spacetrack: truncated response body")

// ErrCorruptBody marks a response that arrived complete but failed to decode
// (bit flips, garbled element sets, malformed JSON).
var ErrCorruptBody = errors.New("spacetrack: corrupt response body")

// RetryError reports an exhausted retry budget. It wraps ErrTooManyRetries
// and the last underlying failure, so both errors.Is(err, ErrTooManyRetries)
// and inspection of the final fault work.
type RetryError struct {
	URL      string
	Attempts int
	Last     error
}

// Error implements the error interface.
func (e *RetryError) Error() string {
	return fmt.Sprintf("spacetrack: %s: giving up after %d attempts: %v", e.URL, e.Attempts, e.Last)
}

// Unwrap exposes both the budget sentinel and the final fault.
func (e *RetryError) Unwrap() []error { return []error{ErrTooManyRetries, e.Last} }

// Client fetches TLE data from a tracking service. It survives the fault
// classes a long crawl against a public service meets: 429 storms (with or
// without Retry-After), 5xx bursts, transport errors and connection resets,
// truncated bodies, and corrupt element sets — all retried within one
// bounded budget, with exponential backoff and deterministic jitter.
// The zero value is not usable; construct with NewClient.
type Client struct {
	base       *url.URL
	httpClient *http.Client
	// MaxRetries bounds retries per request across every retryable fault
	// class: rate limiting, 5xx, transport errors, truncation, corruption.
	MaxRetries int
	// UseJSON switches transfers to the Space-Track OMM JSON format instead
	// of classic TLE text.
	UseJSON bool
	// Seed drives the deterministic retry jitter: two clients with the same
	// seed issuing the same request sequence back off identically.
	Seed int64
	// ClientID, when set, is sent as the X-Client-Id header so the server's
	// per-client token buckets key on a stable identity instead of the
	// connection's ephemeral address.
	ClientID string
	// Sleep is the delay hook; tests swap in a deterministic clock
	// (testkit.Clock.Sleep). Nil sleeps in real time.
	Sleep func(ctx context.Context, d time.Duration) error
	// Trace, when set, mints one trace ID per logical request and sends it
	// as the Cosmic-Trace header. Every retry of a request reuses its ID, so
	// a storm post-mortem sees one trace hitting admission N times rather
	// than N unrelated requests.
	Trace *obs.IDStream

	reqs atomic.Int64 // per-client request counter, part of the jitter input
}

// NewClient targets the service at baseURL. httpClient may be nil for
// http.DefaultClient semantics with a sane timeout.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("spacetrack: bad base URL: %w", err)
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{
		base:       u,
		httpClient: httpClient,
		MaxRetries: 5,
		Sleep:      sleepCtx,
	}, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep == nil {
		return sleepCtx(ctx, d)
	}
	return c.Sleep(ctx, d)
}

// backoffBase scales the exponential backoff for retries that carry no
// server-provided delay.
const backoffBase = 100 * time.Millisecond

// backoff computes the delay before retry number attempt (1-based) of
// request reqID: exponential growth capped at 5s, plus deterministic jitter
// derived from (Seed, reqID, attempt) so repeated runs are identical while
// concurrent requests still decorrelate.
func (c *Client) backoff(reqID int64, attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= 5*time.Second {
			d = 5 * time.Second
			break
		}
	}
	// splitmix64-style mix: stable across runs, spread across requests.
	h := uint64(c.Seed)*0x9E3779B97F4A7C15 + uint64(reqID)<<16 + uint64(attempt)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	jitter := time.Duration(h % uint64(backoffBase))
	return d + jitter
}

// conditional carries a request's cache validators (If-None-Match /
// If-Modified-Since); the zero value sends none.
type conditional struct {
	etag         string
	lastModified string
}

// fetchResult is one successful transfer: either a body with its response
// validators, or a 304 confirmation that the caller's copy is current.
type fetchResult struct {
	body         []byte
	etag         string
	lastModified string
	notModified  bool
}

// get performs a bounded-retry GET and returns the full response body.
// verify, when non-nil, validates the body; validation failures count as
// retryable corruption (the "re-read on truncation/corruption" path).
func (c *Client) get(ctx context.Context, path string, query url.Values, verify func([]byte) error) ([]byte, error) {
	res, err := c.getConditional(ctx, path, query, conditional{}, verify)
	if err != nil {
		return nil, err
	}
	return res.body, nil
}

// getConditional is get with cache validators threaded through the retry
// loop. Server-provided Retry-After delays (429 and 503) override the
// computed backoff.
func (c *Client) getConditional(ctx context.Context, path string, query url.Values, cond conditional, verify func([]byte) error) (*fetchResult, error) {
	u := *c.base
	u.Path = path
	u.RawQuery = query.Encode()
	reqID := c.reqs.Add(1)
	metricClientRequests.Inc()
	var trace obs.TraceID
	if c.Trace != nil {
		trace = c.Trace.Next()
	}

	var last error
	attempts := 0
	for attempt := 0; attempt <= c.MaxRetries; attempt++ {
		if attempt > 0 {
			delay := c.backoff(reqID, attempt)
			if d, ok := serverDelay(last); ok {
				delay = d
			}
			if err := c.sleep(ctx, delay); err != nil {
				return nil, err
			}
		}
		attempts++
		res, err := c.attempt(ctx, u.String(), cond, trace, verify)
		if err == nil {
			return res, nil
		}
		var retryable *retryableError
		if !errors.As(err, &retryable) {
			return nil, err
		}
		last = retryable.err
		metricRetries[retryCause(last)].Inc()
	}
	return nil, &RetryError{URL: u.String(), Attempts: attempts, Last: unwrapDelay(last)}
}

// retryableError tags a fault the retry loop may try again.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// rateLimitError carries a 429's server-provided Retry-After delay (-1 if
// none).
type rateLimitError struct {
	err        error
	retryAfter time.Duration
}

func (e *rateLimitError) Error() string { return e.err.Error() }
func (e *rateLimitError) Unwrap() error { return e.err }

// unavailableError carries a 503's Retry-After — the shape the server's
// admission layer sheds load with. It stays a server_error for the retry
// metrics (it unwraps to the StatusError) but its delay is honoured like a
// 429's.
type unavailableError struct {
	err        error
	retryAfter time.Duration
}

func (e *unavailableError) Error() string { return e.err.Error() }
func (e *unavailableError) Unwrap() error { return e.err }

// serverDelay extracts the server-provided retry delay from the last fault,
// if it carried one.
func serverDelay(err error) (time.Duration, bool) {
	var ra *rateLimitError
	if errors.As(err, &ra) && ra.retryAfter >= 0 {
		return ra.retryAfter, true
	}
	var ua *unavailableError
	if errors.As(err, &ua) && ua.retryAfter >= 0 {
		return ua.retryAfter, true
	}
	return 0, false
}

// unwrapDelay strips the delay-carrying wrappers for the final RetryError,
// so callers inspect the underlying StatusError directly.
func unwrapDelay(err error) error {
	var ra *rateLimitError
	if errors.As(err, &ra) {
		return ra.err
	}
	var ua *unavailableError
	if errors.As(err, &ua) {
		return ua.err
	}
	return err
}

// attempt performs one GET. Retryable faults come back wrapped in
// *retryableError; anything else is permanent.
func (c *Client) attempt(ctx context.Context, url string, cond conditional, trace obs.TraceID, verify func([]byte) error) (*fetchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if c.ClientID != "" {
		req.Header.Set("X-Client-Id", c.ClientID)
	}
	if trace != 0 {
		req.Header.Set(obs.TraceHeader, trace.String())
	}
	if cond.etag != "" {
		req.Header.Set("If-None-Match", cond.etag)
	} else if cond.lastModified != "" {
		req.Header.Set("If-Modified-Since", cond.lastModified)
	}
	resp, err := c.httpClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Transport-level failure: connection reset, refused, DNS, EOF.
		return nil, &retryableError{err: err}
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Short read below the declared Content-Length or a mid-body
			// reset: refetch rather than parse a partial archive.
			return nil, &retryableError{err: fmt.Errorf("%w: %v", ErrTruncatedBody, err)}
		}
		if verify != nil {
			if err := verify(body); err != nil {
				return nil, &retryableError{err: err}
			}
		}
		return &fetchResult{
			body:         body,
			etag:         resp.Header.Get("ETag"),
			lastModified: resp.Header.Get("Last-Modified"),
		}, nil
	case resp.StatusCode == http.StatusNotModified:
		if cond.etag == "" && cond.lastModified == "" {
			// A 304 to an unconditional request is a server bug, not a
			// cache hit; surface it rather than serve nothing.
			return nil, &StatusError{Code: resp.StatusCode, Body: "304 to an unconditional request"}
		}
		return &fetchResult{notModified: true, etag: cond.etag, lastModified: cond.lastModified}, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		se := &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
		return nil, &retryableError{err: &rateLimitError{err: se, retryAfter: retryAfter(resp)}}
	case resp.StatusCode == http.StatusServiceUnavailable:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		se := &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
		return nil, &retryableError{err: &unavailableError{err: se, retryAfter: retryAfter(resp)}}
	case resp.StatusCode >= 500:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &retryableError{err: &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}}
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
	}
}

// retryAfter extracts the Retry-After delay, -1 when absent or unusable.
func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return -1
}

// fetchSets performs a verified fetch of element sets: the body must decode
// cleanly or the transfer is retried, so corrupt responses can never
// silently shrink the archive.
func (c *Client) fetchSets(ctx context.Context, path string, query url.Values) ([]*tle.TLE, error) {
	var sets []*tle.TLE
	verify := func(body []byte) error {
		var err error
		sets, err = c.decodeSets(body)
		return err
	}
	if _, err := c.get(ctx, path, query, verify); err != nil {
		return nil, err
	}
	return sets, nil
}

// decodeSets parses a response body, enforcing that every record decoded.
// The reader's silent skipping is exactly what a fault-tolerant ingest must
// not inherit: a skipped record here becomes a missing satellite downstream.
func (c *Client) decodeSets(body []byte) ([]*tle.TLE, error) {
	if c.UseJSON {
		sets, err := tle.ReadOMM(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptBody, err)
		}
		return tle.Dedupe(sets), nil
	}
	r := tle.NewReader(bytes.NewReader(body))
	var sets []*tle.TLE
	for {
		t, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptBody, err)
		}
		sets = append(sets, t)
	}
	if r.Skipped() > 0 {
		return nil, fmt.Errorf("%w: %d unparseable element sets", ErrCorruptBody, r.Skipped())
	}
	return tle.Dedupe(sets), nil
}

// FetchGroup downloads the current catalog of a constellation group — the
// CelesTrak step CosmicDance performs once to learn the catalog numbers.
func (c *Client) FetchGroup(ctx context.Context, group string) ([]*tle.TLE, error) {
	format := "3le"
	if c.UseJSON {
		format = "json"
	}
	q := url.Values{"GROUP": {group}, "FORMAT": {format}}
	return c.fetchSets(ctx, "/NORAD/elements/gp.php", q)
}

// GroupPage is the result of a conditional group fetch: either fresh
// element sets with their validators, or NotModified confirming the
// caller's cached copy is current.
type GroupPage struct {
	Sets         []*tle.TLE
	ETag         string
	LastModified string
	NotModified  bool
}

// FetchGroupConditional downloads the current catalog of a group unless the
// server confirms the caller's validators still hold — the incremental-poll
// workflow. Pass empty validators for an unconditional fetch; on a 304 the
// returned page carries NotModified and echoes the validators back.
func (c *Client) FetchGroupConditional(ctx context.Context, group, etag, lastModified string) (*GroupPage, error) {
	format := "3le"
	if c.UseJSON {
		format = "json"
	}
	q := url.Values{"GROUP": {group}, "FORMAT": {format}}
	var sets []*tle.TLE
	verify := func(body []byte) error {
		var err error
		sets, err = c.decodeSets(body)
		return err
	}
	res, err := c.getConditional(ctx, "/NORAD/elements/gp.php", q, conditional{etag: etag, lastModified: lastModified}, verify)
	if err != nil {
		return nil, err
	}
	if res.notModified {
		return &GroupPage{NotModified: true, ETag: etag, LastModified: lastModified}, nil
	}
	return &GroupPage{Sets: sets, ETag: res.etag, LastModified: res.lastModified}, nil
}

// CatalogNumbers extracts the sorted distinct catalog numbers from a fetch.
func CatalogNumbers(sets []*tle.TLE) []int {
	nums := make([]int, len(sets))
	for i, t := range sets {
		nums[i] = t.CatalogNumber
	}
	slices.Sort(nums)
	return slices.Compact(nums)
}

// FetchHistory downloads the element sets of one object in [from, to] — the
// Space-Track step.
func (c *Client) FetchHistory(ctx context.Context, catalog int, from, to time.Time) ([]*tle.TLE, error) {
	q := url.Values{
		"catalog": {strconv.Itoa(catalog)},
		"from":    {from.UTC().Format(time.RFC3339)},
		"to":      {to.UTC().Format(time.RFC3339)},
	}
	if c.UseJSON {
		q.Set("format", "json")
	}
	return c.fetchSets(ctx, "/history", q)
}

// Health probes the service.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.get(ctx, "/healthz", nil, nil)
	return err
}

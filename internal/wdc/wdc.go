// Package wdc simulates the WDC for Geomagnetism (Kyoto) data service — the
// other half of CosmicDance's ingest. The real pipeline fetches hourly Dst
// records over HTTP from wdc.kugi.kyoto-u.ac.jp; this package serves a
// synthetic index in the same daily exchange-record format and provides the
// client that fetches, parses and incrementally extends a local index.
package wdc

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"cosmicdance/internal/dst"
)

// Server publishes a Dst index as WDC exchange records:
//
//	GET /dst?from=YYYY-MM-DD&to=YYYY-MM-DD   daily records, one per line
//	GET /healthz
//
// Missing bounds default to the index's span. The from bound is inclusive,
// to is exclusive (whole days).
type Server struct {
	index *dst.Index
}

// NewServer wraps an index.
func NewServer(index *dst.Index) *Server { return &Server{index: index} }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/dst", s.handleDst)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

const dayLayout = "2006-01-02"

func (s *Server) handleDst(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from := s.index.Start()
	to := s.index.End()
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = time.Parse(dayLayout, v); err != nil {
			http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = time.Parse(dayLayout, v); err != nil {
			http.Error(w, "bad to: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if !to.After(from) {
		http.Error(w, "to must follow from", http.StatusBadRequest)
		return
	}
	slice := s.index.Slice(from, to)
	if slice.Len() == 0 {
		http.Error(w, "no data in range", http.StatusNotFound)
		return
	}
	records, err := dst.FromIndex(slice, 2)
	if err != nil {
		// Partial days at the archive frontier: trim to whole days.
		whole := slice.Len() / 24 * 24
		if whole == 0 {
			http.Error(w, "no whole days in range", http.StatusNotFound)
			return
		}
		trimmed := s.index.Slice(from, from.Add(time.Duration(whole)*time.Hour))
		if records, err = dst.FromIndex(trimmed, 2); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := dst.WriteRecords(w, records); err != nil {
		return
	}
}

// Client fetches Dst data from a WDC-style service.
type Client struct {
	base       *url.URL
	httpClient *http.Client
}

// NewClient targets the service at baseURL.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("wdc: bad base URL: %w", err)
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: u, httpClient: httpClient}, nil
}

// Fetch downloads [from, to) (whole days, UTC) and returns the parsed index.
func (c *Client) Fetch(ctx context.Context, from, to time.Time) (*dst.Index, error) {
	u := *c.base
	u.Path = "/dst"
	q := url.Values{}
	q.Set("from", from.UTC().Format(dayLayout))
	q.Set("to", to.UTC().Format(dayLayout))
	u.RawQuery = q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("wdc: server returned %d: %s", resp.StatusCode, body)
	}
	records, err := dst.ParseRecords(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("wdc: parsing records: %w", err)
	}
	return dst.ToIndex(records)
}

// FetchIncremental extends a local index up to the given frontier, fetching
// only the missing whole days — the "fetch as and when needed incrementally"
// behaviour of the paper's ingest. A nil index starts from `from`.
func (c *Client) FetchIncremental(ctx context.Context, local *dst.Index, from, upTo time.Time) (*dst.Index, error) {
	start := from
	if local != nil && local.Len() > 0 {
		start = local.End()
	}
	start = start.UTC().Truncate(24 * time.Hour)
	upTo = upTo.UTC().Truncate(24 * time.Hour)
	if !upTo.After(start) {
		return local, nil // nothing new
	}
	fresh, err := c.Fetch(ctx, start, upTo)
	if err != nil {
		return local, err
	}
	if local == nil || local.Len() == 0 {
		return fresh, nil
	}
	if err := local.Append(fresh); err != nil {
		return local, fmt.Errorf("wdc: stitching increments: %w", err)
	}
	return local, nil
}

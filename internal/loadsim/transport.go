package loadsim

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cosmicdance/internal/obs"
)

// errReset is what the transport surfaces for an aborted handler — the
// in-process shape of a torn TCP connection.
var errReset = errors.New("loadsim: connection reset by server")

// The transport's transfer-time model: every round trip costs perRequest of
// virtual time, plus perByte for each wire byte of the response body
// (about 2 MB/s).
const (
	perRequest = 2 * time.Millisecond
	perByte    = 500 * time.Nanosecond
)

// Transport is an http.RoundTripper that invokes an http.Handler directly
// and charges virtual transfer time to the shared clock: perRequest for the
// round trip plus perByte for every wire byte of the response body. It
// negotiates gzip like a real HTTP stack — wire bytes are counted
// compressed, the caller sees the inflated body — and it reproduces the two
// transport-level fault shapes the fault injector emits: aborted handlers
// become connection-reset errors, and bodies shorter than their declared
// Content-Length end in a short read.
//
// The transport is single-threaded by construction: the simulation's event
// loop serializes every request, which is what makes its counters and the
// virtual timeline reproducible.
type Transport struct {
	Handler http.Handler
	Clock   *Clock

	// Flight, when set, records injector-origin rejections — 429/503s the
	// fault injector short-circuits before the server's admission layer ever
	// sees them. The server echoes Cosmic-Trace before admission, so a reject
	// without the echo can only have come from the injector; recording it here
	// keeps the flight recorder's "who got shed" list complete.
	Flight *obs.FlightRecorder

	requests   int64
	wireBytes  int64
	resets     int64
	statuses   map[int]int64
	notModOnly int64
}

// recorder is the minimal in-memory ResponseWriter for handler invocation.
type recorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
	wrote  bool
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
	}
	return w.body.Write(p)
}

// shortReader serves its bytes then fails with an unexpected EOF, the
// client-visible shape of a truncated response.
type shortReader struct{ r io.Reader }

func (s *shortReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF {
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	t.requests++
	out := req.Clone(req.Context())
	if out.Header.Get("Accept-Encoding") == "" {
		out.Header.Set("Accept-Encoding", "gzip")
	}
	out.RemoteAddr = "203.0.113.7:4242"

	rec := &recorder{code: http.StatusOK, header: make(http.Header)}
	defer func() {
		if r := recover(); r != nil {
			if r != http.ErrAbortHandler {
				panic(r)
			}
			t.resets++
			t.Clock.Advance(perRequest)
			resp, err = nil, errReset
		}
	}()
	t.Handler.ServeHTTP(rec, out)

	wire := rec.body.Len()
	t.wireBytes += int64(wire)
	t.Clock.Advance(perRequest + time.Duration(wire)*perByte)
	if t.statuses == nil {
		t.statuses = make(map[int]int64)
	}
	t.statuses[rec.code]++
	if rec.code == http.StatusNotModified {
		t.notModOnly++
	}
	if (rec.code == http.StatusTooManyRequests || rec.code == http.StatusServiceUnavailable) &&
		rec.header.Get(obs.TraceHeader) == "" {
		t.Flight.RecordReject(obs.FlightEvent{
			Trace:    out.Header.Get(obs.TraceHeader),
			Endpoint: endpointOf(out.URL.Path),
			Status:   rec.code,
			Detail:   "injected",
		})
	}

	body := rec.body.Bytes()
	declared := len(body)
	if v := rec.header.Get("Content-Length"); v != "" {
		if n, perr := strconv.Atoi(v); perr == nil {
			declared = n
		}
	}
	var reader io.Reader = bytes.NewReader(body)
	switch {
	case declared > len(body):
		// Truncation fault: the injector declares the full length but serves
		// half, so the read must die short of the promise.
		reader = &shortReader{r: reader}
	case rec.header.Get("Content-Encoding") == "gzip":
		if inflated, zerr := inflate(body); zerr == nil {
			body = inflated
			reader = bytes.NewReader(body)
			rec.header.Del("Content-Encoding")
			declared = len(body)
		}
		// Undecodable gzip (a corruption fault hit the compressed stream)
		// passes through raw: the client's body verification rejects it.
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(reader),
		ContentLength: int64(declared),
		Request:       req,
	}, nil
}

func inflate(body []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// endpointOf maps a request path to the endpoint label the server's own
// telemetry uses, so transport-recorded rejects aggregate with server ones.
func endpointOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/"):
		return "feed"
	case path == "/ingest":
		return "ingest"
	case path == "/history":
		return "history"
	case strings.HasPrefix(path, "/NORAD/"):
		return "group"
	}
	return "other"
}

package tle

import (
	"bufio"
	"io"
	"sort"
	"strings"
)

// Reader streams element sets from 2LE or 3LE (name line + two element
// lines) text, the formats CelesTrak and Space-Track serve.
type Reader struct {
	s       *bufio.Scanner
	pending string // a lookahead line not yet consumed
	skipped int
}

// NewReader wraps r in a TLE stream reader.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 256), 1024)
	return &Reader{s: s}
}

// Skipped reports how many malformed records were skipped.
func (r *Reader) Skipped() int { return r.skipped }

func (r *Reader) next() (string, bool) {
	if r.pending != "" {
		l := r.pending
		r.pending = ""
		return l, true
	}
	for r.s.Scan() {
		l := strings.TrimRight(r.s.Text(), "\r\n")
		if strings.TrimSpace(l) == "" {
			continue
		}
		return l, true
	}
	return "", false
}

// Read returns the next element set, or io.EOF at end of stream.
func (r *Reader) Read() (*TLE, error) {
	for {
		l, ok := r.next()
		if !ok {
			if err := r.s.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		name := ""
		if !strings.HasPrefix(l, "1 ") {
			// 3LE name line.
			name = strings.TrimSpace(strings.TrimPrefix(l, "0 "))
			l, ok = r.next()
			if !ok {
				r.skipped++
				return nil, io.EOF
			}
		}
		l2, ok := r.next()
		if !ok {
			r.skipped++
			return nil, io.EOF
		}
		t, err := Parse(l, l2)
		if err != nil {
			r.skipped++
			// The second line may actually start the next record.
			if strings.HasPrefix(l2, "1 ") {
				r.pending = l2
			}
			continue
		}
		t.Name = name
		return t, nil
	}
}

// ReadAll consumes the stream and returns every element set.
func ReadAll(rd io.Reader) ([]*TLE, error) {
	r := NewReader(rd)
	var out []*TLE
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// writeChunk is how much encoded text Write gathers before handing it to w.
const writeChunk = 32 << 10

// Write encodes element sets to w, in 3LE form when names are present. It
// hands w the text in chunks of about writeChunk bytes.
func Write(w io.Writer, sets []*TLE) error {
	var buf []byte
	for _, t := range sets {
		if t.Name != "" {
			buf = append(append(buf, t.Name...), '\n')
		}
		var err error
		if buf, err = t.AppendLines(buf); err != nil {
			return err
		}
		if len(buf) >= writeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// Dedupe returns the element sets sorted by (catalog, epoch) with exact
// (catalog, epoch) duplicates collapsed to their first occurrence — the
// shape a fault-tolerant ingest needs when a flaky service replays or
// duplicates records. The input slice is not modified.
func Dedupe(sets []*TLE) []*TLE {
	if len(sets) < 2 {
		return sets
	}
	sorted := make([]*TLE, len(sets))
	copy(sorted, sets)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].CatalogNumber != sorted[j].CatalogNumber {
			return sorted[i].CatalogNumber < sorted[j].CatalogNumber
		}
		return sorted[i].Epoch.Before(sorted[j].Epoch)
	})
	out := sorted[:1]
	for _, t := range sorted[1:] {
		last := out[len(out)-1]
		if t.CatalogNumber == last.CatalogNumber && t.Epoch.Equal(last.Epoch) {
			continue
		}
		out = append(out, t)
	}
	return out
}

package tle

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// maxLine bounds one line of TLE text. An element line is 69 columns; a
// longer line is corruption, not a record.
const maxLine = 1024

// ReadAll reads every element set of a 2LE or 3LE stream (a name line before
// the two element lines), the formats CelesTrak and Space-Track serve,
// skipping blank lines. It fails closed: a record that does not parse, a
// stream that ends inside a record (io.ErrUnexpectedEOF) or an over-long
// line fails the whole read, with no sets and an error naming the record's
// first line, so a damaged stream can never pass for a shorter one.
func ReadAll(r io.Reader) ([]*TLE, error) {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 256), maxLine)
	var (
		sets  []*TLE
		rec   []string // the non-blank lines of the record being read
		first int      // the line number of rec[0]
		line  int
	)
	for s.Scan() {
		line++
		l := s.Text()
		if strings.TrimSpace(l) == "" {
			continue
		}
		if len(rec) == 0 {
			first = line
		}
		rec = append(rec, l)
		// A record ends at its second element line: its second line, or
		// its third after a name line.
		if len(rec) < 2 || len(rec) == 2 && !strings.HasPrefix(rec[0], "1 ") {
			continue
		}
		t, err := Parse(rec[len(rec)-2], rec[len(rec)-1])
		if err != nil {
			return nil, fmt.Errorf("tle: record at line %d: %w", first, err)
		}
		if len(rec) == 3 {
			t.Name = strings.TrimSpace(strings.TrimPrefix(rec[0], "0 "))
		}
		sets = append(sets, t)
		rec = rec[:0]
	}
	err := s.Err()
	if err == nil && len(rec) > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		if len(rec) == 0 {
			first = line + 1
		}
		return nil, fmt.Errorf("tle: record at line %d: %w", first, err)
	}
	return sets, nil
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

package dst

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Record is one day of hourly Dst readings in the WDC exchange layout: a
// 120-column line carrying the index name, date, version, 24 hourly values
// (I4, 9999 = missing) and the daily mean.
type Record struct {
	Year    int
	Month   time.Month
	Day     int
	Version int         // 0 quicklook, 1 provisional, 2 final
	Hourly  [24]float64 // math.NaN() marks missing hours
}

// Missing is the WDC sentinel for an absent hourly value.
const Missing = 9999

// Date returns the UTC midnight the record covers.
func (r *Record) Date() time.Time {
	return time.Date(r.Year, r.Month, r.Day, 0, 0, 0, 0, time.UTC)
}

// Mean returns the daily mean over present hours; NaN if all are missing.
func (r *Record) Mean() float64 {
	sum, n := 0.0, 0
	for _, v := range r.Hourly {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Format encodes the record as a 120-column WDC exchange line.
func (r *Record) Format() (string, error) {
	if r.Year < 1900 || r.Year > 2099 {
		return "", fmt.Errorf("dst: year %d outside WDC century fields", r.Year)
	}
	if r.Month < 1 || r.Month > 12 || r.Day < 1 || r.Day > 31 {
		return "", fmt.Errorf("dst: bad date %d-%d-%d", r.Year, r.Month, r.Day)
	}
	var b strings.Builder
	b.Grow(120)
	// Columns 1-20: header. Layout per the WDC exchange format: index name,
	// two-digit year, month, '*', day, reserved, version, century, base value
	// (always zero for Dst as published).
	fmt.Fprintf(&b, "DST%02d%02d*%02d %1d%02d  %4d",
		r.Year%100, int(r.Month), r.Day, r.Version%10, r.Year/100, 0)
	// Columns 21-116: 24 hourly values, I4.
	for _, v := range r.Hourly {
		b.WriteString(formatI4(v))
	}
	// Columns 117-120: daily mean, I4.
	b.WriteString(formatI4(r.Mean()))
	line := b.String()
	if len(line) != 120 {
		return "", fmt.Errorf("dst: internal error: record is %d columns, want 120", len(line))
	}
	return line, nil
}

func formatI4(v float64) string {
	if math.IsNaN(v) {
		return fmt.Sprintf("%4d", Missing)
	}
	n := int(math.Round(v))
	if n > 9998 {
		n = 9998
	}
	if n < -999 {
		n = -999
	}
	return fmt.Sprintf("%4d", n)
}

// ParseRecord decodes one 120-column WDC exchange line.
func ParseRecord(line string) (*Record, error) {
	line = strings.TrimRight(line, "\r\n")
	if len(line) != 120 {
		return nil, fmt.Errorf("dst: record is %d columns, want 120", len(line))
	}
	if line[0:3] != "DST" {
		return nil, fmt.Errorf("dst: index name %q, want DST", line[0:3])
	}
	if line[7] != '*' {
		return nil, fmt.Errorf("dst: missing '*' index marker in column 8")
	}
	var r Record
	yy, err := strconv.Atoi(strings.TrimSpace(line[3:5]))
	if err != nil {
		return nil, fmt.Errorf("dst: bad year: %v", err)
	}
	mm, err := strconv.Atoi(strings.TrimSpace(line[5:7]))
	if err != nil || mm < 1 || mm > 12 {
		return nil, fmt.Errorf("dst: bad month %q", line[5:7])
	}
	dd, err := strconv.Atoi(strings.TrimSpace(line[8:10]))
	if err != nil || dd < 1 || dd > 31 {
		return nil, fmt.Errorf("dst: bad day %q", line[8:10])
	}
	ver, err := strconv.Atoi(strings.TrimSpace(line[11:12]))
	if err != nil {
		return nil, fmt.Errorf("dst: bad version %q", line[11:12])
	}
	century, err := strconv.Atoi(strings.TrimSpace(line[12:14]))
	if err != nil {
		// Old records leave the century blank, implying 19xx.
		century = 19
	}
	r.Year = century*100 + yy
	r.Month = time.Month(mm)
	r.Day = dd
	r.Version = ver
	for h := 0; h < 24; h++ {
		field := line[20+4*h : 24+4*h]
		v, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return nil, fmt.Errorf("dst: bad hourly value %q at hour %d", field, h)
		}
		if v == Missing {
			r.Hourly[h] = math.NaN()
		} else {
			r.Hourly[h] = float64(v)
		}
	}
	return &r, nil
}

// ParseRecords reads records from r, one per line, skipping blank lines.
func ParseRecords(r io.Reader) ([]*Record, error) {
	s := bufio.NewScanner(r)
	var out []*Record
	lineNo := 0
	for s.Scan() {
		lineNo++
		line := s.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		rec, err := ParseRecord(line)
		if err != nil {
			return out, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := s.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// WriteRecords encodes records to w, one per line.
func WriteRecords(w io.Writer, records []*Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		line, err := r.Format()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(bw, line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ToIndex assembles daily records into a contiguous hourly index. Records
// must be day-consecutive; gaps are an error because storm detection over a
// silently stitched gap would fabricate storm boundaries.
func ToIndex(records []*Record) (*Index, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("dst: no records")
	}
	start := records[0].Date()
	values := make([]float64, 0, len(records)*24)
	for i, r := range records {
		want := start.AddDate(0, 0, i)
		if !r.Date().Equal(want) {
			return nil, fmt.Errorf("dst: record %d covers %v, want %v (gap or disorder)", i, r.Date(), want)
		}
		values = append(values, r.Hourly[:]...)
	}
	return FromValues(start, values), nil
}

// FromIndex splits an hourly index back into daily WDC records (the inverse
// of ToIndex). The index must start at a UTC midnight and span whole days.
func FromIndex(x *Index, version int) ([]*Record, error) {
	if x.Len()%24 != 0 {
		return nil, fmt.Errorf("dst: index spans %d hours, not whole days", x.Len())
	}
	if hh := x.start.Hour(); hh != 0 {
		return nil, fmt.Errorf("dst: index starts at hour %d, want midnight", hh)
	}
	days := x.Len() / 24
	out := make([]*Record, days)
	for d := 0; d < days; d++ {
		date := x.start.AddDate(0, 0, d)
		r := &Record{Year: date.Year(), Month: date.Month(), Day: date.Day(), Version: version}
		copy(r.Hourly[:], x.values[d*24:(d+1)*24])
		out[d] = r
	}
	return out, nil
}

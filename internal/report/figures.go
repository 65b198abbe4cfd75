package report

import (
	"fmt"
	"io"
	"math"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/orbit"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/stats"
	"cosmicdance/internal/units"
)

// Fig1 renders the storm-intensity overview: the Dst trace, hours per
// category, and the headline percentiles.
func Fig1(w io.Writer, x *dst.Index) error {
	if err := Heading(w, "Fig 1: storm intensities over the measurement window"); err != nil {
		return err
	}
	fmt.Fprintf(w, "window: %s .. %s (%d hours)\n",
		x.Start().Format("2006-01-02"), x.End().Format("2006-01-02"), x.Len())
	fmt.Fprintf(w, "dst: %s\n", Sparkline(Downsample(x.Values(), 100)))
	classes := x.HoursInClass()
	rows := [][]string{}
	for _, c := range []units.GScale{units.GQuiet, units.G1Minor, units.G2Moderate, units.G4Severe, units.G5Extreme} {
		rows = append(rows, []string{c.String(), fmt.Sprintf("%d", classes[c])})
	}
	if err := Table(w, []string{"category", "hours"}, rows); err != nil {
		return err
	}
	p95, err := x.IntensityPercentile(95)
	if err != nil {
		return err
	}
	p99, err := x.IntensityPercentile(99)
	if err != nil {
		return err
	}
	min, at := x.Min()
	_, err = fmt.Fprintf(w, "p95=%v  p99=%v  min=%v at %s\n", p95, p99, min, at.Format("2006-01-02 15:04"))
	return err
}

// Fig2 renders the storm-duration distributions per category (time spent at
// each category's depth).
func Fig2(w io.Writer, x *dst.Index) error {
	if err := Heading(w, "Fig 2: distribution of storm duration"); err != nil {
		return err
	}
	rows := [][]string{}
	for _, c := range []units.GScale{units.G1Minor, units.G2Moderate, units.G4Severe, units.G5Extreme} {
		runs := x.CategoryRuns(c)
		if len(runs) == 0 {
			continue
		}
		s, err := dst.DurationSummary(runs)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			c.String(), fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.1f", s.Median), fmt.Sprintf("%.1f", s.P95),
			fmt.Sprintf("%.1f", s.P99), fmt.Sprintf("%.0f", s.Max),
		})
	}
	return Table(w, []string{"category", "storms", "median h", "p95 h", "p99 h", "max h"}, rows)
}

// Fig3 renders the merged Dst/drag/altitude time series for the cherry-picked
// satellites, sampled every stride-th point.
func Fig3(w io.Writer, d *core.Dataset, catalogs []int, from, to time.Time, stride int) error {
	if err := Heading(w, "Fig 3: geomagnetic intensity vs drag and altitude"); err != nil {
		return err
	}
	if stride < 1 {
		stride = 1
	}
	for _, cat := range catalogs {
		ts, err := d.TimeSeries(cat, from, to)
		if err != nil {
			return fmt.Errorf("fig3: %w", err)
		}
		fmt.Fprintf(w, "\nsatellite #%d\n", cat)
		var alts []float64
		rows := [][]string{}
		for i, p := range ts.Points {
			alts = append(alts, p.AltKm)
			if i%stride != 0 {
				continue
			}
			rows = append(rows, []string{
				p.At.Format("2006-01-02"),
				fmt.Sprintf("%.0f", float64(p.Dst)),
				fmt.Sprintf("%.5f", p.BStar),
				fmt.Sprintf("%.1f", p.AltKm),
			})
		}
		if err := Table(w, []string{"date", "dst nT", "B* 1/ER", "alt km"}, rows); err != nil {
			return err
		}
		fmt.Fprintf(w, "altitude: %s\n", Sparkline(Downsample(alts, 80)))
	}
	return nil
}

// Fig4 renders a window analysis (storm case 4a or quiet control 4b).
func Fig4(w io.Writer, title string, wa *core.WindowAnalysis) error {
	if err := Heading(w, title); err != nil {
		return err
	}
	fmt.Fprintf(w, "event %s  affected satellites: %d  (skipped: %d decaying, %d stale, %d shape)\n",
		wa.Event.Format("2006-01-02 15:04"), len(wa.Curves),
		wa.SkippedDecaying, wa.SkippedStale, wa.SkippedShape)
	rows := [][]string{}
	for day := 0; day < wa.Days; day++ {
		med, p95 := wa.MedianKm[day], wa.P95Km[day]
		if math.IsNaN(med) {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", day),
			fmt.Sprintf("%.2f", med),
			fmt.Sprintf("%.2f", p95),
		})
	}
	if err := Table(w, []string{"day", "median km", "p95 km"}, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "median: %s\n", Sparkline(wa.MedianKm))
	fmt.Fprintf(w, "p95:    %s\n", Sparkline(wa.P95Km))
	return nil
}

// Fig5 renders the intensity-split CDFs: quiet altitude changes (5a), storm
// altitude changes (5b), and storm drag changes (5c).
func Fig5(w io.Writer, quiet, storm, drag *stats.CDF) error {
	if err := Heading(w, "Fig 5: influence of storm intensity"); err != nil {
		return err
	}
	if err := CDFTable(w, "(a) altitude change, intensity < 80th ptile", "km", quiet, 12); err != nil {
		return err
	}
	if err := CDFTable(w, "(b) altitude change, intensity > 95th ptile", "km", storm, 12); err != nil {
		return err
	}
	return CDFTable(w, "(c) drag (B*) change, intensity > 95th ptile", "1/ER", drag, 12)
}

// Fig6 renders the duration-split CDFs for >99th-ptile storms.
func Fig6(w io.Writer, short, long, dragLong *stats.CDF) error {
	if err := Heading(w, "Fig 6: influence of storm duration (>99th ptile)"); err != nil {
		return err
	}
	if err := CDFTable(w, "(a) altitude change, storms < 9 h", "km", short, 12); err != nil {
		return err
	}
	if err := CDFTable(w, "(b) altitude change, storms >= 9 h", "km", long, 12); err != nil {
		return err
	}
	return CDFTable(w, "(c) drag (B*) change for the longer storms", "1/ER", dragLong, 12)
}

// Fig7 renders the May 2024 super-storm post-analysis.
func Fig7(w io.Writer, rep *core.SuperStormReport) error {
	if err := Heading(w, "Fig 7: effect of the May 2024 super-storm"); err != nil {
		return err
	}
	var dstVals []float64
	for _, s := range rep.Dst {
		dstVals = append(dstVals, s.Value)
	}
	fmt.Fprintf(w, "dst: %s\n", Sparkline(Downsample(dstVals, 80)))
	rows := [][]string{}
	for i, dd := range rep.Drag {
		tracked := 0.0
		if i < len(rep.Tracked) {
			tracked = rep.Tracked[i].Value
		}
		rows = append(rows, []string{
			dd.Day.Format("01-02"),
			fmt.Sprintf("%.5f", dd.Median),
			fmt.Sprintf("%.5f", dd.Mean),
			fmt.Sprintf("%.5f", dd.P95),
			fmt.Sprintf("%.0f", tracked),
		})
	}
	if err := Table(w, []string{"date", "B* median", "B* mean", "B* p95", "tracked"}, rows); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "peak drag ratio: %.1fx   tracked min/max: %.4f (1.0 = no loss)\n",
		rep.PeakDragRatio, rep.MinTrackedRatio)
	return err
}

// Fig8 renders the ~50-year Dst history with the named storms.
func Fig8(w io.Writer, x *dst.Index, named []spaceweather.Override) error {
	if err := Heading(w, "Fig 8: Dst indices over the last ~50 years"); err != nil {
		return err
	}
	fmt.Fprintf(w, "dst: %s\n", Sparkline(Downsample(x.Values(), 120)))
	// Yearly minima series.
	rows := [][]string{}
	for year := x.Start().Year(); year < x.End().Year(); year++ {
		from := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
		to := from.AddDate(1, 0, 0)
		min, _ := x.Slice(from, to).Min()
		rows = append(rows, []string{fmt.Sprintf("%d", year), fmt.Sprintf("%.0f", float64(min))})
	}
	if err := Table(w, []string{"year", "min Dst nT"}, rows); err != nil {
		return err
	}
	fmt.Fprintln(w, "named storms:")
	nrows := [][]string{}
	for _, n := range named {
		nrows = append(nrows, []string{n.At.Format("2006-01-02"), fmt.Sprintf("%v", n.Value)})
	}
	return Table(w, []string{"date", "peak"}, nrows)
}

// Fig9 renders the six orbital elements of a launch cohort over time,
// averaged across the cohort at a monthly cadence.
func Fig9(w io.Writer, res *constellation.Result, catalogs []int, months int) error {
	if err := Heading(w, "Fig 9: orbital elements of the first-launch cohort"); err != nil {
		return err
	}
	set := make(map[int32]bool, len(catalogs))
	for _, c := range catalogs {
		set[int32(c)] = true
	}
	// Cohort means are meaningful for altitude, inclination and eccentricity;
	// the angular elements (RAAN, ARGP, M) are plane-specific and wrap, so
	// they are reported for one representative satellite.
	rep := int32(catalogs[0])
	type agg struct {
		n              int
		alt, incl, ecc float64
		mm             float64
		repN           int
		raan, argp, ma float64
	}
	buckets := make([]agg, months)
	for _, s := range res.Samples {
		if !set[s.Catalog] {
			continue
		}
		m := int(time.Unix(s.Epoch, 0).UTC().Sub(res.Start).Hours() / 24 / 30)
		if m < 0 || m >= months {
			continue
		}
		b := &buckets[m]
		b.n++
		b.alt += float64(s.AltKm)
		b.incl += float64(s.Inclination)
		b.ecc += float64(s.Eccentricity)
		if mm, err := orbit.MeanMotionFromAltitude(units.Kilometers(s.AltKm)); err == nil {
			b.mm += float64(mm)
		}
		if s.Catalog == rep {
			b.repN++
			b.raan = float64(s.RAAN)
			b.argp = float64(s.ArgPerigee)
			b.ma = float64(s.MeanAnomaly)
		}
	}
	rows := [][]string{}
	for m, b := range buckets {
		if b.n == 0 {
			continue
		}
		f := float64(b.n)
		raan, argp, ma := "-", "-", "-"
		if b.repN > 0 {
			raan = fmt.Sprintf("%.1f", b.raan)
			argp = fmt.Sprintf("%.1f", b.argp)
			ma = fmt.Sprintf("%.1f", b.ma)
		}
		rows = append(rows, []string{
			res.Start.AddDate(0, 0, m*30).Format("2006-01"),
			fmt.Sprintf("%d", b.n),
			fmt.Sprintf("%.1f", b.alt/f),
			fmt.Sprintf("%.4f", b.mm/f),
			fmt.Sprintf("%.2f", b.incl/f),
			fmt.Sprintf("%.5f", b.ecc/f),
			raan, argp, ma,
		})
	}
	return Table(w, []string{"month", "tles", "alt km", "mean motion", "incl deg", "ecc", "raan deg", "argp deg", "M deg"}, rows)
}

// Fig10 renders the altitude CDFs before and after cleaning.
func Fig10(w io.Writer, raw, clean *stats.CDF) error {
	if err := Heading(w, "Fig 10: altitude CDFs before/after cleaning"); err != nil {
		return err
	}
	fmt.Fprintf(w, "(a) raw TLEs: tail beyond 650 km = %.5f of %d, max = %.0f km\n",
		raw.TailFraction(650), raw.N(), raw.Max())
	if err := CDFTable(w, "(a) raw altitudes", "km", raw, 12); err != nil {
		return err
	}
	return CDFTable(w, "(b) cleaned altitudes", "km", clean, 12)
}

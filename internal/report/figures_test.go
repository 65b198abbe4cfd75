package report

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/conjunction"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/groundtrack"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/stats"
)

var r0 = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)

// smallDataset builds a 3-satellite dataset with one storm and one decayer.
func smallDataset(t *testing.T) *core.Dataset {
	t.Helper()
	days := 90
	vals := make([]float64, days*24)
	for i := range vals {
		vals[i] = -10
	}
	for h := 0; h < 6; h++ {
		vals[30*24+h] = -150
	}
	weather := dst.FromValues(r0, vals)
	b := core.NewBuilder(core.DefaultConfig(), weather)
	for cat := 1; cat <= 2; cat++ {
		for i := 0; i < days*2; i++ {
			b.AddSamples([]constellation.Sample{{
				Catalog: int32(cat), Epoch: r0.Add(time.Duration(i) * 12 * time.Hour).Unix(),
				AltKm: 550, BStar: 4e-4, Inclination: 53,
			}})
		}
	}
	// A decayer after the storm.
	for i := 0; i < days*2; i++ {
		at := r0.Add(time.Duration(i) * 12 * time.Hour)
		alt := 550.0
		if day := float64(i) / 2; day > 30 {
			alt = 550 - 4*(day-30)
		}
		if alt < 200 {
			break
		}
		b.AddSamples([]constellation.Sample{{
			Catalog: 3, Epoch: at.Unix(), AltKm: float32(alt), BStar: 8e-4, Inclination: 53,
		}})
	}
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFig3Render(t *testing.T) {
	d := smallDataset(t)
	var buf bytes.Buffer
	if err := Fig3(&buf, d, []int{3}, r0, r0.Add(90*24*time.Hour), 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 3", "satellite #3", "alt km", "altitude:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Unknown catalog errors.
	if err := Fig3(&buf, d, []int{99}, r0, r0.Add(time.Hour), 1); err == nil {
		t.Error("unknown catalog accepted")
	}
}

func TestFig4Render(t *testing.T) {
	d := smallDataset(t)
	wa, err := d.Window(context.Background(), r0.Add(30*24*time.Hour), core.WindowOptions{Days: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig4(&buf, "Fig 4(a): demo", wa); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "affected satellites:") || !strings.Contains(out, "median km") {
		t.Errorf("output:\n%s", out)
	}
}

func TestFig5Fig6Render(t *testing.T) {
	a, _ := stats.NewCDF([]float64{1, 2, 3})
	b, _ := stats.NewCDF([]float64{10, 20, 163})
	c, _ := stats.NewCDF([]float64{0.0001, 0.001})
	var buf bytes.Buffer
	if err := Fig5(&buf, a, b, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "intensity > 95th ptile") {
		t.Error("Fig5 sections missing")
	}
	buf.Reset()
	if err := Fig6(&buf, a, b, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "storms >= 9 h") {
		t.Error("Fig6 sections missing")
	}
}

func TestFig7Render(t *testing.T) {
	d := smallDataset(t)
	rep, err := d.SuperStorm(r0.Add(25*24*time.Hour), r0.Add(40*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig7(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "peak drag ratio") || !strings.Contains(out, "tracked") {
		t.Errorf("output:\n%s", out)
	}
}

func TestFig8Render(t *testing.T) {
	// A two-year index with one named storm.
	vals := make([]float64, 2*365*24)
	for i := range vals {
		vals[i] = -10
	}
	vals[1000] = -589
	x := dst.FromValues(time.Date(1989, 1, 1, 0, 0, 0, 0, time.UTC), vals)
	named := []spaceweather.Override{{At: x.TimeAt(1000), Value: -589}}
	var buf bytes.Buffer
	if err := Fig8(&buf, x, named); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1989") || !strings.Contains(out, "-589") {
		t.Errorf("output:\n%s", out)
	}
}

func TestFig9Render(t *testing.T) {
	res := &constellation.Result{Start: r0, Hours: 24 * 120}
	for i := 0; i < 120; i++ {
		res.Samples = append(res.Samples, constellation.Sample{
			Catalog: 44713, Epoch: r0.Add(time.Duration(i) * 24 * time.Hour).Unix(),
			AltKm: 550, Inclination: 53, RAAN: float32(360 - i%360), Eccentricity: 0.0001,
		})
	}
	res.Sats = []constellation.SatInfo{{Catalog: 44713, Name: "X"}}
	var buf bytes.Buffer
	if err := Fig9(&buf, res, []int{44713}, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mean motion") || !strings.Contains(out, "raan deg") {
		t.Errorf("output:\n%s", out)
	}
	// Rows appear for months with samples.
	if strings.Count(out, "2023-") < 3 {
		t.Errorf("too few monthly rows:\n%s", out)
	}
}

func TestFig10Render(t *testing.T) {
	raw, _ := stats.NewCDF([]float64{550, 550, 39000})
	clean, _ := stats.NewCDF([]float64{549, 550, 551})
	var buf bytes.Buffer
	if err := Fig10(&buf, raw, clean); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tail beyond 650 km") {
		t.Error("Fig10 headline missing")
	}
}

func TestExtensionRenders(t *testing.T) {
	lat := &groundtrack.Report{
		From: r0, To: r0.Add(6 * time.Hour), Step: 5 * time.Minute,
		Bands: []groundtrack.Exposure{
			{Band: groundtrack.Band{LowDeg: 0, HighDeg: 60}, SatHours: 5, Fraction: 0.8},
			{Band: groundtrack.Band{LowDeg: 60, HighDeg: 90}, SatHours: 1.25, Fraction: 0.2},
		},
		TotalSatHours: 6.25, AuroralFraction: 0.25, Satellites: 2,
	}
	var buf bytes.Buffer
	if err := ExtLatitude(&buf, lat); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "auroral exposure") {
		t.Error("latitude extension headline missing")
	}

	kessler := &conjunction.Report{
		Occupancy: []conjunction.ShellOccupancy{
			{Shell: constellation.Shell{Name: "s550", AltitudeKm: 550, Inclination: 53}, Count: 10},
		},
		Crossings:            []conjunction.Crossing{{Catalog: 9, Shell: "s550", DwellHours: 20}},
		DwellSatHours:        20,
		ExpectedConjunctions: 0.4,
	}
	buf.Reset()
	if err := ExtKessler(&buf, kessler); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "foreign-shell crossings: 1") {
		t.Errorf("kessler extension output:\n%s", buf.String())
	}
}

func TestWindowToCSVAndSuperStormToCSV(t *testing.T) {
	d := smallDataset(t)
	wa, err := d.Window(context.Background(), r0.Add(30*24*time.Hour), core.WindowOptions{Days: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WindowToCSV(&buf, wa); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "day,median_km,p95_km\n") {
		t.Errorf("csv:\n%s", buf.String())
	}
	rep, err := d.SuperStorm(r0.Add(25*24*time.Hour), r0.Add(35*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := SuperStormToCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bstar_median") {
		t.Errorf("csv:\n%s", buf.String())
	}
}

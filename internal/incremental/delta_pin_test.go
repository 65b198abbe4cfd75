package incremental

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"

	"cosmicdance/internal/units"
)

// TestDeltaStreamPinned pins the full JSON delta stream of one seeded run by
// its SHA-256. The Dst stream carries the two readings that end a storm run
// without recovering past the storm threshold by much: a −49.5 nT hour right
// after one storm and a missing (NaN) hour right after another. The run is
// cut mid-storm, snapshotted with State, restored with FromState and fed the
// same suffix; the restored run's stream must equal the uninterrupted run's,
// and both must hash to the pin.
func TestDeltaStreamPinned(t *testing.T) {
	weather, obs := fleetObs(t, 7, 6)
	cfg := DefaultConfig()
	start := weather.Start()
	wx := slices.Clone(weather.Values())
	hourOf := func(at time.Time) int { return int(at.Sub(start) / time.Hour) }

	storms := weather.Storms(units.StormThreshold)
	if len(storms) < 3 {
		t.Fatalf("%d storms in the generated weather, want at least 3", len(storms))
	}
	wx[hourOf(storms[0].End())] = -49.5
	wx[hourOf(storms[1].End())] = math.NaN()
	cut := -1
	for _, s := range storms[2:] {
		if s.Hours >= 2 {
			cut = hourOf(s.Start) + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("no storm of >= 2 hours after the edited ones")
	}
	split := len(obs) / 2

	// feed ingests obs[from:to] and the Dst hours [wxFrom, wxTo) in uneven
	// batches, weather first.
	feed := func(e *Engine, wxFrom, wxTo, from, to int) {
		for i := wxFrom; i < wxTo; {
			n := min(97+i%53, wxTo-i)
			if _, err := e.IngestDst(start.Add(time.Duration(i)*time.Hour), wx[i:i+n]); err != nil {
				t.Fatal(err)
			}
			i += n
		}
		for i := from; i < to; {
			n := min(701+i%211, to-i)
			e.IngestObservations(obs[i : i+n])
			i += n
		}
	}
	record := func(e *Engine, stream *[]byte) {
		e.OnDelta(func(d Delta) {
			b, err := json.Marshal(d)
			if err != nil {
				t.Fatalf("delta %d does not encode: %v", d.Seq, err)
			}
			*stream = append(append(*stream, b...), '\n')
		})
	}

	var whole, restored []byte
	e := New(cfg)
	record(e, &whole)
	feed(e, 0, cut, 0, split)
	feed(e, cut, len(wx), split, len(obs))

	e = New(cfg)
	record(e, &restored)
	feed(e, 0, cut, 0, split)
	r, err := FromState(cfg, e.State())
	if err != nil {
		t.Fatal(err)
	}
	record(r, &restored)
	feed(r, cut, len(wx), split, len(obs))

	if string(restored) != string(whole) {
		t.Fatal("the restored run's delta stream differs from the uninterrupted run's")
	}
	sum := sha256.Sum256(whole)
	const pin = "7e9ed500379339e3be80e220b072cceb212ccf04b6927fadf29075616ffd3860"
	if got := hex.EncodeToString(sum[:]); got != pin {
		t.Fatalf("delta stream: %d bytes, SHA-256 %s; pinned %s", len(whole), got, pin)
	}
}

package spacetrack

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmicdance/internal/tle"
)

// cloneSet copies a template element set under a new catalog number and
// epoch — the shape of a live-ingested observation.
func cloneSet(template *tle.TLE, catalog int, epoch time.Time) *tle.TLE {
	c := *template
	c.CatalogNumber = catalog
	c.Epoch = epoch.UTC()
	c.Name = fmt.Sprintf("INGEST-%d", catalog)
	return &c
}

// history collects the window an archive's HistoryEach yields.
func history(a Archive, catalog int, from, to time.Time) []*tle.TLE {
	var out []*tle.TLE
	// A walk whose yield never errors returns nil.
	_ = a.HistoryEach(catalog, from, to, func(t *tle.TLE) error {
		out = append(out, t)
		return nil
	})
	return out
}

func TestCatalogServesBaseUnchanged(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	cat := NewCatalog(archive, end)

	if got, want := fmt.Sprint(cat.Groups()), fmt.Sprint(archive.Groups()); got != want {
		t.Fatalf("Groups = %v, want %v", got, want)
	}
	base := archive.GroupLatest("starlink", end)
	got := cat.GroupLatest("starlink", end)
	if len(got) != len(base) {
		t.Fatalf("GroupLatest = %d sets, want %d", len(got), len(base))
	}
	for i := range got {
		if got[i].CatalogNumber != base[i].CatalogNumber || !got[i].Epoch.Equal(base[i].Epoch) {
			t.Fatalf("set %d: (%d,%v) != (%d,%v)", i,
				got[i].CatalogNumber, got[i].Epoch, base[i].CatalogNumber, base[i].Epoch)
		}
	}
	catalog := base[0].CatalogNumber
	wantHist := archive.History(catalog, stStart, end)
	gotHist := history(cat, catalog, stStart, end)
	if len(gotHist) != len(wantHist) {
		t.Fatalf("History = %d sets, want %d", len(gotHist), len(wantHist))
	}
	if v, _, ok := cat.GroupVersion("starlink"); !ok || v != 1 {
		t.Fatalf("GroupVersion = %d,%v, want 1,true", v, ok)
	}
	if _, _, ok := cat.GroupVersion("oneweb"); ok {
		t.Fatal("unknown group reported a version")
	}
}

func TestCatalogIngestVisibilityAndVersions(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]

	// A brand-new satellite becomes visible in the group and its history.
	fresh := cloneSet(template, 90001, end.Add(-time.Hour))
	if n := cat.Ingest("starlink", []*tle.TLE{fresh}, end); n != 1 {
		t.Fatalf("Ingest applied %d, want 1", n)
	}
	latest := cat.GroupLatest("starlink", end)
	found := false
	for i, s := range latest {
		if s.CatalogNumber == 90001 {
			found = true
			if i == 0 || latest[i-1].CatalogNumber >= 90001 {
				t.Fatal("merged group list not ordered by catalog number")
			}
		}
	}
	if !found {
		t.Fatal("ingested satellite missing from GroupLatest")
	}
	if h := history(cat, 90001, stStart, end); len(h) != 1 {
		t.Fatalf("ingested history = %d sets, want 1", len(h))
	}
	v, mod, _ := cat.GroupVersion("starlink")
	if v != 2 || !mod.Equal(end) {
		t.Fatalf("post-ingest version = %d@%v, want 2@%v", v, mod, end)
	}

	// Replaying the same batch is idempotent: no new pairs, no version bump.
	if n := cat.Ingest("starlink", []*tle.TLE{fresh}, end.Add(time.Hour)); n != 0 {
		t.Fatalf("duplicate ingest applied %d, want 0", n)
	}
	if v2, _, _ := cat.GroupVersion("starlink"); v2 != 2 {
		t.Fatalf("all-duplicate batch bumped version to %d", v2)
	}

	// A newer epoch for an existing base object supersedes it in
	// GroupLatest and lands in the merged history exactly once.
	existing := template.CatalogNumber
	newer := cloneSet(template, existing, template.Epoch.Add(30*time.Minute))
	if n := cat.Ingest("starlink", []*tle.TLE{newer}, end.Add(2*time.Hour)); n != 1 {
		t.Fatalf("superseding ingest applied %d, want 1", n)
	}
	latest = cat.GroupLatest("starlink", end)
	for _, s := range latest {
		if s.CatalogNumber == existing && !s.Epoch.Equal(newer.Epoch) {
			t.Fatalf("GroupLatest catalog %d epoch = %v, want superseding %v", existing, s.Epoch, newer.Epoch)
		}
	}
	hist := history(cat, existing, stStart, end)
	seen := map[int64]int{}
	for i := 1; i < len(hist); i++ {
		if hist[i].Epoch.Before(hist[i-1].Epoch) {
			t.Fatal("merged history not ascending")
		}
	}
	for _, s := range hist {
		seen[s.Epoch.Unix()]++
	}
	for epoch, n := range seen {
		if n > 1 {
			t.Fatalf("epoch %d appears %d times in merged history", epoch, n)
		}
	}
	if cat.DeltaSets() != 2 {
		t.Fatalf("DeltaSets = %d, want 2", cat.DeltaSets())
	}
}

func TestCatalogIngestNewGroup(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]
	cat.Ingest("oneweb", []*tle.TLE{cloneSet(template, 70001, end)}, end)

	groups := cat.Groups()
	if fmt.Sprint(groups) != "[oneweb starlink]" {
		t.Fatalf("Groups = %v, want [oneweb starlink]", groups)
	}
	if sets := cat.GroupLatest("oneweb", end); len(sets) != 1 || sets[0].CatalogNumber != 70001 {
		t.Fatalf("new group latest = %+v", sets)
	}
	if v, _, ok := cat.GroupVersion("oneweb"); !ok || v != 1 {
		t.Fatalf("new group version = %d,%v", v, ok)
	}
}

func TestCatalogHistoryEachMatchesHistory(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]
	existing := template.CatalogNumber
	// Interleave delta epochs between base epochs.
	batch := []*tle.TLE{
		cloneSet(template, existing, template.Epoch.Add(90*time.Minute)),
		cloneSet(template, existing, stStart.Add(30*time.Minute)),
	}
	cat.Ingest("starlink", batch, end)

	// The referee: the base window with the batch merged in by epoch.
	want := append(archive.History(existing, stStart, end), batch...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Epoch.Before(want[j].Epoch) })
	var got []*tle.TLE
	if err := cat.HistoryEach(existing, stStart, end, func(s *tle.TLE) error {
		got = append(got, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("HistoryEach yielded %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name || !got[i].Epoch.Equal(want[i].Epoch) {
			t.Fatalf("element %d diverges", i)
		}
	}
	// A yield error aborts the walk.
	calls := 0
	sentinel := fmt.Errorf("stop")
	if err := cat.HistoryEach(existing, stStart, end, func(*tle.TLE) error {
		calls++
		return sentinel
	}); err != sentinel || calls != 1 {
		t.Fatalf("yield error: err=%v calls=%d", err, calls)
	}
}

// TestCatalogRaceStress is the serving-plane race gate: bulk readers
// hammer GroupLatest and HistoryEach while a writer live-ingests, all under
// the race detector. Readers must always observe a fully consistent state —
// ordered groups, ascending histories — and the writer must never lose a
// set. A goroutine-count check mirrors the internal/parallel leak tests.
func TestCatalogRaceStress(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]

	before := runtime.NumGoroutine()
	const (
		readers = 4
		batches = 50
		perSet  = 4
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				latest := cat.GroupLatest("starlink", end)
				for i := 1; i < len(latest); i++ {
					if latest[i].CatalogNumber <= latest[i-1].CatalogNumber {
						errs <- fmt.Errorf("reader %d: unordered GroupLatest", r)
						return
					}
				}
				hist := history(cat, 90000+r, stStart, end)
				for i := 1; i < len(hist); i++ {
					if hist[i].Epoch.Before(hist[i-1].Epoch) {
						errs <- fmt.Errorf("reader %d: descending history", r)
						return
					}
				}
			}
		}(r)
	}
	applied := 0
	for b := 0; b < batches; b++ {
		batch := make([]*tle.TLE, 0, readers*perSet)
		for r := 0; r < readers; r++ {
			for k := 0; k < perSet; k++ {
				batch = append(batch, cloneSet(template, 90000+r,
					end.Add(time.Duration(b*perSet+k)*time.Minute)))
			}
		}
		applied += cat.Ingest("starlink", batch, end)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if want := batches * readers * perSet; applied != want {
		t.Fatalf("writer applied %d sets, want %d (zero dropped ingests)", applied, want)
	}
	if got := cat.DeltaSets(); got != applied {
		t.Fatalf("DeltaSets = %d after %d applied sets", got, applied)
	}
	// The readers are gone: the goroutine count must return to its baseline
	// (with the same settle loop the parallel pool tests use).
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

// TestCatalogMembershipMerge ingests new catalogs out of order, repeated
// within a batch and interleaved with held members: GroupLatest must list
// every member once, ascending.
func TestCatalogMembershipMerge(t *testing.T) {
	archive, _, end := buildArchive(t, 1)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]
	ingest := func(cats ...int) {
		batch := make([]*tle.TLE, len(cats))
		for i, c := range cats {
			batch[i] = cloneSet(template, c, end.Add(-time.Duration(i+1)*time.Minute))
		}
		cat.Ingest("oneweb", batch, end)
	}
	ingest(70040, 70020)
	ingest(70050, 70010, 70030, 70010, 70020, 70060)
	var got []int
	for _, s := range cat.GroupLatest("oneweb", end) {
		got = append(got, s.CatalogNumber)
	}
	if want := "[70010 70020 70030 70040 70050 70060]"; fmt.Sprint(got) != want {
		t.Fatalf("oneweb members = %v, want %s", got, want)
	}
}

// TestCatalogBatchVisibleWhole pins whole-batch visibility: while a writer
// gives two delta catalogs the same new epoch in each of 3,000 batches, two
// readers polling GroupLatest must never see one catalog's new epoch beside
// the other's old one.
func TestCatalogBatchVisibleWhole(t *testing.T) {
	archive, _, end := buildArchive(t, 2)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]
	pair := func(epoch time.Time) []*tle.TLE {
		return []*tle.TLE{cloneSet(template, 90000, epoch), cloneSet(template, 90001, epoch)}
	}
	cat.Ingest("starlink", pair(end), end)

	const readers, batches = 2, 3000
	at := end.Add(batches * time.Minute) // no batch's epoch is after it
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	var reads, torn atomic.Int64
	started.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; ; first = false {
				select {
				case <-stop:
					return
				default:
				}
				var epochs []time.Time
				for _, s := range cat.GroupLatest("starlink", at) {
					if s.CatalogNumber == 90000 || s.CatalogNumber == 90001 {
						epochs = append(epochs, s.Epoch)
					}
				}
				reads.Add(1)
				if len(epochs) != 2 || !epochs[0].Equal(epochs[1]) {
					torn.Add(1)
				}
				if first {
					started.Done()
				}
			}
		}()
	}
	started.Wait() // both readers are reading before the first batch
	for b := 1; b <= batches; b++ {
		cat.Ingest("starlink", pair(end.Add(time.Duration(b)*time.Minute)), end)
	}
	close(stop)
	wg.Wait()
	t.Logf("%d reads during %d batches", reads.Load(), batches)
	if torn.Load() > 0 {
		t.Fatalf("%d of %d reads saw half a batch", torn.Load(), reads.Load())
	}
}

// deltaBase numbers the delta-only catalogs of the ingest gate and
// benchmark, above the test fleets' base catalogs.
const deltaBase = 60000

// warmDelta ingests batches of ten new catalogs each, numbered from
// deltaBase, and returns how many catalogs it added.
func warmDelta(c *Catalog, template *tle.TLE, at time.Time, batches int) int {
	held := 0
	for b := 0; b < batches; b++ {
		batch := make([]*tle.TLE, 10)
		for k := range batch {
			batch[k] = cloneSet(template, deltaBase+held, at)
			held++
		}
		c.Ingest("starlink", batch, at)
	}
	return held
}

// liveBatch is batch i in live-ingest's shape on a delta of held catalogs:
// one new catalog numbered after them and nine refreshes of held ones, all
// at an epoch i+1 minutes after at.
func liveBatch(template *tle.TLE, held, i int, at time.Time) []*tle.TLE {
	epoch := at.Add(time.Duration(i+1) * time.Minute)
	batch := []*tle.TLE{cloneSet(template, deltaBase+held+i, epoch)}
	for k := 0; k < 9; k++ {
		batch = append(batch, cloneSet(template, deltaBase+(i*9+k)%held, epoch))
	}
	return batch
}

// TestCatalogIngestAllocation gates the write path: on a catalog holding
// 20,000 delta catalogs, a live-ingest-shaped batch allocates under 4 KiB,
// the clone of each set's series and little else. Copy-on-write shards
// cloned a shard's map and the whole group index per batch, about 935 KB.
func TestCatalogIngestAllocation(t *testing.T) {
	archive, _, end := buildArchive(t, 1)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]
	held := warmDelta(cat, template, end, 2000)
	batches := make([][]*tle.TLE, 200)
	for i := range batches {
		batches[i] = liveBatch(template, held, i, end)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range batches {
		cat.Ingest("starlink", b, end)
	}
	runtime.ReadMemStats(&after)
	if got, want := cat.DeltaSets(), held+len(batches)*10; got != want {
		t.Fatalf("DeltaSets = %d, want %d", got, want)
	}
	n := float64(len(batches))
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("one batch on %d delta catalogs: %.0f B in %.1f allocations", held, perBatch, float64(after.Mallocs-before.Mallocs)/n)
	if perBatch >= 4<<10 {
		t.Fatalf("a batch allocates %.0f B, want < 4 KiB", perBatch)
	}
}

// BenchmarkCatalogIngest times one live-ingest-shaped batch on a catalog
// warmed to 20,000 delta catalogs.
func BenchmarkCatalogIngest(b *testing.B) {
	archive, _, end := buildFleetArchive(b, 1, 20)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]
	held := warmDelta(cat, template, end, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	var batches [][]*tle.TLE
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			// Build the next thousand batches off the clock.
			b.StopTimer()
			batches = batches[:0]
			for k := i; k < i+1000; k++ {
				batches = append(batches, liveBatch(template, held, k, end))
			}
			b.StartTimer()
		}
		cat.Ingest("starlink", batches[i%1000], end)
	}
}

package spacetrack

import (
	"slices"
	"sort"
	"sync"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/tle"
)

// Catalog telemetry: ingest batches, element sets applied, and duplicates
// skipped, so a live-ingest run shows its write path next to the server's
// read counters.
var (
	metricCatalogIngests = obs.Default().Counter("spacetrack_catalog_ingests_total")
	metricCatalogApplied = obs.Default().Counter("spacetrack_catalog_sets_applied_total")
	metricCatalogDupes   = obs.Default().Counter("spacetrack_catalog_sets_duplicate_total")
)

// Catalog is the daemon's serving-grade data plane: an immutable base
// archive (the simulation result the daemon booted from) overlaid with a
// delta of live-ingested element sets indexed by (catalog, epoch).
//
// One RWMutex guards the delta and the group index. Ingest applies a whole
// batch under the write lock, so a reader sees a batch entirely or not at
// all. Readers copy out what they need under the read lock and merge it
// with the base, which is immutable and read without the lock, after
// releasing it.
type Catalog struct {
	base *ResultArchive

	mu sync.RWMutex
	// delta maps catalog number to that object's ingested element sets,
	// ascending by epoch and deduplicated by (catalog, epoch). A series is
	// never modified in place: a reader may still hold the old slice after
	// unlocking, so Ingest stores a clone.
	delta  map[int][]*tle.TLE
	groups map[string]*groupMeta
	sets   int // element sets held in delta
}

// groupMeta is one group's delta membership and conditional-fetch state.
type groupMeta struct {
	// cats is the sorted, distinct delta catalogs of the group. No reader
	// keeps it after unlocking, so Ingest merges into it in place.
	cats    []int
	version uint64
	lastMod time.Time
}

// NewCatalog overlays an empty delta on base. baseMod stamps the base
// archive's last-modified instant (use the archive frontier); every group
// starts at version 1.
func NewCatalog(base *ResultArchive, baseMod time.Time) *Catalog {
	c := &Catalog{base: base, delta: map[int][]*tle.TLE{}, groups: map[string]*groupMeta{}}
	for _, g := range base.Groups() {
		c.groups[g] = &groupMeta{version: 1, lastMod: baseMod}
	}
	return c
}

// Groups implements Archive: the base groups plus any groups created by
// ingest, sorted.
func (c *Catalog) Groups() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.groups))
	for g := range c.groups {
		out = append(out, g)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// GroupVersion implements Archive.
func (c *Catalog) GroupVersion(group string) (uint64, time.Time, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.groups[group]
	if !ok {
		return 0, time.Time{}, false
	}
	return m.version, m.lastMod, true
}

// latestDelta returns, for each delta member of group, its newest ingested
// element set with epoch not after at, ordered by catalog number.
func (c *Catalog) latestDelta(group string, at time.Time) []*tle.TLE {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.groups[group]
	if m == nil || len(m.cats) == 0 {
		return nil
	}
	out := make([]*tle.TLE, 0, len(m.cats))
	for _, cat := range m.cats {
		sets := c.delta[cat]
		if i := sort.Search(len(sets), func(i int) bool { return sets[i].Epoch.After(at) }); i > 0 {
			out = append(out, sets[i-1])
		}
	}
	return out
}

// GroupLatest implements Archive: the base's latest sets merged with the
// delta's, the newer epoch winning per catalog, ordered by catalog number.
func (c *Catalog) GroupLatest(group string, at time.Time) []*tle.TLE {
	base := c.base.GroupLatest(group, at)
	delta := c.latestDelta(group, at)
	if len(delta) == 0 {
		return base
	}
	out := make([]*tle.TLE, 0, len(base)+len(delta))
	bi := 0
	for _, d := range delta {
		for bi < len(base) && base[bi].CatalogNumber < d.CatalogNumber {
			out = append(out, base[bi])
			bi++
		}
		if bi < len(base) && base[bi].CatalogNumber == d.CatalogNumber {
			// Present in both tiers: the newer epoch wins, the delta on ties
			// (an ingested set supersedes the boot archive's).
			if d.Epoch.Before(base[bi].Epoch) {
				d = base[bi]
			}
			bi++
		}
		out = append(out, d)
	}
	return append(out, base[bi:]...)
}

// HistoryEach implements Archive: a two-pointer merge of the base window
// and the delta window, ascending by epoch and deduplicated by epoch with
// the delta winning, yielding without materializing the union.
func (c *Catalog) HistoryEach(catalog int, from, to time.Time, yield func(*tle.TLE) error) error {
	base := c.base.History(catalog, from, to)
	c.mu.RLock()
	all := c.delta[catalog]
	c.mu.RUnlock()
	lo := sort.Search(len(all), func(i int) bool { return !all[i].Epoch.Before(from) })
	hi := sort.Search(len(all), func(i int) bool { return all[i].Epoch.After(to) })
	delta := all[lo:hi]
	bi, di := 0, 0
	for bi < len(base) || di < len(delta) {
		switch {
		case bi == len(base):
			if err := yield(delta[di]); err != nil {
				return err
			}
			di++
		case di == len(delta):
			if err := yield(base[bi]); err != nil {
				return err
			}
			bi++
		case base[bi].Epoch.Before(delta[di].Epoch):
			if err := yield(base[bi]); err != nil {
				return err
			}
			bi++
		case delta[di].Epoch.Before(base[bi].Epoch):
			if err := yield(delta[di]); err != nil {
				return err
			}
			di++
		default:
			// Same epoch in both tiers: the ingested set supersedes.
			if err := yield(delta[di]); err != nil {
				return err
			}
			bi++
			di++
		}
	}
	return nil
}

// Ingest implements Archive: it merges sets into group's delta at service
// time at, returning how many (catalog, epoch) pairs were new. Duplicates
// of already-held pairs are skipped, so replaying an ingest batch is
// idempotent. The group's version bumps (and lastMod advances) only when at
// least one set applied, keeping conditional-fetch validators honest. The
// batch applies under one write lock, in O(batch) plus one pass over the
// group's membership when it gains a catalog.
func (c *Catalog) Ingest(group string, sets []*tle.TLE, at time.Time) int {
	if len(sets) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	metricCatalogIngests.Inc()

	touched := make([]int, 0, len(sets)) // catalogs that gained a set
	for _, t := range sets {
		cat := t.CatalogNumber
		series := c.delta[cat]
		i := sort.Search(len(series), func(i int) bool { return !series[i].Epoch.Before(t.Epoch) })
		if i < len(series) && series[i].Epoch.Equal(t.Epoch) {
			metricCatalogDupes.Inc()
			continue
		}
		merged := make([]*tle.TLE, 0, len(series)+1)
		merged = append(merged, series[:i]...)
		merged = append(merged, t)
		c.delta[cat] = append(merged, series[i:]...)
		touched = append(touched, cat)
	}
	applied := len(touched)
	metricCatalogApplied.Add(int64(applied))
	if applied == 0 {
		return 0
	}
	c.sets += applied

	m := c.groups[group]
	if m == nil {
		m = &groupMeta{}
		c.groups[group] = m
	}
	m.version++
	m.lastMod = at
	m.cats = mergeCatalogs(m.cats, touched)
	return applied
}

// mergeCatalogs merges the catalogs of add that cats lacks into cats, which
// is sorted and distinct, and returns it. It sorts add in place and fills
// cats from the back, so each member moves at most once.
func mergeCatalogs(cats, add []int) []int {
	sort.Ints(add)
	fresh := add[:0]
	for _, cat := range add {
		if _, held := slices.BinarySearch(cats, cat); !held && (len(fresh) == 0 || fresh[len(fresh)-1] != cat) {
			fresh = append(fresh, cat)
		}
	}
	n := len(cats)
	cats = slices.Grow(cats, len(fresh))[:n+len(fresh)]
	for i, j, k := n-1, len(fresh)-1, len(cats)-1; j >= 0; k-- {
		if i >= 0 && cats[i] > fresh[j] {
			cats[k] = cats[i]
			i--
		} else {
			cats[k] = fresh[j]
			j--
		}
	}
	return cats
}

// DeltaSets reports how many ingested element sets the delta holds — a
// cheap consistency probe for tests and the load harness ("zero dropped
// ingests").
func (c *Catalog) DeltaSets() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sets
}

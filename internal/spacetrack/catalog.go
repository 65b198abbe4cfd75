package spacetrack

import (
	"sort"
	"sync"
	"sync/atomic"
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

// catalogShards is the number of copy-on-write shards a Catalog spreads its
// delta over. Sixteen keeps the per-swap clone small (one sixteenth of the
// live objects) while staying far below the point where the group index
// becomes the bottleneck.
const catalogShards = 16

// Catalog is the daemon's serving-grade data plane: an immutable base
// archive (the simulation result the daemon booted from) overlaid with
// live-ingested element sets held in copy-on-write shards indexed by
// (catalog, epoch).
//
// Reads never block ingest and ingest never blocks reads: readers load one
// atomic pointer per shard and walk immutable state, while the single
// writer clones only the touched shard's index, merges, and swaps the
// pointer. A reader that raced the swap simply serves the previous,
// fully-consistent state.
type Catalog struct {
	base   *ResultArchive
	shards [catalogShards]atomic.Pointer[shardState]
	groups atomic.Pointer[groupState]

	// mu serializes writers (Ingest); readers take no locks.
	mu sync.Mutex
}

// shardState is one shard's immutable delta index. series maps catalog
// number to that object's ingested element sets, ascending by epoch and
// deduplicated by (catalog, epoch).
type shardState struct {
	series map[int][]*tle.TLE
}

// groupState is the immutable group index over the delta.
type groupState struct {
	byName map[string]*groupMeta
	names  []string // sorted; delta groups only
}

// groupMeta is one group's delta membership and conditional-fetch state.
type groupMeta struct {
	cats    []int // sorted delta catalogs
	version uint64
	lastMod time.Time
}

// NewCatalog overlays copy-on-write shards on base. baseMod stamps the base
// archive's last-modified instant (use the archive frontier); every group
// starts at version 1.
func NewCatalog(base *ResultArchive, baseMod time.Time) *Catalog {
	c := &Catalog{base: base}
	for i := range c.shards {
		c.shards[i].Store(&shardState{series: map[int][]*tle.TLE{}})
	}
	gs := &groupState{byName: map[string]*groupMeta{}}
	for _, g := range base.Groups() {
		gs.byName[g] = &groupMeta{version: 1, lastMod: baseMod}
	}
	c.groups.Store(gs)
	return c
}

// shardFor maps a catalog number onto its shard.
func (c *Catalog) shardFor(catalog int) *atomic.Pointer[shardState] {
	return &c.shards[uint(catalog)%catalogShards]
}

// Groups implements Archive: the base groups plus any groups created by
// ingest, sorted and distinct.
func (c *Catalog) Groups() []string {
	base := c.base.Groups()
	gs := c.groups.Load()
	out := make([]string, 0, len(base)+len(gs.names))
	out = append(out, base...)
	for _, g := range gs.names {
		found := false
		for _, b := range base {
			if b == g {
				found = true
				break
			}
		}
		if !found {
			out = append(out, g)
		}
	}
	sort.Strings(out)
	return out
}

// GroupVersion implements Archive.
func (c *Catalog) GroupVersion(group string) (uint64, time.Time, bool) {
	gs := c.groups.Load()
	m, ok := gs.byName[group]
	if !ok {
		return 0, time.Time{}, false
	}
	return m.version, m.lastMod, true
}

// latestDelta returns the newest ingested element set of catalog with epoch
// not after at, or nil.
func (c *Catalog) latestDelta(catalog int, at time.Time) *tle.TLE {
	sets := c.shardFor(catalog).Load().series[catalog]
	i := sort.Search(len(sets), func(i int) bool { return sets[i].Epoch.After(at) })
	if i == 0 {
		return nil
	}
	return sets[i-1]
}

// GroupLatest implements Archive: the base's latest sets merged with the
// delta's, the newer epoch winning per catalog, ordered by catalog number.
func (c *Catalog) GroupLatest(group string, at time.Time) []*tle.TLE {
	base := c.base.GroupLatest(group, at)
	gs := c.groups.Load()
	m := gs.byName[group]
	if m == nil || len(m.cats) == 0 {
		return base
	}
	out := make([]*tle.TLE, 0, len(base)+len(m.cats))
	bi := 0
	for _, cat := range m.cats {
		for bi < len(base) && base[bi].CatalogNumber < cat {
			out = append(out, base[bi])
			bi++
		}
		d := c.latestDelta(cat, at)
		if bi < len(base) && base[bi].CatalogNumber == cat {
			// Present in both tiers: the newer epoch wins, the delta on ties
			// (an ingested set supersedes the boot archive's).
			if d != nil && !d.Epoch.Before(base[bi].Epoch) {
				out = append(out, d)
			} else {
				out = append(out, base[bi])
			}
			bi++
			continue
		}
		if d != nil {
			out = append(out, d)
		}
	}
	out = append(out, base[bi:]...)
	return out
}

// HistoryEach implements Archive: a two-pointer merge of the base window
// and the delta window, ascending by epoch and deduplicated by epoch with
// the delta winning, yielding without materializing the union.
func (c *Catalog) HistoryEach(catalog int, from, to time.Time, yield func(*tle.TLE) error) error {
	base := c.base.History(catalog, from, to)
	all := c.shardFor(catalog).Load().series[catalog]
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
// least one set applied, keeping conditional-fetch validators honest.
func (c *Catalog) Ingest(group string, sets []*tle.TLE, at time.Time) int {
	if len(sets) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	metricCatalogIngests.Inc()

	// Partition the batch by shard, preserving input order within a shard.
	byShard := make(map[uint][]*tle.TLE)
	for _, t := range sets {
		s := uint(t.CatalogNumber) % catalogShards
		byShard[s] = append(byShard[s], t)
	}
	shardIDs := make([]uint, 0, len(byShard))
	for s := range byShard {
		shardIDs = append(shardIDs, s)
	}
	sort.Slice(shardIDs, func(i, j int) bool { return shardIDs[i] < shardIDs[j] })

	applied := 0
	newCats := map[int]bool{}
	for _, sid := range shardIDs {
		old := c.shards[sid].Load()
		// Copy-on-write: clone the shard's index, share untouched series.
		next := &shardState{series: make(map[int][]*tle.TLE, len(old.series)+len(byShard[sid]))}
		for k, v := range old.series {
			next.series[k] = v
		}
		for _, t := range byShard[sid] {
			cat := t.CatalogNumber
			series := next.series[cat]
			i := sort.Search(len(series), func(i int) bool { return !series[i].Epoch.Before(t.Epoch) })
			if i < len(series) && series[i].Epoch.Equal(t.Epoch) {
				metricCatalogDupes.Inc()
				continue
			}
			// Clone before insert: the old slice may be shared with readers.
			merged := make([]*tle.TLE, 0, len(series)+1)
			merged = append(merged, series[:i]...)
			merged = append(merged, t)
			merged = append(merged, series[i:]...)
			next.series[cat] = merged
			newCats[cat] = true
			applied++
		}
		c.shards[sid].Store(next)
	}
	metricCatalogApplied.Add(int64(applied))
	if applied == 0 {
		return 0
	}

	// Publish the new group index: merged membership, bumped version.
	oldGS := c.groups.Load()
	nextGS := &groupState{byName: make(map[string]*groupMeta, len(oldGS.byName)+1)}
	for k, v := range oldGS.byName {
		nextGS.byName[k] = v
	}
	old := nextGS.byName[group]
	meta := &groupMeta{version: 1, lastMod: at}
	if old != nil {
		meta.version = old.version + 1
		meta.cats = old.cats
	}
	added := make([]int, 0, len(newCats))
	for cat := range newCats {
		added = append(added, cat)
	}
	sort.Ints(added)
	cats := append([]int(nil), meta.cats...)
	for _, cat := range added {
		i := sort.SearchInts(cats, cat)
		if i < len(cats) && cats[i] == cat {
			continue
		}
		cats = append(cats, 0)
		copy(cats[i+1:], cats[i:])
		cats[i] = cat
	}
	meta.cats = cats
	nextGS.byName[group] = meta
	names := make([]string, 0, len(nextGS.byName))
	for name := range nextGS.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	nextGS.names = names
	c.groups.Store(nextGS)
	return applied
}

// DeltaSets reports how many ingested element sets the delta currently
// holds, summed across shards — a cheap consistency probe for tests and the
// load harness ("zero dropped ingests").
func (c *Catalog) DeltaSets() int {
	n := 0
	for i := range c.shards {
		for _, series := range c.shards[i].Load().series {
			n += len(series)
		}
	}
	return n
}

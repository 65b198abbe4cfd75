// Package spacetrack simulates the two public tracking services CosmicDance
// ingests from — CelesTrak (current catalog by group) and Space-Track
// (historical element sets per object) — as an in-process HTTP service plus a
// production-grade client (rate-limit aware, context-driven, incrementally
// caching). The paper's pipeline fetches current TLEs to learn catalog
// numbers once, then pulls per-object history incrementally; the client here
// exposes exactly that workflow.
package spacetrack

import (
	"sort"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/tle"
)

// Archive is what a Server serves: exactly the Catalog's methods. It is an
// interface so that a wrapper can stand in for a Catalog, as the
// benchmark's timing wrapper and the tests' fakes do.
type Archive interface {
	// Groups lists the constellation group names served, sorted.
	Groups() []string
	// GroupLatest returns the latest element set of every object in the
	// group as of time at (objects with no observations yet are omitted),
	// ordered by catalog number.
	GroupLatest(group string, at time.Time) []*tle.TLE
	// GroupVersion returns the group's monotonically increasing version and
	// the service-clock instant of its last mutation, the inputs of the
	// conditional-fetch validators (ETag / Last-Modified). ok is false for
	// unknown groups.
	GroupVersion(group string) (version uint64, lastMod time.Time, ok bool)
	// HistoryEach calls yield for each element set of catalog with epoch in
	// [from, to], ascending. A yield error aborts the walk and is returned.
	HistoryEach(catalog int, from, to time.Time, yield func(*tle.TLE) error) error
	// Ingest merges sets into group at service time at and returns how many
	// (catalog, epoch) pairs were new.
	Ingest(group string, sets []*tle.TLE, at time.Time) int
}

// ResultArchive indexes a constellation simulation result: the immutable
// boot tier a Catalog overlays with ingested sets.
type ResultArchive struct {
	group  string
	names  map[int]string
	series map[int][]constellation.Sample // ascending epochs
	cats   []int
}

// NewResultArchive indexes a simulation result under the given group name
// (e.g. "starlink").
func NewResultArchive(group string, res *constellation.Result) *ResultArchive {
	a := &ResultArchive{
		group:  group,
		names:  make(map[int]string, len(res.Sats)),
		series: make(map[int][]constellation.Sample),
	}
	for i := range res.Sats {
		a.names[res.Sats[i].Catalog] = res.Sats[i].Name
	}
	for _, ss := range res.GroupByCatalog() {
		a.series[ss.Catalog] = ss.Samples
		a.cats = append(a.cats, ss.Catalog)
	}
	sort.Ints(a.cats)
	return a
}

// Groups lists the one group the result is indexed under.
func (a *ResultArchive) Groups() []string { return []string{a.group} }

// GroupLatest returns each satellite's latest set with epoch not after at,
// ordered by catalog number.
func (a *ResultArchive) GroupLatest(group string, at time.Time) []*tle.TLE {
	if group != a.group {
		return nil
	}
	cutoff := at.Unix()
	out := make([]*tle.TLE, 0, len(a.cats))
	for _, cat := range a.cats {
		samples := a.series[cat]
		i := sort.Search(len(samples), func(i int) bool { return samples[i].Epoch > cutoff })
		if i == 0 {
			continue
		}
		t, err := samples[i-1].TLE(a.names[cat])
		if err != nil {
			continue
		}
		out = append(out, t)
	}
	return out
}

// History returns the sets of one satellite with epochs in [from, to],
// ascending.
func (a *ResultArchive) History(catalog int, from, to time.Time) []*tle.TLE {
	samples := a.series[catalog]
	lo := sort.Search(len(samples), func(i int) bool { return samples[i].Epoch >= from.Unix() })
	hi := sort.Search(len(samples), func(i int) bool { return samples[i].Epoch > to.Unix() })
	if lo >= hi {
		return nil
	}
	out := make([]*tle.TLE, 0, hi-lo)
	for _, s := range samples[lo:hi] {
		t, err := s.TLE(a.names[catalog])
		if err != nil {
			continue
		}
		out = append(out, t)
	}
	return out
}

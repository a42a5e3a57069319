package locate

import (
	"context"

	"coremap/internal/cmerr"
	"coremap/internal/memo"
	"coremap/internal/mesh"
	"coremap/internal/obs"
)

// Cache memoizes reconstructions by the canonical fingerprint of their
// input. Survey workloads are its reason to exist: the paper's Table II
// shows a 100-instance survey of one SKU collapses to a handful of
// distinct core-location patterns, so with a shared Cache a survey pays
// for one ILP solve per distinct pattern instead of one per instance —
// the cache hit rate mirrors Table II's distinct-pattern counts.
//
// The cache is safe for concurrent use and single-flight: when N survey
// goroutines miss on the same fingerprint at once, exactly one solves and
// the rest wait for its result (counted as coalesced in Stats).
type Cache struct {
	g *memo.Group
}

// NewCache returns an empty reconstruction cache. Entries are never
// evicted: one entry per distinct pattern is small, and surveys are
// bounded.
func NewCache() *Cache { return &Cache{g: memo.NewGroup()} }

// Stats returns the hit/miss/coalesced counters.
func (c *Cache) Stats() memo.Stats { return c.g.Stats() }

// Len returns the number of distinct problems cached so far.
func (c *Cache) Len() int { return c.g.Len() }

// Register wires the cache counters into reg under locate/cache/*.
// No-op on a nil cache or registry; an exact-duplicate registration is
// reported by the registry.
func (c *Cache) Register(reg *obs.Registry) error {
	if c == nil {
		return nil
	}
	return c.g.Register(reg, "locate/cache")
}

// reconstruct is the cached version of Reconstruct's solve path. The
// cached Map is private to the cache; every caller gets a clone so later
// mutation cannot poison other hits.
//
// Interrupted solves are never cached: how far a cancelled search got is a
// property of that run's deadline, not of the fingerprinted input, so the
// entry is forgotten and the best-effort incumbent (when one exists) is
// handed only to the caller that ran the computation.
func (c *Cache) reconstruct(ctx context.Context, in Input, opts Options) (*Map, error) {
	key := Fingerprint(in, opts)
	var partial *Map
	v, err := c.g.Do(key, func() (any, error) {
		m, err := reconstruct(ctx, in, opts)
		if err != nil {
			partial = m
			return nil, err
		}
		return m, nil
	})
	if err != nil {
		if cmerr.IsInterrupted(err) {
			c.g.Forget(key)
		}
		return partial, err
	}
	return v.(*Map).clone(), nil
}

// clone returns a deep copy of the map.
func (m *Map) clone() *Map {
	out := *m
	out.Pos = append([]mesh.Coord(nil), m.Pos...)
	return &out
}

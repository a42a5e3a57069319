package probe

import (
	"context"
	"reflect"
	"testing"

	"coremap/internal/machine"
)

func newCachedProber(t *testing.T, m *machine.Machine, c *ResultCache) *Prober {
	t.Helper()
	p, err := New(m, Options{Seed: 1, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestResultCacheRunWith pins the core contract: two probers measuring the
// same chip through one cache compute once and observe identical results,
// and the second caller's copy is private.
func TestResultCacheRunWith(t *testing.T) {
	m := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 7})
	c := NewResultCache()
	ro := RunOptions{SliceSources: true}

	first, err := newCachedProber(t, m, c).RunWith(context.Background(), ro)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := c.Stats()
	if afterFirst.Hits != 0 {
		t.Fatalf("first run recorded %d hits, want 0", afterFirst.Hits)
	}

	second, err := newCachedProber(t, m, c).RunWith(context.Background(), ro)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached result differs from computed result")
	}
	d := c.Stats().Sub(afterFirst)
	if d.Hits == 0 || d.Misses != 0 {
		t.Fatalf("second run stats delta = %+v, want hits>0 and no misses", d)
	}

	// Mutating a returned result must not poison the cache.
	second.OSToCHA[0] = -99
	second.Observations[0].Up = append(second.Observations[0].Up, 1234)
	third, err := newCachedProber(t, m, c).RunWith(context.Background(), ro)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatal("mutation of a cached copy leaked into the cache")
	}
}

// TestResultCacheStep1Restore checks that a step-1 cache hit restores the
// prober's internal state well enough that traffic experiments still run.
func TestResultCacheStep1Restore(t *testing.T) {
	m := machine.Generate(machine.SKU8259CL, 0, machine.Config{Seed: 8})
	c := NewResultCache()

	p1 := newCachedProber(t, m, c)
	mapping1, err := p1.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	p2 := newCachedProber(t, m, c)
	mapping2, err := p2.MapCoresToCHAs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mapping1, mapping2) {
		t.Fatalf("cached mapping %v differs from computed %v", mapping2, mapping1)
	}
	if c.Stats().Hits == 0 {
		t.Fatal("second MapCoresToCHAs did not hit the cache")
	}

	// p2 never built eviction sets itself; the restored state must carry
	// them, or this traffic experiment cannot find a line homed at the
	// sink CHA.
	p2.bind(context.Background())
	obs, err := p2.measureTraffic(0, 1, mapping2[0], mapping2[1])
	if err != nil {
		t.Fatalf("traffic experiment after step-1 cache hit: %v", err)
	}
	if len(obs.Up)+len(obs.Down)+len(obs.Horz) == 0 {
		t.Fatal("traffic experiment after cache hit observed nothing")
	}
}

// TestResultCacheKeyedByChipAndOptions: different chips, different option
// sets and different run options must all occupy distinct cache entries.
func TestResultCacheKeyedByChipAndOptions(t *testing.T) {
	c := NewResultCache()
	// Distinct chips carry distinct PPINs, which the simulator derives
	// from the instance seed.
	m0 := machine.Generate(machine.SKU8124M, 0, machine.Config{Seed: 9})
	m1 := machine.Generate(machine.SKU8124M, 1, machine.Config{Seed: 10})

	if _, err := newCachedProber(t, m0, c).RunWith(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := newCachedProber(t, m1, c).RunWith(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Hits; got != 0 {
		t.Fatalf("distinct chips shared a cache entry (%d hits)", got)
	}

	// Same chip, different run options → new full-result entry (the
	// step-1 layer legitimately hits: the measurement options match).
	before := c.Stats()
	if _, err := newCachedProber(t, m0, c).RunWith(context.Background(), RunOptions{SliceSources: true}); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().Sub(before); d.Misses != 1 {
		t.Fatalf("different RunOptions should miss the full layer once, got %+v", d)
	}

	// Same chip, different measurement seed → both layers miss.
	before = c.Stats()
	p, err := New(m0, Options{Seed: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunWith(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().Sub(before); d.Hits != 0 || d.Misses != 2 {
		t.Fatalf("different Options.Seed should miss both layers, got %+v", d)
	}
}

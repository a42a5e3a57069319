package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"coremap/internal/machine"
)

// TestSurveyCacheInvariance is the survey-level correctness pin: a cached
// and an uncached survey of the same population must produce identical
// results, instance by instance.
func TestSurveyCacheInvariance(t *testing.T) {
	const n = 6
	cached, err := survey(context.Background(), machine.SKU8259CL, n, Config{Seed: 5, Caches: NewCaches()})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := survey(context.Background(), machine.SKU8259CL, n, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if cached[i].Result.PPIN != plain[i].Result.PPIN {
			t.Fatalf("instance %d: PPIN differs", i)
		}
		if !reflect.DeepEqual(cached[i].Result.OSToCHA, plain[i].Result.OSToCHA) {
			t.Errorf("instance %d: OS→CHA mapping differs with cache", i)
		}
		if !reflect.DeepEqual(cached[i].Result.Pos, plain[i].Result.Pos) {
			t.Errorf("instance %d: reconstructed map differs with cache", i)
		}
	}
}

// TestSurveyCacheReuse: re-surveying the same population through a shared
// cache set must hit the probe layer on every instance — the second survey
// does no measurement work at all.
func TestSurveyCacheReuse(t *testing.T) {
	const n = 5
	caches := NewCaches()
	cfg := Config{Seed: 6, Caches: caches}
	first, err := survey(context.Background(), machine.SKU8175M, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := caches.Stats()
	second, err := survey(context.Background(), machine.SKU8175M, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := caches.Stats().Sub(afterFirst)
	if d.Probe.Hits < n {
		t.Errorf("re-survey hit the probe cache %d times, want ≥%d", d.Probe.Hits, n)
	}
	if d.Probe.Misses != 0 {
		t.Errorf("re-survey missed the probe cache %d times, want 0", d.Probe.Misses)
	}
	for i := range first {
		if !reflect.DeepEqual(first[i].Result.Pos, second[i].Result.Pos) {
			t.Fatalf("instance %d: re-survey changed the map", i)
		}
	}
}

// TestSurveyLocateCacheMirrorsPatterns: within one survey, the locate
// layer solves once per distinct observed pattern — the Table II link.
// Instances sharing a fusing pattern produce identical observations, so
// solves == unique patterns and hits+coalesced == the rest. Only solves
// go through the cache, so the property is checked on an exhaustive
// (NoPlan) survey; a planned survey picks every map from its planner's
// survivors and must leave the cache untouched.
func TestSurveyLocateCacheMirrorsPatterns(t *testing.T) {
	const n = 12
	planned := NewCaches()
	if _, err := survey(context.Background(), machine.SKU8175M, n, Config{Seed: 7, Caches: planned}); err != nil {
		t.Fatal(err)
	}
	if st := planned.Stats().Locate; st.Total() != 0 {
		t.Errorf("planned survey looked up the locate cache %d times, want 0 (every map picked)", st.Total())
	}

	caches := NewCaches()
	insts, err := survey(context.Background(), machine.SKU8175M, n, Config{Seed: 7, Caches: caches, NoPlan: true})
	if err != nil {
		t.Fatal(err)
	}
	unique := map[string]bool{}
	for _, in := range insts {
		unique[in.Result.PatternKey()] = true
	}
	st := caches.Stats().Locate
	if int(st.Misses) != len(unique) {
		t.Errorf("locate cache solved %d times for %d unique patterns", st.Misses, len(unique))
	}
	if int(st.Hits+st.Coalesced) != n-len(unique) {
		t.Errorf("locate cache reused %d results, want %d", st.Hits+st.Coalesced, n-len(unique))
	}
}

// TestTableOutputCacheInvariant: the printed tables are byte-identical
// with and without caching once the "[cache]" statistic lines are
// filtered — the property the CI cache-invariance job diffs for.
func TestTableOutputCacheInvariant(t *testing.T) {
	run := func(noCache bool) string {
		var buf bytes.Buffer
		if _, err := Table1(context.Background(), Config{Out: &buf, Instances: 6, Seed: 9, NoCache: noCache}); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "[cache]") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	cached, plain := run(false), run(true)
	if cached != plain {
		t.Errorf("filtered table output differs with cache:\n--- cached ---\n%s\n--- uncached ---\n%s", cached, plain)
	}
}

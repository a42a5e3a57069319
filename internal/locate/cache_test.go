package locate

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"coremap/internal/mesh"
	"coremap/internal/route"
)

func testInput(rows, cols int) (Input, []mesh.Coord) {
	g, tiles := fullGrid(rows, cols)
	return Input{
		NumCHA:       len(tiles),
		Rows:         rows,
		Cols:         cols,
		Observations: syntheticObservations(g, tiles),
	}, tiles
}

// TestCacheMatchesUncached: a cached reconstruction must return exactly
// the map an uncached one does.
func TestCacheMatchesUncached(t *testing.T) {
	in, _ := testInput(3, 3)
	plain, err := Reconstruct(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Reconstruct(context.Background(), in, Options{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("cached map differs from uncached:\n%+v\n%+v", cached, plain)
	}
}

// TestCacheSingleFlight: concurrent reconstructions of one input through a
// shared cache must solve exactly once, and every caller must get a
// private copy of the map.
func TestCacheSingleFlight(t *testing.T) {
	in, _ := testInput(3, 3)
	c := NewCache()
	const n = 16
	maps := make([]*Map, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			maps[i], errs[i] = Reconstruct(context.Background(), in, Options{Cache: c})
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(maps[0], maps[i]) {
			t.Fatalf("goroutine %d got a different map", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single flight)", st.Misses)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Errorf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, n-1)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}

	// Clones are private: corrupting one caller's map must not reach the
	// cache.
	maps[0].Pos[0] = mesh.Coord{Row: -42, Col: -42}
	again, err := Reconstruct(context.Background(), in, Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, maps[1]) {
		t.Fatal("mutation of a returned map leaked into the cache")
	}
}

// TestFingerprintObservationOrderInvariant: the fingerprint is a content
// address, so a permutation of the observation list — which cannot change
// the reconstructed map — must hash identically.
func TestFingerprintObservationOrderInvariant(t *testing.T) {
	in, _ := testInput(3, 4)
	fp := Fingerprint(in, Options{})
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		perm := Input{
			NumCHA: in.NumCHA,
			Rows:   in.Rows,
			Cols:   in.Cols,
			Observations: append([]route.Observation(nil),
				in.Observations...),
		}
		r.Shuffle(len(perm.Observations), func(i, j int) {
			perm.Observations[i], perm.Observations[j] = perm.Observations[j], perm.Observations[i]
		})
		if Fingerprint(perm, Options{}) != fp {
			t.Fatalf("trial %d: permuted observations changed the fingerprint", trial)
		}
	}
}

// TestReconstructObservationOrderInvariant: the map itself — not just the
// fingerprint — must be invariant under observation reordering, otherwise
// the sorted fingerprint would serve one ordering's result for another.
// (This leans on the pick's tie-break being the lexicographic order of
// Pos, not the enumeration's discovery order.)
func TestReconstructObservationOrderInvariant(t *testing.T) {
	// An unanchored 4×4 subset has a genuine mirror tie, which is exactly
	// where ordering sensitivity would surface.
	r := rand.New(rand.NewSource(31))
	const rows, cols = 4, 4
	g := mesh.NewGrid(rows, cols)
	var tiles []mesh.Coord
	id := 0
	g.Tiles(func(c mesh.Coord, tl *mesh.Tile) {
		if r.Intn(4) == 0 {
			return
		}
		tl.Kind = mesh.KindCore
		tl.CHA = id
		id++
		tiles = append(tiles, c)
	})
	in := Input{NumCHA: len(tiles), Rows: rows, Cols: cols,
		Observations: syntheticObservations(g, tiles)}
	base, err := Reconstruct(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		perm := in
		perm.Observations = append([]route.Observation(nil), in.Observations...)
		r.Shuffle(len(perm.Observations), func(i, j int) {
			perm.Observations[i], perm.Observations[j] = perm.Observations[j], perm.Observations[i]
		})
		got, err := Reconstruct(context.Background(), perm, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Pos, got.Pos) {
			t.Fatalf("trial %d: reordered observations changed the map\nbase: %v\ngot:  %v",
				trial, base.Pos, got.Pos)
		}
	}
}

// TestFingerprintWorkersExcluded: Workers is ignored, so it must not
// split the cache.
func TestFingerprintWorkersExcluded(t *testing.T) {
	in, _ := testInput(3, 3)
	if Fingerprint(in, Options{Workers: 1}) != Fingerprint(in, Options{Workers: 8}) {
		t.Fatal("Workers changed the fingerprint")
	}
}

// TestFingerprintSensitivity: every input or option change that can alter
// the reconstruction must change the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	in, _ := testInput(3, 3)
	base := Fingerprint(in, Options{})

	mutations := map[string]func() (Input, Options){
		"rows": func() (Input, Options) {
			m := in
			m.Rows++
			return m, Options{}
		},
		"cols": func() (Input, Options) {
			m := in
			m.Cols++
			return m, Options{}
		},
		"numCHA": func() (Input, Options) {
			m := in
			m.NumCHA++
			return m, Options{}
		},
		"observation": func() (Input, Options) {
			m := in
			m.Observations = append([]route.Observation(nil), m.Observations...)
			m.Observations[0].Up = append([]int{0}, m.Observations[0].Up...)
			return m, Options{}
		},
		"paperBounds": func() (Input, Options) { return in, Options{PaperExactBounds: true} },
	}
	for name, mut := range mutations {
		m, o := mut()
		if Fingerprint(m, o) == base {
			t.Errorf("%s: mutation did not change the fingerprint", name)
		}
	}
}

// TestFingerprintAnchorsByPosition: anchored observations are addressed by
// the IMC's die coordinate, not its index, so an unused trailing entry in
// IMCPositions is irrelevant while moving a referenced IMC is not.
func TestFingerprintAnchorsByPosition(t *testing.T) {
	in, _ := testInput(3, 3)
	in.Observations = append(in.Observations, route.Observation{
		SrcCHA: -1, DstCHA: 0, Anchored: true, SrcIMC: 0,
		Down: []int{0},
	})
	in.IMCPositions = []mesh.Coord{{Row: 0, Col: 1}}
	base := Fingerprint(in, Options{})

	padded := in
	padded.IMCPositions = append(append([]mesh.Coord(nil), in.IMCPositions...),
		mesh.Coord{Row: 2, Col: 2})
	if Fingerprint(padded, Options{}) != base {
		t.Error("unreferenced IMC position changed the fingerprint")
	}

	moved := in
	moved.IMCPositions = []mesh.Coord{{Row: 0, Col: 2}}
	if Fingerprint(moved, Options{}) == base {
		t.Error("moving a referenced IMC did not change the fingerprint")
	}
}

// TestCacheCachesErrors: deterministic failures are results too; a second
// caller must get the cached error without re-enumerating.
func TestCacheCachesErrors(t *testing.T) {
	// Two tiles forced into mutual contradiction: each strictly above the
	// other.
	in := Input{
		NumCHA: 2, Rows: 2, Cols: 2,
		Observations: []route.Observation{
			{SrcCHA: 0, DstCHA: 1, Up: []int{1}},
			{SrcCHA: 1, DstCHA: 0, Up: []int{0}},
		},
	}
	c := NewCache()
	_, err1 := Reconstruct(context.Background(), in, Options{Cache: c})
	if err1 == nil {
		t.Fatal("contradictory observations reconstructed successfully")
	}
	_, err2 := Reconstruct(context.Background(), in, Options{Cache: c})
	if err2 == nil || c.Stats().Hits != 1 {
		t.Fatalf("error not served from cache (err=%v, stats=%+v)", err2, c.Stats())
	}
}

package locate

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"coremap/internal/cmerr"
	"coremap/internal/mesh"
	"coremap/internal/route"
)

func TestNormalizeAndMirror(t *testing.T) {
	pos := []mesh.Coord{{Row: 2, Col: 3}, {Row: 4, Col: 1}}
	n := normalize(pos)
	if n[0] != (mesh.Coord{Row: 0, Col: 2}) || n[1] != (mesh.Coord{Row: 2, Col: 0}) {
		t.Errorf("normalize = %v", n)
	}
	mm := mirror(n)
	if mm[0] != (mesh.Coord{Row: 0, Col: 0}) || mm[1] != (mesh.Coord{Row: 2, Col: 2}) {
		t.Errorf("mirror = %v", mm)
	}
	if normalize(nil) != nil {
		t.Error("normalize(nil) != nil")
	}
}

func TestCanonicalInvariances(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		pos := make([]mesh.Coord, n)
		for i := range pos {
			pos[i] = mesh.Coord{Row: r.Intn(5), Col: r.Intn(6)}
		}
		// Canonical must be idempotent.
		c1 := Canonical(pos)
		c2 := Canonical(c1)
		for i := range c1 {
			if c1[i] != c2[i] {
				return false
			}
		}
		// Translation invariance.
		shifted := make([]mesh.Coord, n)
		dr, dc := r.Intn(3), r.Intn(3)
		for i := range pos {
			shifted[i] = mesh.Coord{Row: pos[i].Row + dr, Col: pos[i].Col + dc}
		}
		if !Equivalent(pos, shifted) {
			return false
		}
		// Mirror invariance.
		return Equivalent(pos, mirror(pos))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Error(err)
	}
}

func TestScoreSelf(t *testing.T) {
	pos := []mesh.Coord{{Row: 0, Col: 0}, {Row: 1, Col: 2}, {Row: 3, Col: 1}}
	if exact, n := Score(pos, pos); !exact || n != 3 {
		t.Errorf("Score(self) = %v,%d", exact, n)
	}
	if rs := RelativeScore(pos, pos); rs != 1.0 {
		t.Errorf("RelativeScore(self) = %v", rs)
	}
	if rs := RelativeScore(mirror(pos), pos); rs != 1.0 {
		t.Errorf("RelativeScore(mirror) = %v", rs)
	}
}

func TestScoreDetectsMismatch(t *testing.T) {
	a := []mesh.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 1, Col: 0}}
	b := []mesh.Coord{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 0, Col: 1}}
	if exact, _ := Score(a, b); exact {
		t.Error("different maps scored exact")
	}
	if Equivalent(a, b) {
		t.Error("different maps reported equivalent")
	}
	if _, n := Score(a, []mesh.Coord{{Row: 0, Col: 0}}); n != 0 {
		t.Error("length mismatch not rejected")
	}
}

// syntheticObservations builds ground-truth observations for every ordered
// pair of active tiles on a grid, seen through the partial-observability
// rules (only active-CHA tiles report ingress).
func syntheticObservations(g *mesh.Grid, tiles []mesh.Coord) []route.Observation {
	var obs []route.Observation
	for s := range tiles {
		for e := range tiles {
			if s == e {
				continue
			}
			o := route.Observation{SrcCHA: s, DstCHA: e}
			for _, h := range g.Route(tiles[s], tiles[e]) {
				tl := g.Tile(h.To)
				if !tl.Kind.HasCHA() {
					continue
				}
				switch {
				case h.Ch == mesh.Up:
					o.Up = append(o.Up, tl.CHA)
				case h.Ch == mesh.Down:
					o.Down = append(o.Down, tl.CHA)
				default:
					o.Horz = append(o.Horz, tl.CHA)
				}
			}
			obs = append(obs, o)
		}
	}
	return obs
}

func fullGrid(rows, cols int) (*mesh.Grid, []mesh.Coord) {
	g := mesh.NewGrid(rows, cols)
	var tiles []mesh.Coord
	id := 0
	g.Tiles(func(c mesh.Coord, tl *mesh.Tile) {
		tl.Kind = mesh.KindCore
		tl.CHA = id
		id++
		tiles = append(tiles, c)
	})
	return g, tiles
}

func TestReconstructFullGridExact(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {3, 3}, {2, 4}, {4, 3}} {
		g, tiles := fullGrid(sz[0], sz[1])
		mp, err := Reconstruct(context.Background(), Input{
			NumCHA:       len(tiles),
			Rows:         sz[0],
			Cols:         sz[1],
			Observations: syntheticObservations(g, tiles),
		}, Options{})
		if err != nil {
			t.Fatalf("%dx%d: %v", sz[0], sz[1], err)
		}
		if exact, n := Score(mp.Pos, tiles); !exact {
			t.Errorf("%dx%d: not exact (%d/%d)", sz[0], sz[1], n, len(tiles))
		}
		if !mp.Optimal {
			t.Errorf("%dx%d: optimality not proven", sz[0], sz[1])
		}
	}
}

// TestReconstructRandomActiveSubsets: random subsets of a grid with every
// active tile able to host traffic. The reconstruction must always succeed
// and stay close to the true relative ordering; perfect order recovery is
// not guaranteed because disabled tiles genuinely hide some row/column
// separations (paper Sec. II-B/II-D).
func TestReconstructRandomActiveSubsets(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const rows, cols = 4, 4
		g := mesh.NewGrid(rows, cols)
		var tiles []mesh.Coord
		id := 0
		g.Tiles(func(c mesh.Coord, tl *mesh.Tile) {
			if r.Intn(4) == 0 { // ~25% disabled
				return
			}
			tl.Kind = mesh.KindCore
			tl.CHA = id
			id++
			tiles = append(tiles, c)
		})
		if len(tiles) < 3 {
			return true
		}
		mp, err := Reconstruct(context.Background(), Input{
			NumCHA:       len(tiles),
			Rows:         rows,
			Cols:         cols,
			Observations: syntheticObservations(g, tiles),
		}, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if rs := RelativeScore(mp.Pos, tiles); rs < 0.85 {
			t.Logf("seed %d: relative score %v\n got %v\n want %v", seed, rs, mp.Pos, tiles)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

func TestReconstructPaperBoundsAlsoRecover(t *testing.T) {
	g, tiles := fullGrid(3, 3)
	mp, err := Reconstruct(context.Background(), Input{
		NumCHA:       len(tiles),
		Rows:         3,
		Cols:         3,
		Observations: syntheticObservations(g, tiles),
	}, Options{PaperExactBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact, n := Score(mp.Pos, tiles); !exact {
		t.Errorf("paper bounds: not exact (%d/%d)", n, len(tiles))
	}
}

func TestReconstructUnsatisfiable(t *testing.T) {
	// Tile 2 claims to be strictly below tile 0 and strictly above it.
	obs := []route.Observation{
		{SrcCHA: 0, DstCHA: 1, Down: []int{2}},
		{SrcCHA: 2, DstCHA: 1, Down: []int{0}},
		{SrcCHA: 1, DstCHA: 0, Down: []int{2}},
	}
	_, err := Reconstruct(context.Background(), Input{NumCHA: 3, Rows: 2, Cols: 2, Observations: obs}, Options{})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestReconstructRejectsBadInput(t *testing.T) {
	if _, err := Reconstruct(context.Background(), Input{NumCHA: 0, Rows: 2, Cols: 2}, Options{}); err == nil {
		t.Error("zero CHAs accepted")
	}
	if _, err := Reconstruct(context.Background(), Input{NumCHA: 2, Rows: 0, Cols: 2}, Options{}); err == nil {
		t.Error("zero rows accepted")
	}

	// Every CHA index an observation carries must lie in [0, NumCHA);
	// the emitters index by them, so a stray one used to panic. The
	// check runs before the cache is consulted.
	for name, o := range map[string]route.Observation{
		"sink":       {SrcCHA: 0, DstCHA: 7, Up: []int{1}},
		"source":     {SrcCHA: -1, DstCHA: 1, Up: []int{1}},
		"up":         {SrcCHA: 0, DstCHA: 1, Up: []int{2}},
		"down":       {SrcCHA: 0, DstCHA: 1, Down: []int{-1}},
		"horz":       {SrcCHA: 0, DstCHA: 1, Horz: []int{1, 5}},
		"anchor-imc": {SrcCHA: -1, DstCHA: 1, Anchored: true, SrcIMC: 0, Up: []int{1}},
	} {
		in := Input{NumCHA: 2, Rows: 3, Cols: 3, Observations: []route.Observation{o}}
		for _, opts := range []Options{{}, {Cache: NewCache()}} {
			_, err := Reconstruct(context.Background(), in, opts)
			if !cmerr.IsPermanent(err) || errors.Is(err, ErrUnsatisfiable) {
				t.Errorf("%s (cache=%v): err = %v, want a Permanent input error", name, opts.Cache != nil, err)
			}
		}
		if err := Validate(in, make([]mesh.Coord, 2)); !cmerr.IsPermanent(err) {
			t.Errorf("%s: Validate err = %v, want a Permanent error", name, err)
		}
	}
}

func TestScoreAbsolute(t *testing.T) {
	a := []mesh.Coord{{Row: 1, Col: 1}, {Row: 2, Col: 1}}
	if exact, n := ScoreAbsolute(a, a); !exact || n != 2 {
		t.Errorf("self = %v,%d", exact, n)
	}
	// Translation is NOT forgiven in absolute scoring.
	b := []mesh.Coord{{Row: 0, Col: 0}, {Row: 1, Col: 0}}
	if exact, n := ScoreAbsolute(b, a); exact || n != 0 {
		t.Errorf("translated = %v,%d; absolute scoring must reject it", exact, n)
	}
	if _, n := ScoreAbsolute(a[:1], a); n != 0 {
		t.Error("length mismatch not rejected")
	}
}

// TestLazySeparationResolvesOverlaps: an under-constrained tile would
// collapse onto another under the packing objective; the lazy no-overlap
// rounds must pull them apart.
func TestLazySeparationResolvesOverlaps(t *testing.T) {
	// Tiles 0,1 vertically adjacent; tile 2 completely unobserved.
	obs := []route.Observation{
		{SrcCHA: 0, DstCHA: 1, Down: []int{1}},
		{SrcCHA: 1, DstCHA: 0, Up: []int{0}},
	}
	mp, err := Reconstruct(context.Background(), Input{NumCHA: 3, Rows: 3, Cols: 3, Observations: obs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[mesh.Coord]bool{}
	for _, c := range mp.Pos {
		if seen[c] {
			t.Fatalf("tiles overlap at %v: %v", c, mp.Pos)
		}
		seen[c] = true
	}
	if mp.SeparationRounds == 0 {
		t.Error("expected at least one lazy separation round for the unconstrained tile")
	}
}

// TestAnchoredSyntheticReconstruction: anchored observations with a known
// source position must pin absolute coordinates on a synthetic grid.
func TestAnchoredSyntheticReconstruction(t *testing.T) {
	// IMC at (1,0); tiles 0 and 1 at (0,0) and (2,0): traffic from the
	// IMC reaches tile 0 through an up channel and tile 1 through down.
	imc := []mesh.Coord{{Row: 1, Col: 0}}
	obs := []route.Observation{
		{SrcCHA: -1, DstCHA: 0, Anchored: true, SrcIMC: 0, Up: []int{0}},
		{SrcCHA: -1, DstCHA: 1, Anchored: true, SrcIMC: 0, Down: []int{1}},
	}
	mp, err := Reconstruct(context.Background(), Input{NumCHA: 2, Rows: 3, Cols: 3, Observations: obs, IMCPositions: imc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mp.Anchored {
		t.Error("map not marked anchored")
	}
	if mp.Pos[0] != (mesh.Coord{Row: 0, Col: 0}) {
		t.Errorf("tile 0 at %v, want (0,0) absolutely", mp.Pos[0])
	}
	if mp.Pos[1] != (mesh.Coord{Row: 2, Col: 0}) {
		t.Errorf("tile 1 at %v, want (2,0) absolutely", mp.Pos[1])
	}
}

func TestVerticalPairMinimalObservation(t *testing.T) {
	// One observation — 1 down-hop — must separate the two tiles
	// vertically with the source above the sink.
	obs := []route.Observation{{SrcCHA: 0, DstCHA: 1, Down: []int{1}}}
	mp, err := Reconstruct(context.Background(), Input{NumCHA: 2, Rows: 3, Cols: 3, Observations: obs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Pos[0].Col != mp.Pos[1].Col {
		t.Errorf("vertical pair not column-aligned: %v", mp.Pos)
	}
	if mp.Pos[0].Row >= mp.Pos[1].Row {
		t.Errorf("down observation did not order rows: %v", mp.Pos)
	}
}

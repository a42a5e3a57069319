package mesh_test

import (
	"testing"

	"coremap/internal/mesh"
)

// Router edge cases: a zero-length flow charges nothing, degenerate
// one-row and one-column grids still route, and lookups on an empty
// grid report absence instead of inventing a tile.

// TestRouteSelf: src == dst is a legal route of zero hops, and injecting
// it charges no counter anywhere.
func TestRouteSelf(t *testing.T) {
	g := mesh.NewGrid(3, 4)
	c := mesh.Coord{Row: 1, Col: 2}
	if hops := g.Route(c, c); len(hops) != 0 {
		t.Errorf("Route(self) = %v, want empty", hops)
	}
	g.Inject(c, c, 100)
	total := uint64(0)
	g.Tiles(func(_ mesh.Coord, tile *mesh.Tile) {
		for ring := mesh.Ring(0); ring < 4; ring++ {
			for _, v := range tile.Counters.RingIngress(ring) {
				total += v
			}
		}
	})
	if total != 0 {
		t.Errorf("Inject(self) charged %d flits", total)
	}
}

// TestRouteSingleRow: a 1×N grid routes purely horizontally, with the
// odd-column mirroring alternating the ingress label per hop.
func TestRouteSingleRow(t *testing.T) {
	g := mesh.NewGrid(1, 5)
	hops := g.Route(mesh.Coord{Row: 0, Col: 0}, mesh.Coord{Row: 0, Col: 4})
	if len(hops) != 4 {
		t.Fatalf("route has %d hops, want 4", len(hops))
	}
	for i, h := range hops {
		if h.To.Row != 0 || h.To.Col != i+1 {
			t.Errorf("hop %d lands at %v", i, h.To)
		}
		if h.Ch.Vertical() {
			t.Errorf("hop %d uses vertical channel %v on a one-row grid", i, h.Ch)
		}
		if i > 0 && h.Ch == hops[i-1].Ch {
			t.Errorf("hops %d and %d share label %v; mirroring should alternate them", i-1, i, h.Ch)
		}
	}
}

// TestRouteSingleColumn: an N×1 grid routes purely vertically with true
// direction labels.
func TestRouteSingleColumn(t *testing.T) {
	g := mesh.NewGrid(5, 1)
	down := g.Route(mesh.Coord{Row: 0, Col: 0}, mesh.Coord{Row: 4, Col: 0})
	if len(down) != 4 {
		t.Fatalf("route has %d hops, want 4", len(down))
	}
	for i, h := range down {
		if h.Ch != mesh.Down {
			t.Errorf("southbound hop %d labelled %v", i, h.Ch)
		}
	}
	up := g.Route(mesh.Coord{Row: 4, Col: 0}, mesh.Coord{Row: 1, Col: 0})
	for i, h := range up {
		if h.Ch != mesh.Up {
			t.Errorf("northbound hop %d labelled %v", i, h.Ch)
		}
	}
}

// TestRouteUnitGrid: the 1×1 grid has exactly one legal (empty) route.
func TestRouteUnitGrid(t *testing.T) {
	g := mesh.NewGrid(1, 1)
	if hops := g.Route(mesh.Coord{}, mesh.Coord{}); len(hops) != 0 {
		t.Errorf("unit grid route = %v", hops)
	}
}

// TestInjectMatchesRouteOnDegenerateGrids: the inlined InjectOn walk and
// Route must agree on which tiles see ingress, including the one-row and
// one-column shapes where only one routing phase runs.
func TestInjectMatchesRouteOnDegenerateGrids(t *testing.T) {
	shapes := []struct{ rows, cols int }{{1, 6}, {6, 1}, {2, 2}}
	for _, sh := range shapes {
		g := mesh.NewGrid(sh.rows, sh.cols)
		src := mesh.Coord{Row: 0, Col: 0}
		dst := mesh.Coord{Row: sh.rows - 1, Col: sh.cols - 1}
		g.Inject(src, dst, 1)
		want := map[mesh.Coord]mesh.Channel{}
		for _, h := range g.Route(src, dst) {
			want[h.To] = h.Ch
		}
		g.Tiles(func(c mesh.Coord, tile *mesh.Tile) {
			ing := tile.Counters.RingIngress(mesh.RingBL)
			for ch, v := range ing {
				if v == 0 {
					continue
				}
				if wch, ok := want[c]; !ok || wch != mesh.Channel(ch) {
					t.Errorf("%dx%d: tile %v charged %v, route says %v (present=%v)",
						sh.rows, sh.cols, c, mesh.Channel(ch), wch, ok)
				}
			}
		})
	}
}

// TestFindCHAEmpty: a grid with no CHAs reports absence for any ID.
func TestFindCHAEmpty(t *testing.T) {
	g := mesh.NewGrid(3, 3)
	for _, id := range []int{0, 1, -1, 7} {
		if c, ok := g.FindCHA(id); ok {
			t.Errorf("FindCHA(%d) = %v on an empty grid", id, c)
		}
	}
}

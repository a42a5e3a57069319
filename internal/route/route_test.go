package route

import (
	"testing"

	"coremap/internal/mesh"
)

func TestClassifyRoutes(t *testing.T) {
	src := mesh.Coord{Row: 2, Col: 1}
	dst := mesh.Coord{Row: 0, Col: 3}
	cases := []struct {
		t    mesh.Coord
		want Channel
	}{
		{mesh.Coord{Row: 1, Col: 1}, ChanUp},   // vertical segment
		{mesh.Coord{Row: 0, Col: 1}, ChanUp},   // corner tile is vertical
		{mesh.Coord{Row: 0, Col: 2}, ChanHorz}, // horizontal segment
		{mesh.Coord{Row: 0, Col: 3}, ChanHorz}, // destination tile
		{mesh.Coord{Row: 2, Col: 1}, ChanNone}, // source transmits, never receives
		{mesh.Coord{Row: 2, Col: 2}, ChanNone}, // off-route
		{mesh.Coord{Row: 1, Col: 3}, ChanNone}, // dst column, wrong row
		{mesh.Coord{Row: 0, Col: 0}, ChanNone}, // behind the turn
	}
	for _, c := range cases {
		if got := Classify(src, dst, c.t); got != c.want {
			t.Errorf("Classify(%v→%v, %v) = %d, want %d", src, dst, c.t, got, c.want)
		}
	}

	// Downward and westward mirror.
	src, dst = mesh.Coord{Row: 0, Col: 3}, mesh.Coord{Row: 2, Col: 1}
	if got := Classify(src, dst, mesh.Coord{Row: 1, Col: 3}); got != ChanDown {
		t.Errorf("down segment misclassified: %d", got)
	}
	if got := Classify(src, dst, mesh.Coord{Row: 2, Col: 3}); got != ChanDown {
		t.Errorf("corner on down route misclassified: %d", got)
	}
	if got := Classify(src, dst, mesh.Coord{Row: 2, Col: 2}); got != ChanHorz {
		t.Errorf("westward segment misclassified: %d", got)
	}

	// Pure vertical route: destination tile charges vertical.
	src, dst = mesh.Coord{Row: 3, Col: 0}, mesh.Coord{Row: 1, Col: 0}
	if got := Classify(src, dst, dst); got != ChanUp {
		t.Errorf("pure-vertical destination misclassified: %d", got)
	}
	// Zero-length route (CHA sharing the IMC tile): no observers.
	if got := Classify(src, src, src); got != ChanNone {
		t.Errorf("zero-length route should have no observers: %d", got)
	}
}

// TestChannelValuesPinned pins the Channel byte values the planner's
// predictKey encoding is built from. The planner only counts how many
// survivors share a key, so any distinct values give the same schedule;
// the pin keeps the encoding — and the key bytes its tests pin —
// stable, and makes a change to it a deliberate one.
func TestChannelValuesPinned(t *testing.T) {
	pins := []struct {
		ch   Channel
		want byte
	}{{ChanNone, 0}, {ChanUp, 1}, {ChanDown, 2}, {ChanHorz, 3}}
	for _, p := range pins {
		if byte(p.ch) != p.want {
			t.Errorf("channel byte drifted: %d != %d", p.ch, p.want)
		}
	}
}

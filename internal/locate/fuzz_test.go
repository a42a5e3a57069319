package locate

import (
	"reflect"
	"testing"

	"coremap/internal/mesh"
	"coremap/internal/route"
)

// bytesrc hands out fuzz input one small choice at a time; an exhausted
// input reads as zeros, so every byte string decodes to some case.
type bytesrc []byte

func (b *bytesrc) intn(n int) int {
	if len(*b) == 0 || n <= 1 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// FuzzCanonical checks the canonical form on random maps of up to eight
// tiles on grids up to 6×6: Canonical is idempotent, a translation or
// mirror that keeps the map on the grid leaves it unchanged, and
// Equivalent is equality of canonical forms.
func FuzzCanonical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 5, 3, 0, 1, 2, 3, 4, 5, 1, 1})
	f.Add([]byte{2, 3, 4, 9, 9, 2, 2, 7, 1, 0, 3, 3, 0, 1, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := bytesrc(data)
		rows, cols := 1+b.intn(6), 1+b.intn(6)
		place := func() []mesh.Coord {
			pos := make([]mesh.Coord, 1+b.intn(8))
			for i := range pos {
				pos[i] = mesh.Coord{Row: b.intn(rows), Col: b.intn(cols)}
			}
			return pos
		}
		pos := place()
		canon := Canonical(pos)
		if again := Canonical(canon); !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonical not idempotent on %v: %v then %v", pos, canon, again)
		}
		// A fuzzed shift that keeps the map on the grid.
		maxR, maxC := 0, 0
		for _, p := range pos {
			maxR, maxC = max(maxR, p.Row), max(maxC, p.Col)
		}
		dr, dc := b.intn(rows-maxR), b.intn(cols-maxC)
		moved := make([]mesh.Coord, len(pos))
		flipped := make([]mesh.Coord, len(pos))
		for i, p := range pos {
			moved[i] = mesh.Coord{Row: p.Row + dr, Col: p.Col + dc}
			flipped[i] = mesh.Coord{Row: p.Row, Col: cols - 1 - p.Col}
		}
		for _, q := range [][]mesh.Coord{moved, flipped} {
			if got := Canonical(q); !reflect.DeepEqual(got, canon) {
				t.Fatalf("map %v canonicalizes to %v, its translation or mirror %v to %v", pos, canon, q, got)
			}
			if !Equivalent(pos, q) {
				t.Fatalf("map %v not Equivalent to its translation or mirror %v", pos, q)
			}
		}
		other := place()
		same := len(other) == len(pos) && reflect.DeepEqual(Canonical(other), canon)
		if Equivalent(pos, other) != same {
			t.Fatalf("Equivalent(%v, %v) = %v, canonical forms equal: %v", pos, other, !same, same)
		}
	})
}

// FuzzFingerprintOrder checks the cache key on random inputs: permuting
// the observations keeps the Fingerprint, and changing any single field
// that takes part in the reconstruction changes it.
func FuzzFingerprintOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 4, 1, 0, 2, 1, 3, 0, 1, 2, 5, 1, 1, 7, 3, 0, 2, 9})
	f.Add([]byte{7, 4, 3, 0, 1, 1, 5, 2, 2, 1, 0, 6, 3, 1, 8, 2, 2, 0, 4, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := bytesrc(data)
		in := Input{NumCHA: 2 + b.intn(8), Rows: 1 + b.intn(6), Cols: 1 + b.intn(6)}
		for i := 1 + b.intn(3); i > 0; i-- {
			in.IMCPositions = append(in.IMCPositions, mesh.Coord{Row: b.intn(in.Rows), Col: b.intn(in.Cols)})
		}
		chas := func() []int {
			var s []int
			for i := b.intn(4); i > 0; i-- {
				s = append(s, b.intn(in.NumCHA))
			}
			return s
		}
		for i := 1 + b.intn(5); i > 0; i-- {
			o := route.Observation{SrcCHA: b.intn(in.NumCHA), DstCHA: b.intn(in.NumCHA)}
			if b.intn(2) == 1 {
				o.Anchored, o.SrcCHA, o.SrcIMC = true, -1, b.intn(len(in.IMCPositions))
			}
			o.Up, o.Down, o.Horz = chas(), chas(), chas()
			in.Observations = append(in.Observations, o)
		}
		opts := Options{PaperExactBounds: b.intn(2) == 1}
		key := Fingerprint(in, opts)

		perm := in
		perm.Observations = append([]route.Observation(nil), in.Observations...)
		for i := len(perm.Observations) - 1; i > 0; i-- {
			j := b.intn(i + 1)
			perm.Observations[i], perm.Observations[j] = perm.Observations[j], perm.Observations[i]
		}
		if Fingerprint(perm, opts) != key {
			t.Fatalf("permuting the observations changed the fingerprint: %+v vs %+v", in.Observations, perm.Observations)
		}

		// One mutation of each field, applied to a copy.
		i := b.intn(len(in.Observations))
		obsMut := func(edit func(o *route.Observation)) func(*Input, *Options) {
			return func(c *Input, _ *Options) {
				c.Observations = append([]route.Observation(nil), c.Observations...)
				o := &c.Observations[i]
				o.Up = append([]int(nil), o.Up...)
				o.Down = append([]int(nil), o.Down...)
				o.Horz = append([]int(nil), o.Horz...)
				edit(o)
			}
		}
		type mutation struct {
			field string
			apply func(*Input, *Options)
		}
		muts := []mutation{
			{"NumCHA", func(c *Input, _ *Options) { c.NumCHA++ }},
			{"Rows", func(c *Input, _ *Options) { c.Rows++ }},
			{"Cols", func(c *Input, _ *Options) { c.Cols++ }},
			{"PaperExactBounds", func(_ *Input, o *Options) { o.PaperExactBounds = !o.PaperExactBounds }},
			{"DstCHA", obsMut(func(o *route.Observation) { o.DstCHA++ })},
			{"Up", obsMut(func(o *route.Observation) { o.Up = append(o.Up, 0) })},
			{"Down", obsMut(func(o *route.Observation) { o.Down = append(o.Down, 0) })},
			{"Horz", obsMut(func(o *route.Observation) { o.Horz = append(o.Horz, 0) })},
			{"Anchored", obsMut(func(o *route.Observation) {
				o.Anchored = !o.Anchored
				o.SrcCHA, o.SrcIMC = 0, 0
			})},
		}
		if in.Observations[i].Anchored {
			// The fingerprint resolves the anchor to its die position.
			muts = append(muts, mutation{"IMCPositions", func(c *Input, _ *Options) {
				c.IMCPositions = append([]mesh.Coord(nil), c.IMCPositions...)
				c.IMCPositions[in.Observations[i].SrcIMC].Row += c.Rows
			}})
		} else {
			muts = append(muts, mutation{"SrcCHA", obsMut(func(o *route.Observation) { o.SrcCHA++ })})
		}
		for _, m := range muts {
			c, o := in, opts
			m.apply(&c, &o)
			if Fingerprint(c, o) == key {
				t.Fatalf("changing %s left the fingerprint unchanged: %+v", m.field, in)
			}
		}
	})
}

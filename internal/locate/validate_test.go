package locate

import (
	"context"
	"strings"
	"testing"

	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/probe"
	"coremap/internal/route"
)

func TestValidateAcceptsTruth(t *testing.T) {
	g, tiles := fullGrid(3, 4)
	in := Input{NumCHA: len(tiles), Rows: 3, Cols: 4, Observations: syntheticObservations(g, tiles)}
	if err := Validate(in, tiles); err != nil {
		t.Errorf("ground-truth placement rejected: %v", err)
	}
}

func TestValidateAcceptsReconstruction(t *testing.T) {
	g, tiles := fullGrid(3, 3)
	in := Input{NumCHA: len(tiles), Rows: 3, Cols: 3, Observations: syntheticObservations(g, tiles)}
	mp, err := Reconstruct(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, mp.Pos); err != nil {
		t.Errorf("reconstruction rejected by semantic validation: %v", err)
	}
}

func TestValidateRejectsWrongPlacements(t *testing.T) {
	obs := []route.Observation{{SrcCHA: 0, DstCHA: 1, Down: []int{1}}}
	in := Input{NumCHA: 2, Rows: 3, Cols: 3, Observations: obs}
	cases := []struct {
		name string
		pos  []mesh.Coord
		want string
	}{
		{"source below sink", []mesh.Coord{{Row: 2, Col: 0}, {Row: 0, Col: 0}}, "down observer"},
		{"columns differ", []mesh.Coord{{Row: 0, Col: 0}, {Row: 1, Col: 1}}, "not in source column"},
		{"wrong arity", []mesh.Coord{{Row: 0, Col: 0}}, "expected"},
	}
	for _, tc := range cases {
		err := Validate(in, tc.pos)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateHorizontalDirections(t *testing.T) {
	// Observer 1 between source 0 and sink 2, all on one row: valid in
	// one orientation, invalid when the observer is outside the span.
	obs := []route.Observation{{SrcCHA: 0, DstCHA: 2, Horz: []int{1, 2}}}
	in := Input{NumCHA: 3, Rows: 2, Cols: 4, Observations: obs}
	good := []mesh.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 0, Col: 2}}
	if err := Validate(in, good); err != nil {
		t.Errorf("eastbound placement rejected: %v", err)
	}
	mirrorGood := []mesh.Coord{{Row: 0, Col: 3}, {Row: 0, Col: 2}, {Row: 0, Col: 1}}
	if err := Validate(in, mirrorGood); err != nil {
		t.Errorf("westbound placement rejected: %v", err)
	}
	bad := []mesh.Coord{{Row: 0, Col: 1}, {Row: 0, Col: 0}, {Row: 0, Col: 2}}
	if err := Validate(in, bad); err == nil {
		t.Error("inconsistent horizontal placement accepted")
	}
}

// TestValidateRejectsObserverInSinkColumn: an intermediate horizontal
// observer lies strictly before the sink, as the ILP's east-dst/west-dst
// rows and the planner's survivor filter require; one in the sink's own
// column fits neither direction.
func TestValidateRejectsObserverInSinkColumn(t *testing.T) {
	obs := []route.Observation{{SrcCHA: 0, DstCHA: 2, Horz: []int{1, 2}}}
	in := Input{NumCHA: 3, Rows: 2, Cols: 4, Observations: obs}
	for _, pos := range [][]mesh.Coord{
		{{Row: 0, Col: 0}, {Row: 0, Col: 2}, {Row: 0, Col: 2}}, // eastbound
		{{Row: 0, Col: 3}, {Row: 0, Col: 1}, {Row: 0, Col: 1}}, // westbound
	} {
		err := Validate(in, pos)
		if err == nil {
			t.Errorf("%v: observer 1 in the sink's column accepted", pos)
		} else if !strings.Contains(err.Error(), "fit neither direction") {
			t.Errorf("%v: error %q does not name the horizontal clause", pos, err)
		}
	}
}

func TestValidateAnchored(t *testing.T) {
	imc := []mesh.Coord{{Row: 1, Col: 0}}
	obs := []route.Observation{{SrcCHA: -1, DstCHA: 0, Anchored: true, SrcIMC: 0, Down: []int{0}}}
	in := Input{NumCHA: 1, Rows: 3, Cols: 2, Observations: obs, IMCPositions: imc}
	if err := Validate(in, []mesh.Coord{{Row: 2, Col: 0}}); err != nil {
		t.Errorf("valid anchored placement rejected: %v", err)
	}
	if err := Validate(in, []mesh.Coord{{Row: 0, Col: 0}}); err == nil {
		t.Error("anchored placement above the IMC accepted for a down path")
	}
	badIn := in
	badIn.IMCPositions = nil
	if err := Validate(badIn, []mesh.Coord{{Row: 2, Col: 0}}); err == nil {
		t.Error("anchored observation without IMC positions accepted")
	}
}

// TestPipelineValidatesSemantically ties it together: a real instance's
// measured observations and recovered map must satisfy Validate.
func TestPipelineValidatesSemantically(t *testing.T) {
	m := machineFor(t)
	p, err := probe.New(m, probe.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	in := Input{NumCHA: res.NumCHA, Rows: m.SKU.Rows, Cols: m.SKU.Cols, Observations: res.Observations}
	mp, err := Reconstruct(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, mp.Pos); err != nil {
		t.Errorf("pipeline output failed semantic validation: %v", err)
	}
}

// machineFor returns a small mapped instance for validation tests.
func machineFor(t *testing.T) *machine.Machine {
	t.Helper()
	return machine.Generate(machine.SKU8175M, 0, machine.Config{Seed: 31})
}

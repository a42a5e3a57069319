package plan

import (
	"context"
	"reflect"
	"testing"

	"coremap/internal/cmerr"
	"coremap/internal/mesh"
	"coremap/internal/route"
)

// toy is a 3x3 die with five CHAs and one IMC at (2,0).
var toyTruth = []mesh.Coord{
	{Row: 0, Col: 0}, // CHA 0
	{Row: 0, Col: 1}, // CHA 1
	{Row: 1, Col: 0}, // CHA 2
	{Row: 1, Col: 1}, // CHA 3
	{Row: 2, Col: 2}, // CHA 4
}

func toyOptions() Options {
	return Options{Rows: 3, Cols: 3, IMCPositions: []mesh.Coord{{Row: 2, Col: 0}}}
}

// toyCandidates builds memory candidates for every CHA plus all ordered
// pairs, in a fixed pool order.
func toyCandidates(n int) []Candidate {
	var cands []Candidate
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			cands = append(cands, Candidate{Kind: KindPair, SrcCHA: src, DstCHA: dst, SrcCPU: src, DstCPU: dst})
		}
	}
	for cha := 0; cha < n; cha++ {
		cands = append(cands, Candidate{Kind: KindMemory, SrcCHA: -1, DstCHA: cha, IMC: 0, SrcCPU: -1, DstCPU: cha})
	}
	return cands
}

// trueObs computes the exact observation candidate c would produce under
// the ground-truth placement.
func trueObs(pl *Planner, c Candidate, truth []mesh.Coord) route.Observation {
	src, dst := pl.routeEndpoints(c, truth)
	o := route.Observation{SrcCHA: c.SrcCHA, DstCHA: c.DstCHA}
	if c.Kind == KindMemory {
		o.Anchored = true
		o.SrcIMC = c.IMC
	}
	for k := range truth {
		switch route.Classify(src, dst, truth[k]) {
		case route.ChanUp:
			o.Up = append(o.Up, k)
		case route.ChanDown:
			o.Down = append(o.Down, k)
		case route.ChanHorz:
			o.Horz = append(o.Horz, k)
		}
	}
	return o
}

// drive runs the planner under ctx against ground truth, answering
// every issued experiment exactly, and returns the sequence of batches.
func drive(ctx context.Context, t *testing.T, pl *Planner, truth []mesh.Coord) [][]int {
	t.Helper()
	var batches [][]int
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("planner failed to terminate")
		}
		batch, err := pl.NextBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			return batches
		}
		batches = append(batches, append([]int(nil), batch...))
		for _, ci := range batch {
			pl.Observe(ci, trueObs(pl, pl.Candidate(ci), truth))
		}
	}
}

func TestPlannerConvergesOnToyPlacement(t *testing.T) {
	cands := toyCandidates(len(toyTruth))
	pl, err := New(toyOptions(), len(toyTruth), cands)
	if err != nil {
		t.Fatal(err)
	}
	drive(context.Background(), t, pl, toyTruth)
	st := pl.Stats()
	if !st.Converged || st.Fallback {
		t.Fatalf("planner did not converge cleanly: %+v", st)
	}
	if st.Measured+st.Failed+st.Skipped != len(cands) {
		t.Fatalf("candidate accounting broken: %+v over %d candidates", st, len(cands))
	}
	if st.Skipped == 0 {
		t.Fatalf("planner measured everything — no savings: %+v", st)
	}

	// The ground truth must be among the survivors, and convergence means
	// no unmeasured candidate can split them.
	foundTruth := false
	survivors := pl.Survivors()
	for _, p := range survivors {
		if reflect.DeepEqual(p, toyTruth) {
			foundTruth = true
		}
	}
	if !foundTruth {
		t.Fatalf("ground truth missing from %d survivors", len(survivors))
	}
	for ci, state := range pl.state {
		if state != candUnmeasured {
			continue
		}
		c := pl.cands[ci]
		want := string(pl.predictKey(nil, c, survivors[0], pl.tileIndex(survivors[0])))
		for _, p := range survivors[1:] {
			if got := string(pl.predictKey(nil, c, p, pl.tileIndex(p))); got != want {
				t.Fatalf("skipped candidate %d still splits survivors: %q vs %q", ci, got, want)
			}
		}
	}
}

func TestPlannerDeterministicBatches(t *testing.T) {
	run := func() ([][]int, Stats) {
		pl, err := New(toyOptions(), len(toyTruth), toyCandidates(len(toyTruth)))
		if err != nil {
			t.Fatal(err)
		}
		batches := drive(context.Background(), t, pl, toyTruth)
		return batches, pl.Stats()
	}
	b1, s1 := run()
	for i := 0; i < 3; i++ {
		b2, s2 := run()
		if !reflect.DeepEqual(b1, b2) || s1 != s2 {
			t.Fatalf("run %d diverged:\n%v %+v\nvs\n%v %+v", i, b2, s2, b1, s1)
		}
	}
}

func TestPlannerObservationsFilterSurvivors(t *testing.T) {
	// consistent must accept the truth's own observations and reject a
	// placement that moves an observer off the constrained column.
	pl, err := New(toyOptions(), len(toyTruth), toyCandidates(len(toyTruth)))
	if err != nil {
		t.Fatal(err)
	}
	c := Candidate{Kind: KindMemory, SrcCHA: -1, DstCHA: 0, IMC: 0}
	o := trueObs(pl, c, toyTruth)
	if !pl.consistent(&o, toyTruth) {
		t.Fatal("truth rejected by its own observation")
	}
	moved := append([]mesh.Coord(nil), toyTruth...)
	moved[2] = mesh.Coord{Row: 1, Col: 2} // CHA 2 observes IMC→CHA0 on column 0
	if pl.consistent(&o, moved) {
		t.Fatal("off-column observer placement should be inconsistent")
	}
}

func TestPlannerFallbackOnContradiction(t *testing.T) {
	cands := toyCandidates(len(toyTruth))
	pl, err := New(toyOptions(), len(toyTruth), cands)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := pl.NextBatch(context.Background())
	if err != nil || len(batch) == 0 {
		t.Fatalf("no first batch: %v", err)
	}
	// Answer the first candidate with an impossible observation: the same
	// CHA both above and below the source.
	pl.Observe(batch[0], route.Observation{SrcCHA: -1, DstCHA: 0, Anchored: true, SrcIMC: 0, Up: []int{1}, Down: []int{1}})
	for _, ci := range batch[1:] {
		pl.Fail(ci)
	}
	next, err := pl.NextBatch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Stats().Fallback {
		t.Fatalf("contradictory observation should trigger fallback, stats %+v", pl.Stats())
	}
	// Fallback measures everything that remains in one batch.
	remaining := 0
	for _, st := range pl.state {
		if st == candPending {
			remaining++
		}
	}
	if len(next) != remaining || len(next) == 0 {
		t.Fatalf("fallback batch has %d candidates, want all %d remaining", len(next), remaining)
	}
}

func TestPlannerFailedCandidatesAreDropped(t *testing.T) {
	cands := toyCandidates(len(toyTruth))
	pl, err := New(toyOptions(), len(toyTruth), cands)
	if err != nil {
		t.Fatal(err)
	}
	issued := make(map[int]bool)
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("planner failed to terminate")
		}
		batch, err := pl.NextBatch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		for _, ci := range batch {
			if issued[ci] {
				t.Fatalf("candidate %d issued twice", ci)
			}
			issued[ci] = true
			pl.Fail(ci)
		}
	}
	st := pl.Stats()
	if st.Failed != len(cands) || st.Measured != 0 {
		t.Fatalf("all candidates failed, stats %+v", st)
	}
}

func TestPlannerConvergesWithPairsOnly(t *testing.T) {
	// No anchors: the surviving set retains mirror/translation symmetry,
	// but symmetric placements predict identically, so the planner must
	// still converge — with more than one survivor.
	var cands []Candidate
	for src := 0; src < len(toyTruth); src++ {
		for dst := 0; dst < len(toyTruth); dst++ {
			if src != dst {
				cands = append(cands, Candidate{Kind: KindPair, SrcCHA: src, DstCHA: dst, SrcCPU: src, DstCPU: dst})
			}
		}
	}
	pl, err := New(Options{Rows: 3, Cols: 3}, len(toyTruth), cands)
	if err != nil {
		t.Fatal(err)
	}
	drive(context.Background(), t, pl, toyTruth)
	st := pl.Stats()
	if !st.Converged || st.Fallback {
		t.Fatalf("pairs-only survey did not converge: %+v", st)
	}
	if st.Ambiguity < 2 {
		t.Fatalf("anchor-free survey cannot be unambiguous, got %d survivors", st.Ambiguity)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Rows: 0, Cols: 3}, 2, nil); cmerr.ClassOf(err) != cmerr.Permanent {
		t.Errorf("bad grid accepted: %v", err)
	}
	if _, err := New(Options{Rows: 2, Cols: 2}, 5, nil); cmerr.ClassOf(err) != cmerr.Permanent {
		t.Errorf("overfull grid accepted: %v", err)
	}
	if _, err := New(Options{Rows: 2, Cols: 2}, 2, []Candidate{{Kind: KindPair, SrcCHA: 0, DstCHA: 7}}); cmerr.ClassOf(err) != cmerr.Permanent {
		t.Errorf("out-of-range destination accepted: %v", err)
	}
	if _, err := New(Options{Rows: 2, Cols: 2}, 2, []Candidate{{Kind: KindMemory, SrcCHA: -1, DstCHA: 0, IMC: 0}}); cmerr.ClassOf(err) != cmerr.Permanent {
		t.Errorf("unknown IMC accepted: %v", err)
	}
	if _, err := New(Options{Rows: 2, Cols: 2}, 2, []Candidate{{Kind: KindPair, SrcCHA: -1, DstCHA: 0}}); cmerr.ClassOf(err) != cmerr.Permanent {
		t.Errorf("negative pair source accepted: %v", err)
	}
}

func TestKindOp(t *testing.T) {
	want := map[Kind]string{KindPair: "pair", KindSlice: "slice", KindRequest: "request", KindMemory: "memory"}
	for k, s := range want {
		if k.Op() != s {
			t.Errorf("Kind(%d).Op() = %q, want %q", k, k.Op(), s)
		}
	}
}

// TestPredictKeyChannelBytes pins predictKey's byte encoding on the toy
// die: (channel, CHA) pairs in ascending CHA order, with the
// route.Channel byte values up=1, down=2, horz=3. The planner only
// counts equal keys, so the schedule needs the encoding to be injective
// — one key per observation — rather than these exact bytes; the pin
// catches a change to the layout (a dropped channel byte, observers out
// of CHA order) before it can merge or split blocks.
func TestPredictKeyChannelBytes(t *testing.T) {
	pl, err := New(toyOptions(), len(toyTruth), toyCandidates(len(toyTruth)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		c    Candidate
		want []byte
	}{
		// IMC (2,0) -> CHA 1 (0,1): up through CHAs 2 and 0, across to
		// CHA 1; pairs are listed in ascending CHA order.
		{Candidate{Kind: KindMemory, SrcCHA: -1, DstCHA: 1, IMC: 0, SrcCPU: -1, DstCPU: 1}, []byte{1, 0, 3, 1, 1, 2}},
		// CHA 0 (0,0) -> CHA 4 (2,2): down through CHA 2, across to CHA 4.
		{Candidate{Kind: KindPair, SrcCHA: 0, DstCHA: 4, SrcCPU: 0, DstCPU: 4}, []byte{2, 2, 3, 4}},
	}
	for _, tc := range cases {
		if got := pl.predictKey(nil, tc.c, toyTruth, pl.tileIndex(toyTruth)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("predictKey(%+v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

package plan

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"coremap/internal/ilp"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/route"
)

// surveyInstance builds the planner input MapMachine's default survey
// hands the planner on a generated machine — the die, the candidate pool
// in the probe's order (every ordered core pair, then a slice fill and a
// request per LLC-only CHA and CPU) — together with the ground-truth CHA
// placement that answers it.
func surveyInstance(sku *machine.SKU, pattern int, seed int64) (Options, int, []Candidate, []mesh.Coord) {
	m := machine.Generate(sku, pattern, machine.Config{Seed: seed})
	mapping := m.TrueOSToCHA()
	numCHA := m.NumCHAs()
	truth := make([]mesh.Coord, numCHA)
	core := make([]bool, numCHA)
	for cha := range truth {
		truth[cha] = m.TrueCHACoord(cha)
	}
	for _, cha := range mapping {
		core[cha] = true
	}
	var cands []Candidate
	for src, srcCHA := range mapping {
		for sink, sinkCHA := range mapping {
			if src != sink {
				cands = append(cands, Candidate{Kind: KindPair, SrcCHA: srcCHA, DstCHA: sinkCHA, SrcCPU: src, DstCPU: sink})
			}
		}
	}
	for slice := range numCHA {
		if core[slice] {
			continue
		}
		for cpu, coreCHA := range mapping {
			cands = append(cands,
				Candidate{Kind: KindSlice, SrcCHA: slice, DstCHA: coreCHA, SrcCPU: -1, DstCPU: cpu},
				Candidate{Kind: KindRequest, SrcCHA: coreCHA, DstCHA: slice, SrcCPU: cpu, DstCPU: -1})
		}
	}
	opts := Options{Rows: sku.Rows, Cols: sku.Cols, IMCPositions: sku.IMC}
	return opts, numCHA, cands, truth
}

// scheduleDigest hashes the sequence of issued batches.
func scheduleDigest(batches [][]int) string {
	h := sha256.New()
	var buf []byte
	for _, b := range batches {
		buf = binary.AppendUvarint(buf[:0], uint64(len(b)))
		for _, ci := range b {
			buf = binary.AppendUvarint(buf, uint64(ci))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlannerScheduleUnchanged pins the planner's measurement schedule —
// which experiments it issues, in which rounds — on a seeded 8259CL and
// 6354 survey. Enumeration work is free to get cheaper; what the
// planner measures is not, so any change to how survivors are computed
// must leave these values alone.
func TestPlannerScheduleUnchanged(t *testing.T) {
	for _, tc := range []struct {
		sku              *machine.SKU
		pattern          int
		seed             int64
		digest           string
		rounds, measured int
	}{
		{machine.SKU8259CL, 1, 1, "49ae382b697d29b8c3da90b0674ec051c39fb01908fb43e8ea3fcdcbae701740", 4, 58},
		{machine.SKU6354, 0, 1, "e1fa76bc7d147ced654f4b907231958b4ea84ff142b2d7a4728352dbe2eeb86e", 14, 254},
		{machine.SKU6354, 1, 2, "d7d2710aa927e78dbca6d9416c7d160effbbbedf4ac918fefed065fcc137c81d", 5, 128},
	} {
		t.Run(fmt.Sprintf("%s/pattern%d", tc.sku.Name, tc.pattern), func(t *testing.T) {
			opts, numCHA, cands, truth := surveyInstance(tc.sku, tc.pattern, tc.seed)
			pl, err := New(opts, numCHA, cands)
			if err != nil {
				t.Fatal(err)
			}
			batches := drive(t, pl, truth)
			st := pl.Stats()
			got := scheduleDigest(batches)
			t.Logf("digest %s rounds %d measured %d enumerations %d", got, st.Rounds, st.Measured, st.Enumerations)
			if got != tc.digest || st.Rounds != tc.rounds || st.Measured != tc.measured {
				t.Errorf("schedule moved: digest %s rounds %d measured %d, want %s rounds %d measured %d",
					got, st.Rounds, st.Measured, tc.digest, tc.rounds, tc.measured)
			}
			if !st.Converged || st.Fallback {
				t.Errorf("survey did not converge cleanly: %+v", st)
			}
		})
	}
}

// TestPlannerModelDedupesRows feeds a planner the observations of a
// seeded 6354 survey in two steps and checks that its space holds each
// distinct row exactly once, and that enumerating it gives the same
// placements, in the same order and the same search tree, as a model
// built with every duplicate.
func TestPlannerModelDedupesRows(t *testing.T) {
	opts, numCHA, cands, truth := surveyInstance(machine.SKU6354, 1, 2)
	pl, err := New(opts, numCHA, cands)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(cands) / 3, len(cands)} {
		for ci := pl.modelObs; ci < n; ci++ {
			pl.Observe(ci, trueObs(pl, cands[ci], truth))
		}
		pl.extendModel()

		// The reference model declares the space's variables in the same
		// order (r0, c0, r1, c1, …: the projection) and renders every
		// clause of every observation, duplicates included.
		eo := pl.space.EnumOptions(DefaultAmbiguityCap)
		raw := ilp.NewModel()
		r, c := make([]ilp.Var, numCHA), make([]ilp.Var, numCHA)
		for k := range r {
			r[k] = raw.NewVar("r", 0, int64(opts.Rows-1))
			c[k] = raw.NewVar("c", 0, int64(opts.Cols-1))
		}
		for i, v := range eo.Project {
			if v != ilp.Var(i) || pl.space.Model().NumVars() != raw.NumVars() {
				t.Fatalf("space projection %v over %d variables; the reference assumes r0, c0, r1, c1, … over %d",
					eo.Project, pl.space.Model().NumVars(), raw.NumVars())
			}
		}
		distinct := map[string]bool{}
		var lins []route.Lin
		var buf [2]ilp.Term
		for _, o := range pl.observations {
			lins = o.Linear(lins[:0], opts.IMCPositions)
			for i := range lins {
				terms, lo, hi := lins[i].Row(r, c, &buf)
				raw.AddRange(lins[i].Kind.String(), terms, lo, hi)
				ts := append([]ilp.Term(nil), terms...)
				sort.Slice(ts, func(i, j int) bool { return ts[i].Var < ts[j].Var })
				distinct[fmt.Sprint(ts, lo, hi)] = true
			}
		}
		if got := pl.space.Model().NumConstraints(); got != len(distinct) {
			t.Fatalf("%d observations: space has %d rows, want the %d distinct of %d",
				n, got, len(distinct), raw.NumConstraints())
		}
		if len(distinct) >= raw.NumConstraints() {
			t.Fatalf("%d observations: no duplicate rows to drop (%d rows)", n, raw.NumConstraints())
		}

		enum := func(m *ilp.Model) *ilp.EnumResult {
			res, err := ilp.Enumerate(context.Background(), m, eo)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		deduped, full := enum(pl.space.Model()), enum(raw)
		if deduped.Complete != full.Complete || !reflect.DeepEqual(deduped.Solutions, full.Solutions) {
			t.Fatalf("%d observations: deduplicated model enumerates %d placements (complete=%v), full model %d (complete=%v)",
				n, len(deduped.Solutions), deduped.Complete, len(full.Solutions), full.Complete)
		}
		if deduped.Nodes != full.Nodes {
			t.Errorf("%d observations: deduplication changed the search tree: %d nodes vs %d", n, deduped.Nodes, full.Nodes)
		}
		t.Logf("%d observations: %d of %d rows distinct, %d placements (complete=%v), %d nodes",
			n, len(distinct), raw.NumConstraints(), len(deduped.Solutions), deduped.Complete, deduped.Nodes)
	}
}

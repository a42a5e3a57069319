package plan

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"coremap/internal/ilp"
	"coremap/internal/machine"
	"coremap/internal/mesh"
	"coremap/internal/obs"
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
// 6354 survey, and the search tree behind it: the total enumeration
// nodes (ilp/enum_nodes) over the survey's materialization attempts,
// which enumerate mirror orbits (the pools have no memory candidate).
// What the planner measures must not move when survivors are computed
// differently; a change that reshapes the search tree must update the
// node counts deliberately.
func TestPlannerScheduleUnchanged(t *testing.T) {
	for _, tc := range []struct {
		sku              *machine.SKU
		pattern          int
		seed             int64
		digest           string
		rounds, measured int
		enumNodes        int64
	}{
		{machine.SKU8259CL, 1, 1, "49ae382b697d29b8c3da90b0674ec051c39fb01908fb43e8ea3fcdcbae701740", 4, 58, 2377},
		{machine.SKU6354, 0, 1, "e1fa76bc7d147ced654f4b907231958b4ea84ff142b2d7a4728352dbe2eeb86e", 14, 254, 28780},
		{machine.SKU6354, 1, 2, "d7d2710aa927e78dbca6d9416c7d160effbbbedf4ac918fefed065fcc137c81d", 5, 128, 14709},
	} {
		t.Run(fmt.Sprintf("%s/pattern%d", tc.sku.Name, tc.pattern), func(t *testing.T) {
			opts, numCHA, cands, truth := surveyInstance(tc.sku, tc.pattern, tc.seed)
			pl, err := New(opts, numCHA, cands)
			if err != nil {
				t.Fatal(err)
			}
			tel := obs.New(obs.Config{})
			batches := drive(obs.With(context.Background(), tel), t, pl, truth)
			st := pl.Stats()
			got := scheduleDigest(batches)
			nodes := tel.Registry().Counter("ilp/enum_nodes").Value()
			t.Logf("digest %s rounds %d measured %d enumerations %d enum nodes %d",
				got, st.Rounds, st.Measured, st.Enumerations, nodes)
			if got != tc.digest || st.Rounds != tc.rounds || st.Measured != tc.measured {
				t.Errorf("schedule moved: digest %s rounds %d measured %d, want %s rounds %d measured %d",
					got, st.Rounds, st.Measured, tc.digest, tc.rounds, tc.measured)
			}
			if nodes != tc.enumNodes {
				t.Errorf("search tree moved: %d enumeration nodes, want %d", nodes, tc.enumNodes)
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
		// order (r0, c0, r1, c1, …) and renders every clause of every
		// observation, duplicates included.
		eo := pl.space.EnumOptions(DefaultAmbiguityCap)
		raw := ilp.NewModel()
		r, c := make([]ilp.Var, numCHA), make([]ilp.Var, numCHA)
		for k := range r {
			r[k] = raw.NewVar("r", 0, int64(opts.Rows-1))
			c[k] = raw.NewVar("c", 0, int64(opts.Cols-1))
		}
		if got := pl.space.Model().NumVars(); got != raw.NumVars() {
			t.Fatalf("space declares %d variables, the reference %d", got, raw.NumVars())
		}
		ids := make([]int64, raw.NumVars())
		for i := range ids {
			ids[i] = int64(i)
		}
		for k, at := range pl.space.Expand(nil, ids)[0] {
			if at != (mesh.Coord{Row: int(r[k]), Col: int(c[k])}) {
				t.Fatalf("space decodes CHA %d from variables %v; the reference declares r%d, c%d as %d, %d",
					k, at, k, k, r[k], c[k])
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
			res, err := ilp.Enumerate(context.Background(), m, eo, 0)
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

// classifyKey is predictKey's reference: route.Classify on the tile of
// every CHA in ascending order, with no route walk or tile index.
func classifyKey(pl *Planner, c Candidate, p []mesh.Coord) string {
	src, dst := pl.routeEndpoints(c, p)
	var key []byte
	for k, t := range p {
		if ch := route.Classify(src, dst, t); ch != route.ChanNone {
			key = append(key, byte(ch), byte(k))
		}
	}
	return string(key)
}

// referencePartition is partition without mirror orbits: it groups
// every surviving placement (Survivors, both members of each orbit) by
// candidate c's classifyKey and returns the number of groups and the
// size of the largest.
func referencePartition(pl *Planner, c Candidate) (blocks, maxBlock int) {
	counts := map[string]int{}
	for _, p := range pl.Survivors() {
		counts[classifyKey(pl, c, p)]++
	}
	for _, n := range counts {
		maxBlock = max(maxBlock, n)
	}
	return len(counts), maxBlock
}

// referenceBatch is the scorer without retirement or mirror orbits: it
// re-partitions the survivors by every remaining candidate
// (referencePartition) and returns the BatchSize splitting candidates
// with the smallest largest block, pool order breaking ties.
func referenceBatch(pl *Planner, remaining []int) []int {
	type ranked struct{ idx, maxBlock int }
	var splits []ranked
	for _, ci := range remaining {
		if blocks, maxBlock := referencePartition(pl, pl.cands[ci]); blocks > 1 {
			splits = append(splits, ranked{idx: ci, maxBlock: maxBlock})
		}
	}
	sort.Slice(splits, func(i, j int) bool {
		if splits[i].maxBlock != splits[j].maxBlock {
			return splits[i].maxBlock < splits[j].maxBlock
		}
		return splits[i].idx < splits[j].idx
	})
	var batch []int
	for i := 0; i < len(splits) && i < batchSize; i++ {
		batch = append(batch, splits[i].idx)
	}
	return batch
}

// TestRetiredCandidatesMatchReferenceScorer drives seeded 8259CL and
// 6354 surveys and checks every scored round against referenceBatch:
// each retired candidate still predicts one key across the current
// survivors, and skipping the retired candidates — and predicting by
// route walk, one weighed representative per mirror orbit — leaves every
// batch equal to the reference's.
func TestRetiredCandidatesMatchReferenceScorer(t *testing.T) {
	for _, tc := range []struct {
		sku     *machine.SKU
		pattern int
		seed    int64
	}{
		{machine.SKU8259CL, 0, 1},
		{machine.SKU8259CL, 1, 1},
		{machine.SKU6354, 0, 1},
		{machine.SKU6354, 1, 2},
	} {
		t.Run(fmt.Sprintf("%s/pattern%d", tc.sku.Name, tc.pattern), func(t *testing.T) {
			opts, numCHA, cands, truth := surveyInstance(tc.sku, tc.pattern, tc.seed)
			pl, err := New(opts, numCHA, cands)
			if err != nil {
				t.Fatal(err)
			}
			scored, retiredMax := 0, 0
			for round := 0; ; round++ {
				if round > 1000 {
					t.Fatal("planner failed to terminate")
				}
				var remaining []int
				for ci, st := range pl.state {
					if st == candUnmeasured {
						remaining = append(remaining, ci)
					}
				}
				batch, err := pl.NextBatch(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if pl.survivors != nil {
					scored++
					if want := referenceBatch(pl, remaining); !reflect.DeepEqual(batch, want) {
						t.Fatalf("round %d: batch %v, reference scorer picks %v", round, batch, want)
					}
					retired := 0
					for ci, r := range pl.retired {
						if !r {
							continue
						}
						retired++
						survivors := pl.Survivors()
						want := classifyKey(pl, cands[ci], survivors[0])
						for _, p := range survivors[1:] {
							if got := classifyKey(pl, cands[ci], p); got != want {
								t.Fatalf("round %d: retired candidate %d splits the %d survivors", round, ci, len(survivors))
							}
						}
					}
					retiredMax = max(retiredMax, retired)
				}
				if len(batch) == 0 {
					break
				}
				for _, ci := range batch {
					pl.Observe(ci, trueObs(pl, cands[ci], truth))
				}
			}
			t.Logf("%d scored rounds, up to %d retired candidates", scored, retiredMax)
			if scored == 0 || retiredMax == 0 {
				t.Fatalf("survey exercised no scoring (%d rounds) or no retirement (%d candidates)", scored, retiredMax)
			}
		})
	}
}

// TestOrbitScoringOnOddGrids drives planners without memory candidates
// on random small grids with an odd column count, where a placement
// with every CHA in the middle column is its own mirror image and its
// orbit weighs one placement, not two. In every scored round, partition
// must size each candidate's blocks as referencePartition does over the
// expanded survivors, and the batch must be referenceBatch's.
func TestOrbitScoringOnOddGrids(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	scored, selfMirror := 0, 0
	for trial := 0; trial < 150; trial++ {
		rows, cols := 2+r.Intn(3), 3+2*r.Intn(2)
		n := 2 + r.Intn(rows-1)
		truth := make([]mesh.Coord, n)
		if r.Intn(2) == 0 {
			for k, row := range r.Perm(rows)[:n] {
				truth[k] = mesh.Coord{Row: row, Col: cols / 2}
			}
		} else {
			for k, cell := range r.Perm(rows * cols)[:n] {
				truth[k] = mesh.Coord{Row: cell / cols, Col: cell % cols}
			}
		}
		var cands []Candidate
		for src := range n {
			for dst := range n {
				if src != dst {
					cands = append(cands, Candidate{Kind: KindPair, SrcCHA: src, DstCHA: dst})
				}
			}
		}
		pl, err := New(Options{Rows: rows, Cols: cols}, n, cands)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; ; round++ {
			if round > 100 {
				t.Fatalf("trial %d: planner failed to terminate", trial)
			}
			var remaining []int
			for ci, st := range pl.state {
				if st == candUnmeasured {
					remaining = append(remaining, ci)
				}
			}
			batch, err := pl.NextBatch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if pl.survivors != nil {
				scored++
				for _, s := range pl.survivors {
					if s.mirror == nil {
						selfMirror++
					}
				}
				if want := referenceBatch(pl, remaining); !reflect.DeepEqual(batch, want) {
					t.Fatalf("trial %d (%dx%d, truth %v) round %d: batch %v, reference scorer picks %v",
						trial, rows, cols, truth, round, batch, want)
				}
				for _, c := range cands {
					b, m := pl.partition(c)
					if rb, rm := referencePartition(pl, c); b != rb || m != rm {
						t.Fatalf("trial %d (%dx%d) round %d: candidate %+v splits %d orbits into %d blocks, largest %d; the placements split into %d, largest %d",
							trial, rows, cols, round, c, len(pl.survivors), b, m, rb, rm)
					}
				}
			}
			if len(batch) == 0 {
				break
			}
			for _, ci := range batch {
				pl.Observe(ci, trueObs(pl, cands[ci], truth))
			}
		}
	}
	t.Logf("%d scored rounds met %d self-mirror survivors", scored, selfMirror)
	if scored == 0 || selfMirror == 0 {
		t.Fatalf("%d scored rounds met %d self-mirror survivors: the orbit weights are not exercised", scored, selfMirror)
	}
}

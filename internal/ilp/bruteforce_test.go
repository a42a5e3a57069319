package ilp

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// bruteFeasible calls visit with every feasible assignment of m, in
// ascending lexicographic order. It shares nothing with the solver: each
// constraint is evaluated once its highest-index variable is assigned,
// so a prefix is abandoned only when a fully assigned row is violated.
// visit must not retain vals.
func bruteFeasible(m *Model, visit func(vals []int64)) {
	n := len(m.lo)
	due := make([][]int, n) // var → rows whose highest-index variable it is
	for ci, c := range m.cons {
		last := -1
		for _, t := range c.terms {
			last = max(last, int(t.Var))
		}
		if last < 0 {
			// Every coefficient cancelled: the row reads 0 ∈ [lo, hi].
			if c.lo > 0 || c.hi < 0 {
				return
			}
			continue
		}
		due[last] = append(due[last], ci)
	}
	vals := make([]int64, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			visit(vals)
			return
		}
	next:
		for x := m.lo[i]; x <= m.hi[i]; x++ {
			vals[i] = x
			for _, ci := range due[i] {
				c := &m.cons[ci]
				var sum int64
				for _, t := range c.terms {
					sum += t.Coef * vals[t.Var]
				}
				if sum < c.lo || sum > c.hi {
					continue next
				}
			}
			rec(i + 1)
		}
	}
	rec(0)
}

// bruteProjections returns the distinct projections of m's feasible set
// onto proj, sorted lexicographically.
func bruteProjections(m *Model, proj []Var) [][]int64 {
	seen := map[string]bool{}
	var out [][]int64
	bruteFeasible(m, func(vals []int64) {
		p := make([]int64, len(proj))
		for i, v := range proj {
			p[i] = vals[v]
		}
		if k := fmt.Sprint(p); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	})
	sortVectors(out)
	return out
}

func sortVectors(vs [][]int64) {
	sort.Slice(vs, func(i, j int) bool { return slices.Compare(vs[i], vs[j]) < 0 })
}

// tinyPlacementModel draws a placementModel small enough to enumerate.
func tinyPlacementModel(seed int64) (*Model, []Var) {
	r := rand.New(rand.NewSource(seed))
	tiles := 2 + r.Intn(2)
	m := placementModel(tiles, 1+r.Intn(2), 2+r.Intn(2))
	// placementModel declares R_i, C_i for every tile first.
	proj := make([]Var, 2*tiles)
	for i := range proj {
		proj[i] = Var(i)
	}
	return m, proj
}

// seedProjection picks a non-empty subset of m's variables from the seed
// bits.
func seedProjection(m *Model, seed int64) []Var {
	var proj []Var
	for v := 0; v < m.NumVars(); v++ {
		if (seed>>v)&1 == 0 {
			proj = append(proj, Var(v))
		}
	}
	if len(proj) == 0 {
		proj = append(proj, 0)
	}
	return proj
}

// FuzzEnumerateBruteForce checks Enumerate against exhaustive
// enumeration of the variable domains: on random tiny models, the
// enumerated projection set must equal the brute-force feasible set's
// projection — empty exactly when no assignment is feasible.
// The seed corpus (seeds 1–12) runs under plain go test; go test -fuzz
// explores further seeds.
func FuzzEnumerateBruteForce(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rm := randomModel(seed)
		checkBruteForce(t, "random", rm, seedProjection(rm, seed))
		pm, proj := tinyPlacementModel(seed)
		checkBruteForce(t, "placement", pm, proj)
	})
}

// TestSolveDeterministicAcrossReduce pins that enumeration finds exactly
// the brute-force feasible set on every corpus model. (The name predates
// the removal of the reduction passes and of branch-and-bound Solve; the
// reference has been exhaustive enumeration since the former.)
func TestSolveDeterministicAcrossReduce(t *testing.T) {
	for _, cm := range corpus() {
		t.Run(cm.name, func(t *testing.T) {
			m := cm.build()
			checkBruteForce(t, cm.name, m, corpusProjection(m))
		})
	}
}

// TestPresolveDetectsInfeasibleMerge: an equality between variables with
// disjoint domains has no solution, and enumeration must say so.
func TestPresolveDetectsInfeasibleMerge(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 1)
	y := m.NewVar("y", 3, 4)
	m.AddEq("xy", []Term{T(1, x), T(-1, y)}, 0)
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: []Var{x, y}})
	if err != nil || !res.Complete || len(res.Solutions) != 0 {
		t.Errorf("got %+v, %v; want a complete, empty enumeration", res, err)
	}
}

// TestPresolveEquivalence: on random models containing the x == y
// equality chains that presolve used to merge, enumeration must find
// exactly the brute-force feasible set.
func TestPresolveEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewModel()
		n := 3 + r.Intn(4)
		vars := make([]Var, n)
		for i := range vars {
			lo := int64(r.Intn(3))
			vars[i] = m.NewVar("x", lo, lo+int64(1+r.Intn(3)))
		}
		// Random equality links.
		for i := 0; i < r.Intn(3); i++ {
			a, b := vars[r.Intn(n)], vars[r.Intn(n)]
			if a != b {
				m.AddEq("eq", []Term{T(1, a), T(-1, b)}, 0)
			}
		}
		// Random inequalities.
		for i := 0; i < 1+r.Intn(3); i++ {
			var terms []Term
			for _, v := range vars {
				if r.Intn(2) == 0 {
					terms = append(terms, T(int64(r.Intn(5))-2, v))
				}
			}
			if len(terms) > 0 {
				m.AddLE("c", terms, int64(r.Intn(9))-2)
			}
		}

		want := bruteProjections(m, vars)
		res, err := Enumerate(context.Background(), m, EnumOptions{Project: vars})
		if err != nil || !res.Complete {
			t.Logf("seed %d: err=%v complete=%v", seed, err, res != nil && res.Complete)
			return false
		}
		if !reflect.DeepEqual(res.Solutions, want) && len(res.Solutions)+len(want) > 0 {
			t.Logf("seed %d: enumerated %v, brute force %v", seed, res.Solutions, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(90))}); err != nil {
		t.Error(err)
	}
}

// checkBruteForce enumerates m projected on proj and compares the set
// with brute force.
func checkBruteForce(t *testing.T, name string, m *Model, proj []Var) {
	t.Helper()
	res, err := Enumerate(context.Background(), m, EnumOptions{Project: proj})
	if err != nil {
		t.Fatalf("%s: enumerate: %v", name, err)
	}
	if !res.Complete {
		t.Fatalf("%s: enumeration incomplete", name)
	}
	got := append([][]int64(nil), res.Solutions...)
	sortVectors(got)
	if wantSet := bruteProjections(m, proj); !reflect.DeepEqual(got, wantSet) && len(got)+len(wantSet) > 0 {
		t.Fatalf("%s: enumerated %v, brute force %v", name, got, wantSet)
	}
}

// fuzzRow is one row of a resume-fuzz model, kept outside any Model so
// the same prefix can be rebuilt fresh.
type fuzzRow struct {
	terms  []Term
	lo, hi int64
}

// resumeModel draws a small model as variable domains plus rows, and the
// projection to enumerate. Odd seeds draw a random model over a random
// variable subset; even seeds draw a noc-style worker fix — (x, y)
// projected, with per-observation wrap binaries and distance variables
// left to the completion check.
func resumeModel(r *rand.Rand) (doms [][2]int64, rows []fuzzRow, proj []Var) {
	if r.Intn(2) == 0 {
		n := 3 + r.Intn(3)
		for range n {
			lo := int64(r.Intn(3)) - 1
			doms = append(doms, [2]int64{lo, lo + int64(r.Intn(4))})
		}
		for range 2 + r.Intn(7) {
			var terms []Term
			for v := range n {
				if r.Intn(2) == 0 {
					terms = append(terms, T(int64(r.Intn(5))-2, Var(v)))
				}
			}
			if len(terms) == 0 {
				continue
			}
			rhs := int64(r.Intn(7)) - 2
			if r.Intn(2) == 0 {
				rows = append(rows, fuzzRow{terms, NegInf, rhs})
			} else {
				rows = append(rows, fuzzRow{terms, rhs - 4, PosInf})
			}
		}
		for v := range n {
			if r.Intn(3) > 0 {
				proj = append(proj, Var(v))
			}
		}
		if len(proj) == 0 {
			proj = []Var{0}
		}
		return doms, rows, proj
	}
	const w = 3
	doms = [][2]int64{{0, w - 1}, {0, w - 1}}
	x, y := int64(r.Intn(w)), int64(r.Intn(w))
	for o := range 1 + r.Intn(2) {
		base := Var(2 + 4*o)
		dx, dy, kx, ky := base, base+1, base+2, base+3
		doms = append(doms, [2]int64{0, w - 1}, [2]int64{0, w - 1}, [2]int64{0, 1}, [2]int64{0, 1})
		ax, ay := int64(r.Intn(w)), int64(r.Intn(w))
		hops := (x-ax+w)%w + (y-ay+w)%w
		if r.Intn(4) == 0 {
			hops = int64(r.Intn(2 * w))
		}
		rows = append(rows,
			fuzzRow{[]Term{T(1, 0), T(w, kx), T(-1, dx)}, ax, ax},
			fuzzRow{[]Term{T(1, 1), T(w, ky), T(-1, dy)}, ay, ay},
			fuzzRow{[]Term{T(1, dx), T(1, dy)}, hops, hops})
	}
	return doms, rows, []Var{0, 1}
}

func buildFuzzModel(doms [][2]int64, rows []fuzzRow) *Model {
	m := NewModel()
	for _, d := range doms {
		m.NewVar("v", d[0], d[1])
	}
	for _, row := range rows {
		m.AddRange("r", row.terms, row.lo, row.hi)
	}
	return m
}

// FuzzEnumerateResume checks the resumable Enumerator against fresh
// enumeration and brute force. A random small model's rows arrive in
// one to four batches, each followed by Runs under a small random node
// budget that doubles after every Run without a verdict, and Accept
// grows stricter between batches. Every Run that
// reports Complete must hold exactly the projections a fresh Enumerate
// of the same row prefix finds, in the same order, and the brute-force
// projected set; a Run that overruns the cap must see the fresh call
// overrun too, with the same first Cap projections. The seed corpus
// runs under plain go test; go test -fuzz explores further seeds.
func FuzzEnumerateResume(f *testing.F) {
	for seed := int64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	// A recheck cut short by the budget must not report the projections
	// it has not verified yet.
	f.Add(int64(-334))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		doms, rows, proj := resumeModel(r)
		capN := r.Intn(5) // 0 = unbounded
		base := 1 + r.Intn(30)
		banned := map[int64]bool{}
		accept := func(p []int64) bool {
			var sum int64
			for _, x := range p {
				sum += x
			}
			return !banned[sum]
		}

		batches := 1 + r.Intn(4)
		cut := []int{0}
		for b := 1; b < batches; b++ {
			cut = append(cut, r.Intn(len(rows)+1))
		}
		sort.Ints(cut)
		cut = append(cut, len(rows))

		m := buildFuzzModel(doms, nil)
		e, err := NewEnumerator(m, EnumOptions{Project: proj, Cap: capN, Accept: accept})
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b < len(cut); b++ {
			for _, row := range rows[cut[b-1]:cut[b]] {
				m.AddRange("r", row.terms, row.lo, row.hi)
			}
			if r.Intn(3) == 0 {
				banned[int64(r.Intn(6))] = true
			}
			prefix := rows[:cut[b]]
			budget := base
			for run := 0; ; run++ {
				if run > 64 {
					t.Fatalf("batch %d: no verdict after %d runs", b, run)
				}
				res, err := e.Run(context.Background(), budget)
				if err != nil {
					t.Fatalf("batch %d run %d: %v", b, run, err)
				}
				verified := 0
				for _, f := range e.found {
					if f.rows == len(e.s.cons) {
						verified++
					}
				}
				overflow := capN > 0 && verified > capN
				if !res.Complete && !overflow {
					// A cut-short completion check restarts in the next
					// Run, so the budget grows as the planner's does.
					budget *= 2
					continue
				}
				fresh, err := Enumerate(context.Background(), buildFuzzModel(doms, prefix),
					EnumOptions{Project: proj, Cap: capN, Accept: accept})
				if err != nil {
					t.Fatalf("batch %d: fresh enumerate: %v", b, err)
				}
				if fresh.Complete != res.Complete || !reflect.DeepEqual(fresh.Solutions, res.Solutions) {
					t.Fatalf("batch %d run %d: resumed %v (complete=%v), fresh %v (complete=%v)",
						b, run, res.Solutions, res.Complete, fresh.Solutions, fresh.Complete)
				}
				if res.Complete {
					var want [][]int64
					for _, p := range bruteProjections(buildFuzzModel(doms, prefix), proj) {
						if accept(p) {
							want = append(want, p)
						}
					}
					got := append([][]int64(nil), res.Solutions...)
					sortVectors(got)
					if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
						t.Fatalf("batch %d: resumed %v, brute force %v", b, got, want)
					}
				}
				break
			}
		}
	})
}

package ilp

import (
	"context"
	"math/rand"
	"reflect"
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

// bruteSolutions returns m's feasible assignments in lexicographic
// order.
func bruteSolutions(m *Model) [][]int64 {
	var out [][]int64
	bruteFeasible(m, func(vals []int64) {
		out = append(out, append([]int64(nil), vals...))
	})
	return out
}

// tinyPlacementModel draws a placementModel small enough to enumerate.
func tinyPlacementModel(seed int64) *Model {
	r := rand.New(rand.NewSource(seed))
	return placementModel(2+r.Intn(2), 1+r.Intn(2), 2+r.Intn(2))
}

// FuzzEnumerateBruteForce checks Enumerate against exhaustive
// enumeration of the variable domains: on random tiny models, the
// enumerated assignments must equal the brute-force feasible set, in the
// same lexicographic order — empty exactly when no assignment is
// feasible. The seed corpus (seeds 1–12) runs under plain go test; go
// test -fuzz explores further seeds.
func FuzzEnumerateBruteForce(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkBruteForce(t, "random", randomModel(seed))
		checkBruteForce(t, "placement", tinyPlacementModel(seed))
	})
}

// TestSolveDeterministicAcrossReduce pins that enumeration finds exactly
// the brute-force feasible set on every corpus model. (The name predates
// the removal of the reduction passes and of branch-and-bound Solve; the
// reference has been exhaustive enumeration since the former.)
func TestSolveDeterministicAcrossReduce(t *testing.T) {
	for _, cm := range corpus() {
		t.Run(cm.name, func(t *testing.T) {
			checkBruteForce(t, cm.name, cm.build())
		})
	}
}

// TestPresolveDetectsInfeasibleMerge: an equality between variables with
// disjoint domains has no solution, and enumeration must say so.
func TestPresolveDetectsInfeasibleMerge(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 1)
	y := m.NewVar("y", 3, 4)
	m.AddRange("xy", []Term{T(1, x), T(-1, y)}, 0, 0)
	res, err := Enumerate(context.Background(), m, EnumOptions{}, 0)
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
				m.AddRange("eq", []Term{T(1, a), T(-1, b)}, 0, 0)
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
				m.AddRange("c", terms, NegInf, int64(r.Intn(9))-2)
			}
		}

		want := bruteSolutions(m)
		res, err := Enumerate(context.Background(), m, EnumOptions{}, 0)
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

// checkBruteForce enumerates m and compares the assignments, in order,
// with brute force.
func checkBruteForce(t *testing.T, name string, m *Model) {
	t.Helper()
	res, err := Enumerate(context.Background(), m, EnumOptions{}, 0)
	if err != nil {
		t.Fatalf("%s: enumerate: %v", name, err)
	}
	if !res.Complete {
		t.Fatalf("%s: enumeration incomplete", name)
	}
	if want := bruteSolutions(m); !reflect.DeepEqual(res.Solutions, want) && len(res.Solutions)+len(want) > 0 {
		t.Fatalf("%s: enumerated %v, brute force %v", name, res.Solutions, want)
	}
}

// fuzzRow is one row of a resume-fuzz model, kept outside any Model so
// the same prefix can be rebuilt fresh.
type fuzzRow struct {
	terms  []Term
	lo, hi int64
}

// resumeModel draws a small model as variable domains plus rows. Half
// the draws are random models; the other half are noc-style worker fixes
// — (x, y) with a wrap binary and a distance variable per observation
// axis, each fixed by (x, y).
func resumeModel(r *rand.Rand) (doms [][2]int64, rows []fuzzRow) {
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
		return doms, rows
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
	return doms, rows
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
// grows stricter between batches. Every Run that reports Complete must
// hold exactly the assignments a fresh Enumerate of the same row prefix
// finds, in the same order, and the brute-force feasible set; a Run that
// overruns the cap must see the fresh call overrun too, with the same
// first Cap assignments. The seed corpus runs under plain go test; go
// test -fuzz explores further seeds.
func FuzzEnumerateResume(f *testing.F) {
	for seed := int64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	// A regression seed: it once caught a recheck reporting recorded
	// solutions it had not yet checked against the newest rows.
	f.Add(int64(-334))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		doms, rows := resumeModel(r)
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
		e := NewEnumerator(m, EnumOptions{Cap: capN, Accept: accept})
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
				if !res.Complete && !e.overflowed() {
					// The budget grows as the planner's does.
					budget *= 2
					continue
				}
				fresh, err := Enumerate(context.Background(), buildFuzzModel(doms, prefix),
					EnumOptions{Cap: capN, Accept: accept}, 0)
				if err != nil {
					t.Fatalf("batch %d: fresh enumerate: %v", b, err)
				}
				if fresh.Complete != res.Complete || !reflect.DeepEqual(fresh.Solutions, res.Solutions) {
					t.Fatalf("batch %d run %d: resumed %v (complete=%v), fresh %v (complete=%v)",
						b, run, res.Solutions, res.Complete, fresh.Solutions, fresh.Complete)
				}
				if res.Complete {
					var want [][]int64
					for _, p := range bruteSolutions(buildFuzzModel(doms, prefix)) {
						if accept(p) {
							want = append(want, p)
						}
					}
					if !reflect.DeepEqual(res.Solutions, want) && len(res.Solutions)+len(want) > 0 {
						t.Fatalf("batch %d: resumed %v, brute force %v", b, res.Solutions, want)
					}
				}
				break
			}
		}
	})
}

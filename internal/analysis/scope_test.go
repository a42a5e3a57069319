package analysis

import "testing"

// TestScopeApplies pins the include-by-default semantics and the
// fixture-name fallback.
func TestScopeApplies(t *testing.T) {
	s := &Scope{
		Exclude: map[string]string{
			"coremap/internal/analysis/...": "the lint suite itself",
			"coremap/internal/hostif":       "boundary package",
		},
		FixtureNames: []string{"ilp", "probe"},
	}
	cases := []struct {
		path, name string
		want       bool
	}{
		{"coremap/internal/ilp", "ilp", true},
		{"coremap/internal/brandnew", "brandnew", true}, // linted by default
		{"coremap/internal/hostif", "hostif", false},
		{"coremap/internal/analysis", "analysis", false},
		{"coremap/internal/analysis/cfg", "cfg", false},
		{"coremap/cmd/coremap", "main", false},
		{"/tmp/testdata/flagged", "ilp", true},
		{"/tmp/testdata/flagged", "other", false},
	}
	for _, c := range cases {
		if got := s.Applies(c.path, c.name); got != c.want {
			t.Errorf("Applies(%q, %q) = %v, want %v", c.path, c.name, got, c.want)
		}
	}
	var nilScope *Scope
	if !nilScope.Applies("anything", "main") {
		t.Error("nil scope must apply everywhere")
	}
}

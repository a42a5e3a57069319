// Command coremaplint is the repository's invariant linter: a
// multichecker that runs the internal/analysis suite — detrange,
// cmerrcheck, ctxflow, hostsafe, poolsafe, gosync, lockcheck, obscheck
// — over go-list package patterns and fails when any determinism,
// error-taxonomy, context, host-access, memory-reuse,
// concurrency-safety or telemetry-naming invariant is violated.
//
// Usage:
//
//	coremaplint [-only a,b] [-format text|json|sarif] [packages]
//
// With no arguments it lints ./..., so both `make lint` and CI run
// exactly `go run ./cmd/coremaplint ./...` from the module root (the
// loader resolves module-local imports through the go command, so the
// working directory must be inside the module). Exit status: 0 clean,
// 1 findings, 2 usage or load failure.
//
// -format json emits the findings as a JSON array; -format sarif emits
// a SARIF 2.1.0 log for code-scanning upload. Both go to stdout and
// both still exit 1 on findings, so CI can upload the artifact and
// fail the job from the same invocation.
//
// Findings are suppressed per line with `//lint:allow <analyzer>
// <reason>`; see DESIGN.md §7 and §12 for each analyzer's invariant
// and the suppression contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"coremap/internal/analysis"
	"coremap/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("coremaplint", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	list := fs.Bool("help-analyzers", false, "print the analyzers and their invariants, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range suite.Analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
			if a.Scope != nil && a.Scope.Doc != "" {
				fmt.Printf("  scope: %s\n", a.Scope.Doc)
			}
		}
		return 0
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "coremaplint: unknown -format %q (have: text, json, sarif)\n", *format)
		return 2
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coremaplint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader()
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coremaplint:", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coremaplint:", err)
		return 2
	}

	switch *format {
	case "json":
		if err := analysis.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "coremaplint:", err)
			return 2
		}
	case "sarif":
		if err := analysis.WriteSARIF(os.Stdout, diags, analyzers); err != nil {
			fmt.Fprintln(os.Stderr, "coremaplint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "coremaplint: %d finding(s) across %d package(s)\n", n, len(pkgs))
		return 1
	}
	return 0
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite.Analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite.Analyzers))
	for _, a := range suite.Analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(suite.Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

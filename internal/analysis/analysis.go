// Package analysis is figlint's engine: a stdlib-only static-analysis
// driver (go/parser + go/types, no x/tools) with a suite of analyzers
// enforcing the invariants the FIG reproduction depends on but the Go
// compiler cannot see — epsilon discipline on similarity scores,
// injected randomness for reproducible figures, deterministic ordering
// of ranked output, context plumbing, and lock hygiene on the serving path.
//
// Vetted exceptions are annotated in source with a pragma on, or on the
// line above, the offending line:
//
//	//figlint:allow floatcmp -- exact tie-break keeps Less a total order
//
// The reason after “--” is mandatory: an allowance without a
// justification is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	Run func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		GlobalRand,
		MapOrder,
		LockSafety,
		LockOrder,
		CtxFlow,
	}
}

// Lookup resolves analyzer names (comma-separated) against the suite.
func Lookup(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to each package, filters findings through the
// //figlint:allow pragmas, and returns the surviving diagnostics sorted by
// position. Malformed pragmas are reported as "pragma" diagnostics.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows, pragmaDiags := collectAllows(pkg, analyzers)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.Info,
				diags:     &raw,
			}
			a.Run(pass)
		}
		for _, d := range raw {
			if allows.allowed(d) {
				continue
			}
			diags = append(diags, d)
		}
		diags = append(diags, pragmaDiags...)
		diags = append(diags, allows.unusedDiags(analyzers)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

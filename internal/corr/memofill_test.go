package corr

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestMemoFillsRecheckGeneration: every memo Put in this package sits
// directly under `if m.gen.Load() == gen`, so a value computed across an
// Append is never stamped with the pre-Append generation. No test races a
// fill against an insert finely enough to catch a missing re-check.
func TestMemoFillsRecheckGeneration(t *testing.T) {
	pkg, _ := build.ImportDir(".", 0) // an error lists no files and fails below
	fset, puts := token.NewFileSet(), 0
	guarded := map[token.Pos]bool{} // statements directly in a re-check body
	for _, name := range pkg.GoFiles {
		f, _ := parser.ParseFile(fset, name, nil, 0) // compiled, so it parses
		ast.Inspect(f, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && types.ExprString(ifs.Cond) == "m.gen.Load() == gen" {
				for _, s := range ifs.Body.List {
					guarded[s.Pos()] = true
				}
			}
			if call, ok := n.(*ast.CallExpr); ok && strings.HasSuffix(types.ExprString(call.Fun), ".Put") {
				if puts++; !guarded[call.Pos()] {
					t.Errorf("%s: memo Put not directly under `if m.gen.Load() == gen`", fset.Position(call.Pos()))
				}
			}
			return true
		})
	}
	if puts == 0 {
		t.Fatal("found no memo Put; the check is vacuous")
	}
}

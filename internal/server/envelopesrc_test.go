package server

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestErrorsUseEnvelope: no handler answers an error outside the /v1 JSON
// envelope. http.Error writes text/plain, and a bare constant WriteHeader
// sends a status with no body; envelopeHandler then masks either as "no
// such route", so no request-level test notices. Only the writeJSON and
// middleware plumbing call WriteHeader, and with a variable status.
func TestErrorsUseEnvelope(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range pkg.GoFiles {
		f, _ := parser.ParseFile(fset, name, nil, 0) // compiled, so it parses
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fun, arg := types.ExprString(call.Fun), call.Args[0]
			_, lit := arg.(*ast.BasicLit)
			constStatus := lit || strings.HasPrefix(types.ExprString(arg), "http.Status")
			if fun == "http.Error" || strings.HasSuffix(fun, ".WriteHeader") && constStatus {
				t.Errorf("%s: %s bypasses the error envelope; use writeError", fset.Position(call.Pos()), fun)
			}
			return true
		})
	}
}

package analysis

import (
	"strings"
	"testing"
)

func TestLookup(t *testing.T) {
	all, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("suite has %d analyzers, want 6", len(all))
	}
	two, err := Lookup("maporder, floatcmp")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "maporder" || two[1].Name != "floatcmp" {
		t.Fatalf("Lookup order not preserved: %v", []string{two[0].Name, two[1].Name})
	}
	if _, err := Lookup("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Lookup(bogus) error = %v, want mention of the unknown name", err)
	}
}

func TestImportPathFor(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	ip, err := l.ImportPathFor(".")
	if err != nil {
		t.Fatal(err)
	}
	if ip != "figfusion/internal/analysis" {
		t.Fatalf("ImportPathFor(.) = %q", ip)
	}
	if _, err := l.ImportPathFor("/"); err == nil {
		t.Fatal("ImportPathFor outside the module must fail")
	}
}

// TestModuleIsClean is the dogfood gate: the suite must report nothing on
// the repository itself (every real finding was fixed or carries a
// justified pragma). CI enforces the same property via `go run
// ./cmd/figlint ./...`; keeping it as a test makes `go test ./...`
// self-contained.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module enumeration looks broken", len(pkgs))
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.PkgPath, e)
		}
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("finding on clean tree: %s", d)
	}
}

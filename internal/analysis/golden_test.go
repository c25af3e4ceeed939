package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// testFixture loads one testdata package, runs the given analyzers, and
// checks the diagnostics against the fixture's `// want "regexp"`
// comments: every want must be hit on its line, and every diagnostic
// must be wanted. Lines without a want comment therefore double as
// negative cases.
func testFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", dir), false)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	for _, e := range pkg.TypeErrors {
		t.Fatalf("fixture %s does not type-check: %v", dir, e)
	}
	diags := Run([]*Package{pkg}, analyzers)

	wantRe := regexp.MustCompile(`want "([^"]*)"`)
	type want struct {
		re      *regexp.Regexp
		line    int
		matched bool
	}
	var wants []*want
	byLine := make(map[int][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := pkg.Fset.Position(c.Pos()).Line
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q at line %d: %v", m[1], line, err)
					}
					w := &want{re: re, line: line}
					wants = append(wants, w)
					byLine[line] = append(byLine[line], w)
				}
			}
		}
	}
	if len(wants) == 0 {
		// A scope fixture: the package must produce no diagnostics at all.
		for _, d := range diags {
			t.Errorf("unexpected diagnostic in want-free fixture: %s", d)
		}
		return
	}
	for _, d := range diags {
		hit := false
		for _, w := range byLine[d.Pos.Line] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic matched want %q at %s line %d", w.re, dir, w.line)
		}
	}
}

func TestFloatCmpGolden(t *testing.T)   { testFixture(t, "floatcmp", FloatCmp) }
func TestGlobalRandGolden(t *testing.T) { testFixture(t, "globalrand", GlobalRand) }
func TestMapOrderGolden(t *testing.T)   { testFixture(t, "maporder", MapOrder) }
func TestLockSafetyGolden(t *testing.T) { testFixture(t, "locksafety", LockSafety) }
func TestLockOrderGolden(t *testing.T)  { testFixture(t, "lockorder", LockOrder) }
func TestCtxFlowGolden(t *testing.T)    { testFixture(t, "ctxflow", CtxFlow) }

// TestCtxFlowMainScope proves package main is exempt: minting the root
// context there produces nothing.
func TestCtxFlowMainScope(t *testing.T) { testFixture(t, "ctxflowmain", CtxFlow) }

// TestAllowPragmas runs the full suite over the pragma fixture: valid
// pragmas suppress, malformed ones are themselves diagnosed.
func TestAllowPragmas(t *testing.T) { testFixture(t, "allow", All()...) }

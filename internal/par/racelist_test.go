package par

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParCallersAreRaceTested: a Range body that writes outside its own
// slots is a data race, which `go test -race` reports from the caller's
// tests. That holds only while every package importing par is in CI's
// race step, so a new importer left out of the list fails here.
func TestParCallersAreRaceTested(t *testing.T) {
	const root = "../.."
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var race string
	for _, line := range strings.Split(string(ci), "\n") {
		if strings.Contains(line, "go test -race ") {
			race = line + " "
		}
	}
	if race == "" {
		t.Fatal("ci.yml has no `go test -race` step")
	}
	importers := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		for _, imp := range pkg.Imports { // non-test imports only
			if imp == "figfusion/internal/par" {
				rel, _ := filepath.Rel(root, path)
				importers["./"+filepath.ToSlash(rel)] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(importers) == 0 {
		t.Fatal("found no importer of internal/par; the walk is broken")
	}
	for pkg := range importers {
		if !strings.Contains(race, " "+pkg+"/... ") && !strings.Contains(race, " "+pkg+" ") {
			t.Errorf("%s imports internal/par but is missing from ci.yml's `go test -race` step", pkg)
		}
	}
}

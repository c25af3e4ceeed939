package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesOrLeavesUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	put := func(content string, fail error) error {
		return Write(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, content); err != nil {
				return err
			}
			return fail
		})
	}
	if err := put("one", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := put("torn", boom); !errors.Is(err, boom) {
		t.Fatalf("failed fill: err = %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "one" {
		t.Fatalf("after a failed write the file holds %q, want the previous content", got)
	}
	if err := put("two", nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "two" {
		t.Fatalf("file holds %q, want the replacement", got)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("directory holds %d entries, want only the file (temporaries must not outlive Write)", len(names))
	}
}

package testutil

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestPreserveFromTmpfs: a file in the tmpfs scratch directory is copied
// intact into os.TempDir(), which is often a different filesystem.
func TestPreserveFromTmpfs(t *testing.T) {
	src := filepath.Join(TmpfsDir(t), "image.img")
	want := bytes.Repeat([]byte("onefile"), 1000)
	if err := os.WriteFile(src, want, 0o644); err != nil {
		t.Fatal(err)
	}
	keep, err := Preserve(src, fmt.Sprintf("onefile-preserve-test-%d.img", os.Getpid()))
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(keep)
	if filepath.Dir(keep) != filepath.Clean(os.TempDir()) {
		t.Fatalf("copy at %s, want it in %s", keep, os.TempDir())
	}
	got, err := os.ReadFile(keep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("copy holds %d bytes, want the %d written", len(got), len(want))
	}
}

package testutil

import (
	"os"
	"path/filepath"
	"testing"
)

// TmpfsDir returns a scratch directory for file-backed device tests,
// preferring memory-backed storage: ONEFILE_FILEDEV_DIR if set, else
// /dev/shm, else the test's TempDir. The preference matters because the
// file device issues msync(MS_SYNC) on every fence — on a disk-backed
// filesystem that turns a crash sweep into an I/O benchmark, while on tmpfs
// it keeps the exact durability semantics at memory speed (the same
// NVM-emulation trick as the paper's /dev/shm heaps). The directory is
// removed when the test finishes.
func TmpfsDir(tb testing.TB) string {
	tb.Helper()
	for _, base := range []string{os.Getenv("ONEFILE_FILEDEV_DIR"), "/dev/shm"} {
		if base == "" {
			continue
		}
		if st, err := os.Stat(base); err != nil || !st.IsDir() {
			continue
		}
		dir, err := os.MkdirTemp(base, "onefile-test-*")
		if err != nil {
			continue
		}
		tb.Cleanup(func() { os.RemoveAll(dir) })
		return dir
	}
	return tb.TempDir()
}

// Preserve copies the file at src into os.TempDir() under name, so a
// post-mortem artefact outlives the test's scratch directory, and returns
// the copy's path. It copies rather than renames: the scratch directory is
// usually on tmpfs, and a rename across filesystems fails.
func Preserve(src, name string) (string, error) {
	data, err := os.ReadFile(src)
	if err != nil {
		return "", err
	}
	keep := filepath.Join(os.TempDir(), name)
	if err := os.WriteFile(keep, data, 0o644); err != nil {
		return "", err
	}
	return keep, nil
}

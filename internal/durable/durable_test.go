package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWriteFileFailureLeavesNoTemp: a write that fails — at the write
// (the disk is full), at the rename, or at the open — removes its temp
// file and leaves the previous file as it was.
func TestWriteFileFailureLeavesNoTemp(t *testing.T) {
	data := []byte("the complete previous file")

	t.Run("write", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full to stand in for a full disk")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "job.ckpt")
		if err := WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		// The next write's temp file lands on a device with no space.
		if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, []byte("never lands")); err == nil {
			t.Fatal("WriteFile onto a full device succeeded")
		}
		if left := tmpFiles(t, dir); len(left) != 0 {
			t.Fatalf("failed write left %v behind", left)
		}
		prev, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("previous file unreadable after a failed write: %v", err)
		}
		if !bytes.Equal(prev, data) {
			t.Fatal("previous file changed by a failed write")
		}
	})

	t.Run("rename", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "job.ckpt")
		// A non-empty directory squatting on the final name: the temp
		// file is written and synced, then the rename is refused.
		if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, data); err == nil {
			t.Fatal("WriteFile over a directory succeeded")
		}
		if left := tmpFiles(t, dir); len(left) != 0 {
			t.Fatalf("failed write left %v behind", left)
		}
	})

	t.Run("open", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "gone")
		if err := WriteFile(filepath.Join(dir, "job.ckpt"), data); err == nil {
			t.Fatal("WriteFile into a missing directory succeeded")
		}
	})
}

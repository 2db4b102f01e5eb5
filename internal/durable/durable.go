// Package durable is the one crash-safe file replace the service and
// snapshot planes share: cache entries, checkpoint images and journal
// rotation all land through WriteFile.
package durable

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path with data crash-safely: the bytes are
// written and fsync'd under path+".tmp", renamed into place, and the
// directory is fsync'd, so a SIGKILL or power loss right after
// WriteFile returns still finds the complete data (or the complete
// previous file — never a torn mix). A failure before the rename
// removes the temp file; once the rename has happened the name is
// gone and only the directory fsync can still fail.
func WriteFile(path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

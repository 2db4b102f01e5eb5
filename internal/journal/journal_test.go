package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func open(t *testing.T, path string) (*Journal, [][]byte) {
	t.Helper()
	j, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func assertReplay(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRoundTripProperty: random record sequences (random lengths,
// including empty and binary payloads) append and replay identically
// across repeated reopen cycles. Seeded, so a failure reproduces.
func TestRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "j.wal")
			var want [][]byte
			// Several sessions: append a random batch, close, reopen, check.
			for session := 0; session < 4; session++ {
				j, got := open(t, path)
				assertReplay(t, got, want)
				for i, n := 0, rng.Intn(20); i < n; i++ {
					p := make([]byte, rng.Intn(300))
					rng.Read(p)
					if err := j.Append(p); err != nil {
						t.Fatal(err)
					}
					want = append(want, p)
				}
				if j.Records() != len(want) {
					t.Fatalf("Records() = %d, want %d", j.Records(), len(want))
				}
				j.Close()
			}
		})
	}
}

// TestTornTail: truncating the file at EVERY byte offset inside the
// final record must replay all earlier records intact and discard the
// tear — never an error, never garbage.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	j, _ := open(t, path)
	want := [][]byte{[]byte("first"), []byte("second record"), []byte("third")}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := len(full) - frameHeader - len(want[2])

	for cut := lastStart + 1; cut < len(full); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tj, got := open(t, torn)
		assertReplay(t, got, want[:2])
		if tj.TornTail() != cut-lastStart {
			t.Fatalf("cut %d: TornTail() = %d, want %d", cut, tj.TornTail(), cut-lastStart)
		}
		// The tear was truncated away: appends continue from a clean tail.
		if err := tj.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		tj.Close()
		_, got2 := open(t, torn)
		assertReplay(t, got2, [][]byte{want[0], want[1], []byte("after")})
	}
}

// TestBitFlipTail: a corrupted byte in the final record invalidates its
// CRC — that record is dropped as a torn tail, earlier ones survive.
func TestBitFlipTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := open(t, path)
	j.Append([]byte("keep me"))
	j.Append([]byte("flip me"))
	j.Close()
	buf, _ := os.ReadFile(path)
	buf[len(buf)-3] ^= 0x40
	os.WriteFile(path, buf, 0o644)
	_, got := open(t, path)
	assertReplay(t, got, [][]byte{[]byte("keep me")})
}

// TestMidFileCorruption: a flipped byte in an EARLIER record stops the
// replay there (everything after cannot be trusted to be framed right)
// and truncates — the suffix is ignored, not parsed.
func TestMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := open(t, path)
	j.Append([]byte("good"))
	j.Append([]byte("soon corrupt"))
	j.Append([]byte("unreachable"))
	j.Close()
	buf, _ := os.ReadFile(path)
	// Flip a payload byte of the middle record.
	off := len(magic) + frameHeader + len("good") + frameHeader
	buf[off] ^= 0x01
	os.WriteFile(path, buf, 0o644)
	_, got := open(t, path)
	assertReplay(t, got, [][]byte{[]byte("good")})
}

// TestRotation: Rotate replaces the contents with the compacted set,
// atomically; a reopen replays the compacted set plus later appends.
func TestRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := open(t, path)
	for i := 0; i < 10; i++ {
		j.Append([]byte(fmt.Sprintf("old-%d", i)))
	}
	compact := [][]byte{[]byte("live-1"), []byte("live-2")}
	if err := j.Rotate(compact); err != nil {
		t.Fatal(err)
	}
	if j.Records() != 2 {
		t.Fatalf("Records() after rotate = %d, want 2", j.Records())
	}
	// Appends after rotation land in the new file.
	if err := j.Append([]byte("post-rotate")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got := open(t, path)
	assertReplay(t, got, [][]byte{[]byte("live-1"), []byte("live-2"), []byte("post-rotate")})
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("rotation left its temp file behind: %v", err)
	}
}

// TestRotateFailureKeepsJournal: a rotation whose write fails (the
// disk is full) returns the error and leaves the old journal in place,
// replayable, and appendable through the journal it was called on.
func TestRotateFailureKeepsJournal(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to stand in for a full disk")
	}
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := open(t, path)
	old := [][]byte{[]byte("old-1"), []byte("old-2")}
	for _, p := range old {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := j.Rotate([][]byte{[]byte("live")}); err == nil {
		t.Fatal("Rotate onto a full device succeeded")
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed rotation left its temp file behind: %v", err)
	}
	if j.Records() != len(old) {
		t.Fatalf("Records() after a failed rotate = %d, want %d", j.Records(), len(old))
	}
	if err := j.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got := open(t, path)
	assertReplay(t, got, append(old, []byte("after")))
}

// TestTornCreation: a file cut off mid-header (crash between create and
// header write) reinitializes as empty; unrelated content is refused.
func TestTornCreation(t *testing.T) {
	dir := t.TempDir()
	for cut := 0; cut < len(magic); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		os.WriteFile(path, []byte(magic[:cut]), 0o644)
		j, got := open(t, path)
		if len(got) != 0 {
			t.Fatalf("cut %d: torn header replayed %d records", cut, len(got))
		}
		if err := j.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	bad := filepath.Join(dir, "not-a-journal")
	os.WriteFile(bad, []byte("something else entirely"), 0o644)
	if _, _, err := Open(bad); err == nil {
		t.Fatal("Open accepted a non-journal file")
	}
}

// TestClosedAppend: appends after Close fail with ErrClosed (the crash
// tests rely on this to silence a dead server's handle).
func TestClosedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := open(t, path)
	j.Close()
	if err := j.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := j.Rotate(nil); err != ErrClosed {
		t.Fatalf("rotate after close: %v, want ErrClosed", err)
	}
}

// TestOversizeRecord: a record beyond the frame limit is refused at
// append time (it could never replay).
func TestOversizeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _ := open(t, path)
	if err := j.Append(make([]byte, maxRecord+1)); err == nil {
		t.Fatal("oversize append accepted")
	}
}

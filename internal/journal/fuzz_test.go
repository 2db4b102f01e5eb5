package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalOpen writes arbitrary bytes as a journal file and opens it.
// Open must never panic. A file it accepts must be accounted for byte
// by byte — the header, then each intact frame, then the torn tail —
// and rotating the replayed records and reopening must replay them
// again with no torn tail.
func FuzzJournalOpen(f *testing.F) {
	recs := [][]byte{[]byte(`{"op":"submitted","id":"j1"}`), {}, bytes.Repeat([]byte{0xa5}, 300)}
	var whole []byte
	whole = append(whole, magic...)
	for _, r := range recs {
		whole = append(whole, frame(r)...)
	}
	f.Add([]byte{})
	f.Add([]byte(magic[:3]))
	f.Add([]byte(magic))
	f.Add([]byte("not a journal"))
	f.Add(whole)
	f.Add(whole[:len(whole)-5])      // torn mid-frame
	f.Add(append(whole, 1, 0, 0, 0)) // torn mid-header
	flipped := bytes.Clone(whole)
	flipped[len(magic)+frameHeader+2] ^= 0x10 // CRC mismatch in the first frame
	f.Add(flipped)
	huge := append([]byte(magic), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0) // length past maxRecord
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, got, err := Open(path)
		if err != nil {
			return
		}
		defer j.Close()
		if len(data) < len(magic) {
			// A torn creation: reinitialized, nothing replayed.
			if len(got) != 0 || j.TornTail() != 0 {
				t.Fatalf("%d-byte header prefix replayed %d records, torn tail %d", len(data), len(got), j.TornTail())
			}
		} else {
			n := len(magic) + j.TornTail()
			for _, r := range got {
				n += frameHeader + len(r)
			}
			if n != len(data) {
				t.Fatalf("header, %d frames and a %d-byte torn tail account for %d of %d bytes", len(got), j.TornTail(), n, len(data))
			}
		}
		if err := j.Rotate(got); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j2, again, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after rotation: %v", err)
		}
		defer j2.Close()
		if j2.TornTail() != 0 {
			t.Fatalf("rotated journal has a %d-byte torn tail", j2.TornTail())
		}
		assertReplay(t, again, got)
	})
}

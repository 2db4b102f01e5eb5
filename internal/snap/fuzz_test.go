package snap_test

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"misp/internal/core"
	"misp/internal/snap"
)

// FuzzSnapshotFork feeds mutated images, seeded with every golden image,
// to Load and Fork. Garbage must come back as an error, never a panic,
// and whatever forks must capture to an image that itself forks and
// captures to the same bytes — decoding normalises (a Bool byte of 7
// reads as true and is written back as 1), so the fixed point is the
// first re-capture, not the input.
//
//	go test -run '^$' -fuzz FuzzSnapshotFork -fuzztime 30s ./internal/snap
func FuzzSnapshotFork(f *testing.F) {
	for _, g := range goldenImages(f) {
		f.Add(g.image)
	}
	// A restore allocates the memory size its image names, so a caller
	// that does not trust an image pins that size with its override, as
	// mispserve pins its whole configuration: a mutated PhysMem is then
	// refused as a structural mismatch instead of allocated.
	physMem := goldenCfg(nil).PhysMem
	pin := func(c *core.Config) { c.PhysMem = physMem }
	f.Fuzz(func(t *testing.T, image []byte) {
		s, err := snap.Load(image)
		if err != nil {
			return
		}
		m, k, err := s.Fork(pin)
		if err != nil {
			return
		}
		once := capture(t, m, k)
		m.Release()
		s, err = snap.Load(once)
		if err != nil {
			t.Fatalf("the capture of a fork does not load: %v", err)
		}
		m, k, err = s.Fork(pin)
		if err != nil {
			t.Fatalf("the capture of a fork does not fork: %v", err)
		}
		defer m.Release()
		if twice := capture(t, m, k); !bytes.Equal(twice, once) {
			t.Fatalf("a fork's capture re-captures to different bytes (%d vs %d)", len(twice), len(once))
		}
	})
}

// TestFuzzSeedPhysMemRefused: the physmem-2tib seed is a current-format
// image naming 2 TiB of memory. It must pass the magic and version
// checks and be refused at the structural comparison FuzzSnapshotFork's
// pin sets up, before a restore allocates anything for it.
func TestFuzzSeedPhysMemRefused(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzSnapshotFork/physmem-2tib")
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
	image, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := snap.Load([]byte(image))
	if err != nil {
		t.Fatalf("the seed does not load: %v", err)
	}
	physMem := goldenCfg(nil).PhysMem
	_, _, err = s.Fork(func(c *core.Config) { c.PhysMem = physMem })
	if want := "structural parameters: top=1x8|mem=2199023255552|"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("fork of the seed: err = %v, want %q", err, want)
	}
}

// Package snap is the deterministic snapshot/fork plane: a versioned
// serialize/restore codec over the complete simulated system (machine +
// kernel), with forking semantics for warm-start sweeps.
//
// A Snapshot holds the encoded byte image, not live state — that is the
// copy-on-write story in its simplest honest form: the encoded page
// images and kernel tables are the shared, immutable side; every Fork
// decodes against the same buffer and materializes a private machine,
// so fork cost scales with captured (resident) state, never with
// configured memory, and no fork can alias another's mutable state.
//
// Capture requires a quiescent system: between Run calls, stopped at a
// SetPause boundary (core.ErrPaused), or stopped by its context's
// cancel (TestCaptureAfterCancel). A faulted, halted, or
// kernel-fatal system has no future to capture and is refused.
//
// Determinism contract (difftested in snapshot_test.go): restoring a
// capture and running to completion produces bit-identical results —
// counters, metrics, and obs event streams — to the uninterrupted run
// under the same loop flavor; capturing the same state twice produces
// identical bytes.
package snap

import (
	"bytes"
	"fmt"
	"os"

	"misp/internal/core"
	"misp/internal/durable"
	"misp/internal/kernel"
	"misp/internal/snap/wire"
)

// magic identifies a snapshot image; Version is the format version,
// bumped on any codec layout change (there is no cross-version
// migration — a snapshot is a cache artifact, not an archival format).
const (
	magic   = "MISPSNP7"
	Version = 7
)

// Snapshot is an encoded machine+kernel image.
type Snapshot struct {
	buf []byte
}

// Capture serializes the complete system state. m and k must be the
// attached pair (k.M == m) at a quiescent stop.
func Capture(m *core.Machine, k *kernel.Kernel) (*Snapshot, error) {
	if k.M != m {
		return nil, fmt.Errorf("snap: kernel is not attached to this machine")
	}
	if err := k.Err(); err != nil {
		return nil, fmt.Errorf("snap: cannot capture with a kernel fault latched: %w", err)
	}
	// The image is retained for as long as its Snapshot (a warm-pool
	// entry lives as long as the pool), so the buffer is sized to it:
	// the memory section exactly, from the resident list, plus stateSlack
	// for everything else.
	resident := m.Phys.Resident()
	c := wire.NewEncoder(m.Phys.SnapshotSize(len(resident)) + stateSlack)
	c.Raw([]byte(magic))
	v := uint32(Version)
	c.U32(&v)
	if err := m.EncodeSnapshot(c, resident); err != nil {
		return nil, err
	}
	if err := k.EncodeSnapshot(c); err != nil {
		return nil, err
	}
	buf := c.Bytes()
	if cap(buf)-len(buf) > stateSlack {
		// The non-memory state (a large event buffer, a PC profile)
		// outgrew the slack and append's doubling over-allocated.
		buf = bytes.Clone(buf)
	}
	return &Snapshot{buf: buf}, nil
}

// stateSlack is the capacity Capture sets aside for the non-memory
// state (header, configuration, sequencers, metrics, kernel tables):
// about twice what an 8-sequencer machine with tracing off encodes. It
// also bounds the unused capacity a Snapshot may retain.
const stateSlack = 64 << 10

// Bytes returns the encoded image (shared, not copied; treat as
// read-only).
func (s *Snapshot) Bytes() []byte { return s.buf }

// Size returns the encoded image size in bytes.
func (s *Snapshot) Size() int { return len(s.buf) }

// Load wraps an encoded image, validating the header.
func Load(buf []byte) (*Snapshot, error) {
	if _, err := header(buf); err != nil {
		return nil, err
	}
	return &Snapshot{buf: buf}, nil
}

// header checks buf's magic and format version and returns a decoder
// positioned after them.
func header(buf []byte) (*wire.Codec, error) {
	if len(buf) < len(magic)+4 || string(buf[:len(magic)]) != magic {
		return nil, fmt.Errorf("snap: not a snapshot image")
	}
	c := wire.NewDecoder(buf[len(magic):])
	var v uint32
	c.U32(&v)
	if v != Version {
		return nil, fmt.Errorf("snap: format version %d, this build reads %d", v, Version)
	}
	return c, nil
}

// Fork materializes a fresh machine+kernel pair from the image. Every
// call returns an independent system; override, if non-nil, may adjust
// run-only configuration (ring policy, limits, fault plane) —
// structural parameters are rejected by the core codec. The returned
// kernel is already attached (SetOS); call Run on the machine to
// continue from the captured point. A rejected image returns its
// machine's memory to the recycler.
func (s *Snapshot) Fork(override func(*core.Config)) (*core.Machine, *kernel.Kernel, error) {
	c, err := header(s.buf)
	if err != nil {
		return nil, nil, err
	}
	m, err := core.RestoreMachine(c, override)
	if err != nil {
		return nil, nil, err
	}
	k, err := kernel.RestoreSnapshot(m, c)
	if err == nil && c.Remaining() != 0 {
		err = fmt.Errorf("snap: %d trailing bytes after decode", c.Remaining())
	}
	if err != nil {
		m.Release()
		return nil, nil, err
	}
	return m, k, nil
}

// SaveFile writes the image to path through durable.WriteFile, so a
// SIGKILL right after SaveFile returns still finds the complete image
// (or the complete previous one — never a torn mix).
func (s *Snapshot) SaveFile(path string) error {
	return durable.WriteFile(path, s.buf)
}

// LoadFile reads and validates an image from path.
func LoadFile(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(buf)
}

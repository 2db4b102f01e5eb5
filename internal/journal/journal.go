// Package journal is a write-ahead log for the service plane: an
// append-only file of length-and-CRC-framed records, fsync'd per
// append, replayed on open, and compacted by atomic rotation.
//
// The durability contract is crash-oriented, not byzantine: a record
// is either fully present (frame intact, CRC matches) or it is part of
// the torn tail a SIGKILL or power loss left behind. Replay stops at
// the first bad frame and truncates the file there — a torn or
// bit-flipped tail is an ignored suffix, never a panic and never a
// parse of garbage. Everything before the tear replays verbatim.
//
// Rotation writes the live record set as a fresh file through
// durable.WriteFile (write, fsync, rename, directory fsync), so a crash
// during rotation leaves either the complete old journal or the
// complete new one.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"misp/internal/durable"
)

// magic identifies a journal file. It is written once at creation; a
// file whose first bytes are a strict prefix of it is a torn creation
// and is reinitialized, while any other content is refused (the path
// points at something that is not ours to truncate).
const magic = "MISPJNL1"

// maxRecord bounds a single record so a corrupt length prefix cannot
// trigger a huge allocation during replay.
const maxRecord = 16 << 20

// frameHeader is the per-record overhead: u32 payload length + u32
// CRC-32C of the payload, little-endian.
const frameHeader = 8

// castagnoli is the CRC polynomial used for record checksums (same
// choice as most storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an append to a closed journal.
var ErrClosed = errors.New("journal: closed")

// Journal is an open write-ahead log positioned for appends.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	closed   bool
	records  int // live record count (replayed + appended)
	tornTail int // bytes discarded from the tail at Open
}

// Open opens (creating if needed) the journal at path and replays
// every intact record in write order. A torn tail — an incomplete or
// CRC-failing final frame — is truncated away and reported via
// TornTail; the records before it are returned intact.
func Open(path string) (*Journal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	buf, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &Journal{f: f, path: path}

	// Header. An empty or torn-at-creation file is reinitialized; a file
	// holding unrelated content is refused rather than destroyed.
	if len(buf) < len(magic) {
		if string(buf) != magic[:len(buf)] {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %s is not a journal file", path)
		}
		if err := j.reinit(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, nil, nil
	}
	if string(buf[:len(magic)]) != magic {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %s is not a journal file", path)
	}

	// Replay: scan frames until the first tear, then truncate there.
	var payloads [][]byte
	off := len(magic)
	for {
		n, payload := nextRecord(buf, off)
		if n == 0 {
			break
		}
		payloads = append(payloads, payload)
		off += n
	}
	if off != len(buf) {
		j.tornTail = len(buf) - off
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(off), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	j.records = len(payloads)
	return j, payloads, nil
}

// nextRecord decodes the frame at off. It returns the consumed byte
// count and the payload copy, or (0, nil) when the bytes at off are
// not a complete, checksum-valid record (the torn tail).
func nextRecord(buf []byte, off int) (int, []byte) {
	if len(buf)-off < frameHeader {
		return 0, nil
	}
	n := binary.LittleEndian.Uint32(buf[off:])
	sum := binary.LittleEndian.Uint32(buf[off+4:])
	if n > maxRecord || len(buf)-off-frameHeader < int(n) {
		return 0, nil
	}
	payload := buf[off+frameHeader : off+frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return 0, nil
	}
	out := make([]byte, n)
	copy(out, payload)
	return frameHeader + int(n), out
}

// reinit truncates the file and writes a fresh header.
func (j *Journal) reinit() error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return err
	}
	if _, err := j.f.Write([]byte(magic)); err != nil {
		return err
	}
	return j.f.Sync()
}

// Append frames payload, writes it, and fsyncs before returning: once
// Append returns nil the record survives SIGKILL.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds the %d limit", len(payload), maxRecord)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if _, err := j.f.Write(frame(payload)); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.records++
	return nil
}

// frame builds the on-disk encoding of one record.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, castagnoli))
	copy(out[frameHeader:], payload)
	return out
}

// Rotate atomically replaces the journal's contents with payloads (the
// caller's compacted live set): the new file lands through
// durable.WriteFile, and appends continue in whatever file is then at
// the journal's path — the rotated one, or the old one when the write
// failed before its rename — never in an unlinked inode. A failed
// Rotate leaves Records at the old count.
func (j *Journal) Rotate(payloads [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	buf := []byte(magic)
	for _, p := range payloads {
		if len(p) > maxRecord {
			return fmt.Errorf("journal: record of %d bytes exceeds the %d limit", len(p), maxRecord)
		}
		buf = append(buf, frame(p)...)
	}
	werr := durable.WriteFile(j.path, buf)
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return errors.Join(werr, err)
	}
	j.f.Close()
	j.f = f
	if werr != nil {
		return werr
	}
	j.records = len(payloads)
	return nil
}

// Close closes the journal; later Appends return ErrClosed. Used by
// shutdown paths and by crash tests to silence a "dead" server's
// handle before a successor reopens the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// Records returns the live record count (replayed plus appended).
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// TornTail returns the byte count Open discarded from a torn tail (0
// for a clean file).
func (j *Journal) TornTail() int { return j.tornTail }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// readAll reads the whole file from the start (the handle may be at an
// arbitrary position).
func readAll(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size())
	n, err := f.ReadAt(buf, 0)
	if n < len(buf) && err != nil {
		return nil, err
	}
	return buf, nil
}

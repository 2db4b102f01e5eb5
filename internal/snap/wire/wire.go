// Package wire implements the snapshot plane's byte codec: one Codec
// type that either writes an image or reads one back. The service
// plane's cache entry files (internal/serve) use it too.
//
// The format is deliberately primitive — fixed-width little-endian
// fields, no varints, no compression, no reflection — because the
// snapshot plane's contract is byte determinism: encoding the same
// machine state twice must produce the same bytes, on every platform,
// forever within a format version. Fixed-width fields and explicit field
// order are the cheapest way to make that auditable.
//
// A snapshotted type states its layout once, as a function that hands a
// pointer to each field, in order, to a *Codec: an encoder appends the
// field's value, a decoder overwrites it with the next value read. The
// same function writes and reads the format, so the two cannot drift
// apart. Code that must know the direction asks Decoding — to allocate
// and validate on the way in, to sort map keys on the way out (Go maps
// iterate in no fixed order; Map and Sorted do it for the caller).
package wire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
)

// ErrTruncated reports a read past the end of the snapshot buffer.
var ErrTruncated = errors.New("wire: truncated snapshot")

// Codec writes or reads one snapshot image.
//
// Decoding is error-sticky: the first failed read, or the first Fail,
// latches an error; every later call leaves its field alone and Count
// returns 0, so a field list runs straight through and its caller
// checks Err once.
type Codec struct {
	buf []byte
	off int // next byte a decoder reads
	dec bool
	err error
}

// NewEncoder returns an encoder whose buffer starts with the given
// capacity.
func NewEncoder(capacity int) *Codec { return &Codec{buf: make([]byte, 0, capacity)} }

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Codec { return &Codec{buf: buf, dec: true} }

// Decoding reports whether c reads (true) or writes (false).
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the encoded buffer.
func (c *Codec) Bytes() []byte { return c.buf }

// Remaining returns the number of bytes a decoder has not read yet.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// Err returns the first decode error, if any.
func (c *Codec) Err() error { return c.err }

// Fail latches err unless an error is already latched. Field lists use
// it for bytes that read cleanly but mean nothing — an unknown
// reference, a structural mismatch — exactly as a short read latches
// ErrTruncated.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// next consumes the next n bytes, or latches ErrTruncated when fewer
// remain. It returns ok == false once any error is latched.
func (c *Codec) next(n int) (b []byte, ok bool) {
	if c.err != nil {
		return nil, false
	}
	if n > len(c.buf)-c.off {
		c.Fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, c.off, len(c.buf)))
		return nil, false
	}
	c.off += n
	return c.buf[c.off-n : c.off], true
}

func (c *Codec) U8(p *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *p)
	} else if b, ok := c.next(1); ok {
		*p = b[0]
	}
}

func (c *Codec) U32(p *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
	} else if b, ok := c.next(4); ok {
		*p = binary.LittleEndian.Uint32(b)
	}
}

func (c *Codec) U64(p *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	} else if b, ok := c.next(8); ok {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// Int codes a host int as a fixed 64-bit value.
func (c *Codec) Int(p *int) {
	v := uint64(*p)
	c.U64(&v)
	if c.dec {
		*p = int(v)
	}
}

// Bool codes a bool as one byte; any nonzero byte decodes as true.
func (c *Codec) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	if c.dec {
		*p = v != 0
	}
}

// F64 codes the exact IEEE-754 bit pattern (NaN payloads included).
func (c *Codec) F64(p *float64) {
	v := math.Float64bits(*p)
	c.U64(&v)
	if c.dec {
		*p = math.Float64frombits(v)
	}
}

// Enum codes a small enumeration as one byte.
func Enum[T ~uint8](c *Codec, p *T) {
	v := uint8(*p)
	c.U8(&v)
	if c.dec {
		*p = T(v)
	}
}

// U64s codes the elements of a uint64 array (registers, counters) in
// order, with no length prefix: the length is the format's, or a Count
// coded before it.
func (c *Codec) U64s(s []uint64) {
	if !c.dec {
		for _, v := range s {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
		}
	} else if b, ok := c.next(8 * len(s)); ok {
		for i := range s {
			s[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
}

// F64s is U64s for float64 arrays.
func (c *Codec) F64s(s []float64) {
	for i := range s {
		c.F64(&s[i])
	}
}

// Raw codes b's bytes with no length prefix — for fixed-size images
// (physical frames) whose length is implied by the format. Decoding
// fills b.
func (c *Codec) Raw(b []byte) {
	if !c.dec {
		c.buf = append(c.buf, b...)
	} else if src, ok := c.next(len(b)); ok {
		copy(b, src)
	}
}

// Count codes a length prefix: encoding writes n and returns it,
// decoding reads a count and returns it. Every element or byte a count
// introduces takes at least one byte of the image, so a decoded count
// larger than the bytes left fails (and returns 0, as every count does
// once an error is latched): no count can size an allocation beyond the
// input's own length.
func (c *Codec) Count(n int) int {
	v := uint64(n)
	c.U64(&v)
	if !c.dec {
		return n
	}
	if c.err == nil && v > uint64(c.Remaining()) {
		c.Fail(fmt.Errorf("wire: count %d exceeds the %d bytes left", v, c.Remaining()))
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

// Blob codes a length-prefixed byte slice. Decoding stores a fresh copy,
// non-nil even when empty.
func (c *Codec) Blob(p *[]byte) {
	n := c.Count(len(*p))
	if !c.dec {
		c.buf = append(c.buf, *p...)
	} else if b, ok := c.next(n); ok {
		*p = make([]byte, n)
		copy(*p, b)
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(p *string) {
	n := c.Count(len(*p))
	if !c.dec {
		c.buf = append(c.buf, *p...)
	} else if b, ok := c.next(n); ok {
		*p = string(b)
	}
}

// Slice codes *s as a count followed by each element, coded by each.
// Decoding replaces *s with that many zero elements (nil for none) and
// fills them in order; an error stops it with *s cut to the elements
// begun.
func Slice[S ~[]E, E any](c *Codec, s *S, each func(*E)) {
	n := c.Count(len(*s))
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make(S, n)
		}
	}
	for i := range *s {
		if c.err != nil {
			*s = (*s)[:i]
			return
		}
		each(&(*s)[i])
	}
}

// Sorted codes a keyed collection as a count, then each key in
// ascending order, each followed by whatever entry codes for it.
// Encoding sorts and writes keys; decoding ignores keys, reads the key
// set instead, and leaves installing each entry to entry.
func Sorted[K cmp.Ordered](c *Codec, keys []K, key func(*K), entry func(K)) {
	if c.dec {
		keys = nil
	} else {
		slices.Sort(keys)
	}
	n := c.Count(len(keys))
	var k K // declared once: key gets its address, so a per-key variable would escape per key
	for i := 0; i < n && c.err == nil; i++ {
		if !c.dec {
			k = keys[i]
		}
		key(&k)
		if c.err == nil {
			entry(k)
		}
	}
}

// Map is Sorted over the keys of m.
func Map[K cmp.Ordered, V any](c *Codec, m map[K]V, key func(*K), entry func(K)) {
	Sorted(c, slices.Collect(maps.Keys(m)), key, entry)
}

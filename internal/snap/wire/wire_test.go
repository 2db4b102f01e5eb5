package wire

import (
	"errors"
	"math"
	"testing"
)

// fields is one of everything the codec can code, with a field list
// that runs both ways.
type fields struct {
	u8    uint8
	u32   uint32
	u64   uint64
	i     int
	t, f  bool
	pi    float64
	nan   float64
	raw   [3]byte
	blob  []byte
	empty []byte
	str   string
	enum  kind
	arr   [2]uint64
	list  []uint32
	set   map[string]uint64
}

type kind uint8

func (x *fields) code(c *Codec) {
	c.U8(&x.u8)
	c.U32(&x.u32)
	c.U64(&x.u64)
	c.Int(&x.i)
	c.Bool(&x.t)
	c.Bool(&x.f)
	c.F64(&x.pi)
	c.F64(&x.nan)
	c.Raw(x.raw[:])
	c.Blob(&x.blob)
	c.Blob(&x.empty)
	c.String(&x.str)
	Enum(c, &x.enum)
	c.U64s(x.arr[:])
	Slice(c, &x.list, c.U32)
	Map(c, x.set, c.String, func(k string) {
		v := x.set[k]
		c.U64(&v)
		if c.Decoding() {
			x.set[k] = v
		}
	})
}

func TestRoundTrip(t *testing.T) {
	in := fields{
		u8: 0xAB, u32: 0xDEADBEEF, u64: ^uint64(0), i: -7, t: true,
		pi: math.Pi, nan: math.Float64frombits(0x7FF8_0000_0000_0001), // NaN payload
		raw: [3]byte{1, 2, 3}, blob: []byte("blob"), empty: []byte{}, str: "héllo",
		enum: 9, arr: [2]uint64{4, 5}, list: []uint32{6, 7, 8},
		set: map[string]uint64{"b": 2, "a": 1, "c": 3},
	}
	enc := NewEncoder(0)
	in.code(enc)

	out := fields{set: map[string]uint64{}}
	dec := NewDecoder(enc.Bytes())
	out.code(dec)
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if dec.Remaining() != 0 {
		t.Fatalf("%d bytes left over", dec.Remaining())
	}
	if bits := math.Float64bits(out.nan); bits != 0x7FF8_0000_0000_0001 {
		t.Fatalf("NaN payload not preserved: %#x", bits)
	}
	if out.u8 != in.u8 || out.u32 != in.u32 || out.u64 != in.u64 || out.i != in.i ||
		out.t != in.t || out.f != in.f || out.pi != in.pi || out.raw != in.raw ||
		string(out.blob) != "blob" || out.empty == nil || len(out.empty) != 0 ||
		out.str != in.str || out.enum != in.enum || out.arr != in.arr ||
		len(out.list) != 3 || out.list[2] != 8 || len(out.set) != 3 || out.set["c"] != 3 {
		t.Fatalf("decoded %+v, encoded %+v", out, in)
	}

	// Map writes keys in ascending order, whatever the map's own order.
	again := NewEncoder(0)
	out.code(again)
	if string(again.Bytes()) != string(enc.Bytes()) {
		t.Fatal("re-encoding the decoded fields changed the bytes")
	}
}

func TestTruncation(t *testing.T) {
	v := uint64(7)
	enc := NewEncoder(0)
	enc.U64(&v)
	dec := NewDecoder(enc.Bytes()[:4])
	got := uint64(42)
	dec.U64(&got)
	if got != 42 {
		t.Fatalf("truncated U64 overwrote its field with %d", got)
	}
	if !errors.Is(dec.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", dec.Err())
	}
	// The error is sticky: later reads leave their fields alone.
	w := uint32(5)
	dec.U32(&w)
	if w != 5 {
		t.Fatalf("read after error = %d", w)
	}
}

// TestLenLimit: a count can never claim more elements than there are
// bytes left, so it cannot size an allocation beyond the input.
func TestLenLimit(t *testing.T) {
	enc := NewEncoder(0)
	enc.Count(1000)
	enc.Raw(make([]byte, 999))
	dec := NewDecoder(enc.Bytes())
	if n := dec.Count(0); n != 0 || dec.Err() == nil {
		t.Fatalf("count over the bytes left = %d, err %v", n, dec.Err())
	}

	enc.Raw([]byte{0})
	dec = NewDecoder(enc.Bytes())
	if n := dec.Count(0); n != 1000 || dec.Err() != nil {
		t.Fatalf("Count = %d, %v; want 1000", n, dec.Err())
	}
}

func TestBlobLengthBomb(t *testing.T) {
	enc := NewEncoder(0)
	// A terabyte-scale blob's length prefix, coded as Count codes it but
	// not through Count's int, which cannot hold it on a 32-bit host.
	claim := uint64(1 << 40)
	enc.U64(&claim)
	dec := NewDecoder(enc.Bytes())
	var b []byte
	dec.Blob(&b)
	if b != nil {
		t.Fatalf("bomb blob = %d bytes", len(b))
	}
	if dec.Err() == nil {
		t.Fatal("bomb blob latched no error")
	}
}

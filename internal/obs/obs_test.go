package obs

import (
	"bytes"
	"strings"
	"testing"

	"misp/internal/snap/wire"
)

func ev(ts uint64, seq int, k Kind) Event {
	return Event{TS: ts, Seq: int32(seq), Kind: k, A: uint64(ts), B: 0}
}

// smallBus returns an enabled bus holding at most max events, so a
// test can fill one past its cap without emitting EventCap events.
func smallBus(max int) *Bus {
	b := NewBus(true)
	b.max = max
	return b
}

// TestBusDropNewest: a bus filled past its cap keeps the head of the
// run, counts the rest as dropped and still counts every kind exactly,
// and its snapshot round-trips byte for byte with the loss recorded.
func TestBusDropNewest(t *testing.T) {
	b := smallBus(4)
	for i := 0; i < 6; i++ {
		b.Emit(ev(uint64(i), 0, KYield))
	}
	b.Emit(ev(6, 1, KSignalSend))
	if b.Len() != 4 || b.Dropped() != 3 {
		t.Fatalf("Len/Dropped = %d/%d, want 4/3", b.Len(), b.Dropped())
	}
	for i, e := range b.Events() {
		if e.TS != uint64(i) {
			t.Fatalf("event %d has TS %d: the head of the run must be kept", i, e.TS)
		}
	}
	if y, s := b.KindCount(KYield), b.KindCount(KSignalSend); y != 6 || s != 1 {
		t.Fatalf("KindCount yield/signal-send = %d/%d, want 6/1", y, s)
	}

	enc := wire.NewEncoder(256)
	b.Snapshot(enc)
	back := NewBus(false)
	dec := wire.NewDecoder(enc.Bytes())
	back.Snapshot(dec)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if dec.Remaining() != 0 || !back.Enabled() || back.Dropped() != 3 || back.Len() != 4 || back.KindCount(KYield) != 6 {
		t.Fatalf("decoded bus: enabled %v, %d events, %d dropped, %d yields, %d bytes left",
			back.Enabled(), back.Len(), back.Dropped(), back.KindCount(KYield), dec.Remaining())
	}
	again := wire.NewEncoder(256)
	back.Snapshot(again)
	if !bytes.Equal(again.Bytes(), enc.Bytes()) {
		t.Fatal("a decoded bus re-encodes to different bytes")
	}
}

// TestBusSnapshotRefusesOverfull: an image holding more events than the
// cap is refused, not decoded into a buffer Emit would overrun.
func TestBusSnapshotRefusesOverfull(t *testing.T) {
	b := smallBus(8)
	for i := 0; i < 5; i++ {
		b.Emit(ev(uint64(i), 0, KYield))
	}
	enc := wire.NewEncoder(256)
	b.Snapshot(enc)
	dec := wire.NewDecoder(enc.Bytes())
	smallBus(4).Snapshot(dec)
	if dec.Err() == nil {
		t.Fatal("a 5-event image decoded into a 4-event bus")
	}
}

func TestKindCountExactUnderLoss(t *testing.T) {
	b := smallBus(2)
	for i := 0; i < 10; i++ {
		b.Emit(ev(uint64(i), 0, KSignalSend))
	}
	b.Emit(ev(11, 0, KYield))
	if got := b.KindCount(KSignalSend); got != 10 {
		t.Fatalf("KindCount(signal-send) = %d, want 10 (must count dropped events)", got)
	}
	if got := b.KindCount(KYield); got != 1 {
		t.Fatalf("KindCount(yield) = %d, want 1", got)
	}
	if got := b.KindCount(KSret); got != 0 {
		t.Fatalf("KindCount(sret) = %d, want 0", got)
	}
}

func TestDisabledPathsDoNotAllocate(t *testing.T) {
	bus := NewBus(false)
	reg := NewRegistry()
	c := reg.Counter("c")
	h := reg.Histogram("h")
	// Pre-fill an enabled bus to capacity: steady-state emission past
	// the cap must not allocate either.
	full := smallBus(8)
	for i := 0; i < 8; i++ {
		full.Emit(ev(uint64(i), 0, KYield))
	}
	e := ev(99, 1, KSignalSend)
	if n := testing.AllocsPerRun(1000, func() {
		bus.Emit(e)
		c.Inc()
		h.Observe(12345)
		full.Emit(e)
	}); n != 0 {
		t.Fatalf("hot paths allocated %.1f times per op, want 0", n)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 1000, 1_000_000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1_001_006 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1_000_000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); m < 166834 || m > 166835 {
		t.Fatalf("mean = %f", m)
	}
	// Quantiles resolve to bucket upper bounds, clamped to max.
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 = %d", q)
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := h.Quantile(1); q != 1_000_000 {
		t.Fatalf("p100 = %d", q)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != len(counts) || len(bounds) == 0 {
		t.Fatalf("buckets: %v %v", bounds, counts)
	}
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n != h.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", n, h.Count())
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read as zero")
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(7)
	r.Counter("a.count").Inc()
	r.Histogram("c.lat").Observe(100)
	if v := r.CounterValue("b.count"); v != 7 {
		t.Fatalf("CounterValue = %d", v)
	}
	if v := r.CounterValue("absent"); v != 0 {
		t.Fatalf("absent counter = %d", v)
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "a.count" || names[2] != "c.lat" {
		t.Fatalf("Names = %v", names)
	}
	dump := r.String()
	for _, want := range []string{"counter a.count", "counter b.count", "hist    c.lat", "p99=100"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestProfile(t *testing.T) {
	p := NewProfile()
	p.Add(0x100, 10)
	p.Add(0x100, 10)
	p.Add(0x108, 50)
	if p.TotalCycles() != 70 {
		t.Fatalf("total = %d", p.TotalCycles())
	}
	s := p.Samples()
	if len(s) != 2 || s[0].PC != 0x108 || s[0].Cycles != 50 || s[1].Count != 2 {
		t.Fatalf("samples = %+v", s)
	}
	sym := Symbolizer(map[string]uint64{"f": 0x100, "g": 0x200})
	if got := sym(0x100); got != "f" {
		t.Fatalf("sym(0x100) = %q", got)
	}
	if got := sym(0x108); got != "f+0x8" {
		t.Fatalf("sym(0x108) = %q", got)
	}
	if got := sym(0x50); got != "?" {
		t.Fatalf("sym(0x50) = %q", got)
	}
	var b strings.Builder
	if err := p.WriteTo(&b, sym, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "f+0x8") || strings.Contains(out, "\n0x100") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestHostSectionExcludedFromIdentitySurfaces(t *testing.T) {
	r := NewRegistry()
	r.Counter(MInstrs).Set(7)
	r.Counter(MSBBuilds).Set(3)
	r.Counter(MSBRuns).Set(99)

	dump := r.String()
	if strings.Contains(dump, "host.") {
		t.Fatalf("host section leaked into String():\n%s", dump)
	}
	if !strings.Contains(dump, MInstrs) {
		t.Fatalf("simulation metric missing from String():\n%s", dump)
	}
	for _, n := range r.Names() {
		if IsHost(n) {
			t.Fatalf("Names() returned host metric %q", n)
		}
	}
	hn := r.HostNames()
	if len(hn) != 2 || hn[0] != MSBRuns && hn[1] != MSBRuns {
		t.Fatalf("HostNames() = %v", hn)
	}
	var hb strings.Builder
	if _, err := r.WriteHostTo(&hb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hb.String(), MSBBuilds) {
		t.Fatalf("WriteHostTo missing %s:\n%s", MSBBuilds, hb.String())
	}

	// Snapshot bytes must be identical with and without host counters:
	// a compiled run and an oracle run differ only in the host section.
	bare := NewRegistry()
	bare.Counter(MInstrs).Set(7)
	w1 := wire.NewEncoder(256)
	r.Snapshot(w1)
	w2 := wire.NewEncoder(256)
	bare.Snapshot(w2)
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("host counters changed the registry snapshot encoding")
	}
}

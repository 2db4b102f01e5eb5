package obs

import (
	"fmt"

	"misp/internal/snap/wire"
)

// Snapshot codecs for the observability subsystem. The obs state is
// part of the machine's architectural output — the experiment tables
// read the metrics registry and the difftest oracles compare event
// streams — so a restored run must continue counters, histograms, the
// event buffer (including its drop count), and the PC profile exactly
// where the capture left off.

// Snapshot codes the bus: the recording flag, the loss and kind
// counters, and the buffered events. The cap is EventCap, not coded;
// decoding refuses a buffer longer than it.
func (b *Bus) Snapshot(c *wire.Codec) {
	c.Bool(&b.enabled)
	c.U64(&b.dropped)
	c.U64s(b.kindCount[:])
	wire.Slice(c, &b.buf, func(e *Event) {
		seq := uint64(uint32(e.Seq))
		c.U64(&e.TS)
		c.U64(&seq)
		wire.Enum(c, &e.Kind)
		c.U64(&e.A)
		c.U64(&e.B)
		if c.Decoding() {
			e.Seq = int32(uint32(seq))
		}
	})
	if len(b.buf) > b.max {
		c.Fail(fmt.Errorf("obs: snapshot bus holds %d events, max %d", len(b.buf), b.max))
	}
}

// Snapshot codes the registry with names sorted, so identical state
// always encodes to identical bytes. The host section is excluded: host
// metrics describe the simulator process that produced the snapshot,
// not the simulated machine, and including them would break
// byte-identity across host-side optimization knobs. Decoding gets or
// creates each metric by name, so handles resolved before or after the
// decode see the same objects.
func (g *Registry) Snapshot(c *wire.Codec) {
	wire.Sorted(c, simNames(g.counters), c.String, func(name string) {
		c.U64(&g.Counter(name).v)
	})
	wire.Sorted(c, simNames(g.hists), c.String, func(name string) {
		h := g.Histogram(name)
		c.U64(&h.count)
		c.U64(&h.sum)
		c.U64(&h.min)
		c.U64(&h.max)
		c.U64s(h.buckets[:])
	})
}

// simNames returns the simulation-section names of a metric set.
func simNames[T any](set map[string]*T) []string {
	var names []string
	for name := range set {
		if !IsHost(name) {
			names = append(names, name)
		}
	}
	return names
}

// Snapshot codes the PC profile in PC order.
func (p *Profile) Snapshot(c *wire.Codec) {
	wire.Map(c, p.pcs, c.U64, func(pc uint64) {
		st := p.pcs[pc]
		if st == nil {
			st = &PCStat{}
			p.pcs[pc] = st
		}
		c.U64(&st.Cycles)
		c.U64(&st.Count)
	})
}

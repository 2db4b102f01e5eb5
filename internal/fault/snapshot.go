package fault

import (
	"fmt"

	"misp/internal/snap/wire"
)

// Snapshot codes the plan: its resolved configuration and its stream
// state — splitmix64 positions, countdowns, counts, and the injection
// log — verbatim. Decoding deliberately does NOT run NewPlan's gap
// initialization: those draws were already taken when the captured plan
// was built, and redrawing them would desync every stream from the
// captured schedule. Only the kind subsets, a pure function of the
// configuration, are derived again.
func (p *Plan) Snapshot(c *wire.Codec) {
	SnapshotConfig(c, &p.cfg)
	if c.Decoding() && !p.cfg.Enabled() {
		c.Fail(fmt.Errorf("fault: snapshot plan has disabled config"))
	}
	c.U64s(p.rng[:])
	c.U64s(p.gap[:])
	c.U64(&p.n)
	c.U64s(p.counts[:])
	wire.Slice(c, &p.log, func(r *Record) {
		c.U64(&r.N)
		wire.Enum(c, &r.Kind)
		c.U64(&r.Arg)
	})
	if c.Decoding() {
		p.resolveKinds()
	}
}

// SnapshotConfig codes a fault configuration (a plan's own, and the
// machine codec's Config.Fault field).
func SnapshotConfig(c *wire.Codec, cfg *Config) {
	c.U64(&cfg.Seed)
	c.U64s(cfg.Period[:])
	c.U64s(cfg.Max[:])
	c.U64(&cfg.SignalDelay)
	c.U64(&cfg.StallCycles)
}

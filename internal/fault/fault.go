// Package fault is the simulator's deterministic fault-injection
// plane. A Plan is seeded once per machine and consulted at a small set
// of architecturally meaningful points in the core loop (instruction
// retirement, SIGNAL issue, proxy-request issue). Every decision is
// drawn from per-kind splitmix64 streams keyed only by the seed — no
// global rand, no host state — so the same seed and config produce a
// byte-identical fault schedule under both the legacy and the fast
// execution loop, across hosts, and across -parallel sweep workers.
//
// The plane injects the failure modes a MISP machine must survive
// (paper §2.3–2.5): lost or delayed ingress signals, lost proxy
// requests, spurious yield-condition firings, stalled or permanently
// dead AMSs, corrupted or flushed TLB entries, and physical-memory bit
// flips. The core records each injection in the Plan's log, which the
// difftests compare byte-for-byte between loops.
package fault

import (
	"fmt"
	"strings"
)

// Kind enumerates the injectable fault kinds.
type Kind uint8

const (
	// SignalDrop loses an egress SIGNAL: the instruction retires and the
	// sender observes success, but the continuation never arrives.
	SignalDrop Kind = iota
	// SignalDelay defers a SIGNAL's visibility by Config.SignalDelay
	// cycles beyond the architectural signal latency.
	SignalDelay
	// ProxyDrop loses an AMS's proxy request in flight: the AMS parks in
	// wait-proxy but the OMS never learns about it.
	ProxyDrop
	// SpuriousYield fires a registered yield condition with no event
	// behind it (argument registers zero).
	SpuriousYield
	// AMSStall freezes an AMS for Config.StallCycles cycles.
	AMSStall
	// AMSKill permanently kills an AMS (it never retires again).
	AMSKill
	// TLBFlush discards a sequencer's cached translations.
	TLBFlush
	// TLBCorrupt downgrades a resident TLB entry's write permission,
	// forcing a spurious permission walk on the next store through it.
	TLBCorrupt
	// MemBitFlip flips one bit of simulated physical memory.
	MemBitFlip

	NumKinds
)

var kindNames = [NumKinds]string{
	"signal-drop", "signal-delay", "proxy-drop", "spurious-yield",
	"ams-stall", "ams-kill", "tlb-flush", "tlb-corrupt", "mem-bitflip",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "fault?"
}

// ParseKinds reads fault kinds by their String names.
func ParseKinds(names []string) ([]Kind, error) {
	var kinds []Kind
next:
	for _, name := range names {
		for k := Kind(0); k < NumKinds; k++ {
			if k.String() == name {
				kinds = append(kinds, k)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown fault kind %q (known: %v)", name, Kinds())
	}
	return kinds, nil
}

// Kinds returns every injectable kind, in injection-priority order.
func Kinds() []Kind {
	ks := make([]Kind, NumKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Config parameterizes a Plan. The zero value disables injection
// entirely (Enabled() == false), which is the production default: a
// machine with a zero Config carries no plan and pays nothing.
type Config struct {
	// Seed keys every per-kind decision stream.
	Seed uint64
	// Period[k] is the mean retirement/issue interval between
	// injections of kind k; 0 disables the kind. The actual gap is
	// drawn uniformly from [1, 2*Period-1], so kinds with equal periods
	// do not phase-lock.
	Period [NumKinds]uint64
	// Max[k] caps the number of injections of kind k (0 = unlimited).
	Max [NumKinds]uint64
	// SignalDelay is the extra visibility delay for SignalDelay
	// injections, in cycles (default 25000 — five signal latencies).
	SignalDelay uint64
	// StallCycles is the AMSStall freeze duration (default 2_000_000 —
	// two default timer intervals, so the watchdog horizon dominates).
	StallCycles uint64
}

// Enabled reports whether any fault kind is active.
func (c *Config) Enabled() bool {
	for _, p := range c.Period {
		if p != 0 {
			return true
		}
	}
	return false
}

// Uniform returns a Config enabling the given kinds (all of them when
// none are named) with the same mean period.
func Uniform(seed, period uint64, kinds ...Kind) Config {
	c := Config{Seed: seed}
	if len(kinds) == 0 {
		kinds = Kinds()
	}
	for _, k := range kinds {
		c.Period[k] = period
	}
	return c
}

// Record is one injection drawn from the plan. N is the 1-based global
// injection sequence number; Arg is the raw 64-bit draw the consumer
// interprets (delay target, corruption address, ...).
type Record struct {
	N    uint64
	Kind Kind
	Arg  uint64
}

func (r Record) String() string {
	return fmt.Sprintf("#%d %s arg=0x%x", r.N, r.Kind, r.Arg)
}

// SignalOp is OnSignal's verdict for one SIGNAL issue.
type SignalOp uint8

const (
	SignalOK SignalOp = iota // deliver normally
	SignalDropped
	SignalDelayed
)

// Plan is the seeded injection schedule attached to one machine. It is
// not safe for concurrent use; each machine owns its own plan (the
// sweep harness builds one machine — hence one plan — per job).
type Plan struct {
	cfg    Config
	rng    [NumKinds]uint64 // splitmix64 states, one stream per kind
	gap    [NumKinds]uint64 // decisions remaining until the next injection
	n      uint64
	counts [NumKinds]uint64
	log    []Record

	// retireKinds/amsKinds are the Kind subsets OnRetire consults,
	// resolved once so disabled kinds cost nothing per retirement.
	retireKinds []Kind
	amsKinds    []Kind
}

// NewPlan builds the schedule for cfg, or returns nil when injection
// is disabled.
func NewPlan(cfg Config) *Plan {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.SignalDelay == 0 {
		cfg.SignalDelay = 25_000
	}
	if cfg.StallCycles == 0 {
		cfg.StallCycles = 2_000_000
	}
	p := &Plan{cfg: cfg}
	for k := Kind(0); k < NumKinds; k++ {
		// Distinct streams per kind: mixing the kind into the seed keeps
		// one kind's draw count from perturbing another's schedule.
		p.rng[k] = splitmixSeed(cfg.Seed, uint64(k))
		if cfg.Period[k] != 0 {
			p.gap[k] = p.interval(k)
		}
	}
	p.resolveKinds()
	return p
}

// resolveKinds derives the kind subsets OnRetire consults from the
// configuration.
func (p *Plan) resolveKinds() {
	p.amsKinds, p.retireKinds = nil, nil
	for _, k := range []Kind{AMSStall, AMSKill} {
		if p.cfg.Period[k] != 0 {
			p.amsKinds = append(p.amsKinds, k)
		}
	}
	for _, k := range []Kind{SpuriousYield, TLBFlush, TLBCorrupt, MemBitFlip} {
		if p.cfg.Period[k] != 0 {
			p.retireKinds = append(p.retireKinds, k)
		}
	}
}

// Config returns the plan's resolved configuration.
func (p *Plan) Config() Config { return p.cfg }

// StallCycles is the resolved AMSStall freeze duration.
func (p *Plan) StallCycles() uint64 { return p.cfg.StallCycles }

// SignalDelay is the resolved SignalDelay extra latency.
func (p *Plan) SignalDelay() uint64 { return p.cfg.SignalDelay }

// next draws from kind k's stream.
func (p *Plan) next(k Kind) uint64 { return splitmix(&p.rng[k]) }

// interval draws the gap until kind k's next injection:
// uniform in [1, 2*Period-1] (mean Period).
func (p *Plan) interval(k Kind) uint64 {
	period := p.cfg.Period[k]
	if period <= 1 {
		return 1
	}
	return 1 + p.next(k)%(2*period-1)
}

// tick advances kind k's countdown by one decision point and fires when
// it expires, returning the injection's argument draw.
func (p *Plan) tick(k Kind) (uint64, bool) {
	if p.cfg.Period[k] == 0 {
		return 0, false
	}
	if lim := p.cfg.Max[k]; lim != 0 && p.counts[k] >= lim {
		return 0, false
	}
	if p.gap[k] > 1 {
		p.gap[k]--
		return 0, false
	}
	p.gap[k] = p.interval(k)
	arg := p.next(k)
	p.counts[k]++
	p.n++
	p.log = append(p.log, Record{N: p.n, Kind: k, Arg: arg})
	return arg, true
}

// OnSignal is consulted once per SIGNAL issue. Drop takes precedence
// over delay; delay returns the extra cycles.
func (p *Plan) OnSignal() (SignalOp, uint64) {
	if _, ok := p.tick(SignalDrop); ok {
		return SignalDropped, 0
	}
	if _, ok := p.tick(SignalDelay); ok {
		return SignalDelayed, p.cfg.SignalDelay
	}
	return SignalOK, 0
}

// OnProxyRequest is consulted once per AMS proxy-request issue and
// reports whether the request is lost in flight.
func (p *Plan) OnProxyRequest() bool {
	_, ok := p.tick(ProxyDrop)
	return ok
}

// OnRetire is consulted once per retired instruction. At most one kind
// fires per retirement (priority: AMS stall, AMS kill, spurious yield,
// TLB flush, TLB corrupt, bit flip); kinds behind the firing one do not
// advance this retirement, which keeps their streams independent of
// injection coincidence.
func (p *Plan) OnRetire(isAMS bool) (Kind, uint64, bool) {
	if isAMS {
		for _, k := range p.amsKinds {
			if arg, ok := p.tick(k); ok {
				return k, arg, true
			}
		}
	}
	for _, k := range p.retireKinds {
		if arg, ok := p.tick(k); ok {
			return k, arg, true
		}
	}
	return 0, 0, false
}

// Counts returns per-kind injection counts so far.
func (p *Plan) Counts() [NumKinds]uint64 { return p.counts }

// Total returns the total number of injections so far.
func (p *Plan) Total() uint64 { return p.n }

// Log returns the injection records in order.
func (p *Plan) Log() []Record { return p.log }

// LogString renders the schedule canonically, one record per line —
// the byte-comparable artifact the loop difftests assert on.
func (p *Plan) LogString() string {
	var b strings.Builder
	for _, r := range p.log {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// splitmixSeed derives stream k's initial state from the plan seed.
func splitmixSeed(seed, k uint64) uint64 {
	s := seed + (k+1)*0x9e3779b97f4a7c15
	return splitmix(&s)
}

// splitmix advances a splitmix64 state and returns the next value
// (Steele, Lea & Flood; the standard constants).
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

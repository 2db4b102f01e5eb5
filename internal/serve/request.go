// Package serve is the simulation-as-a-service plane: a long-running
// daemon that accepts run and sweep requests over HTTP/JSON, schedules
// them on a bounded job queue with admission control, executes them on
// the existing sweep worker machinery with per-job isolated machines,
// and serves the resulting artifacts from a content-addressed result
// cache.
//
// The cache is sound because the simulator is deterministic: a run is a
// pure function of its canonical request — topology, workload, size,
// signal cost, fault plan — and is bit-identical across host worker
// counts and across the legacy and fast execution loops (PR 2–4
// difftests). The cache key is therefore a hash of the canonical
// request with the one execution-strategy knob (sweep parallelism)
// excluded: a byte-identical request never simulates twice, and
// artifacts fetched from the cache are byte-identical to a fresh
// simulation's.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"misp/internal/core"
	"misp/internal/fault"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// KindRun simulates one workload on one machine configuration and
// produces summary.json, counters.csv, metrics.txt, and (with Trace)
// trace.json. KindSweep runs the standard evaluation grid (every app ×
// 1P/MISP/SMP) and produces the paper tables as CSV.
const (
	KindRun   = "run"
	KindSweep = "sweep"
)

// Request describes one unit of service work. The zero value is not
// valid; Canonicalize applies defaults and validates.
//
// Fields under "result-affecting" define the simulation and feed the
// cache key. The one execution-only field changes how the host
// schedules a sweep (never its output) and is excluded from the key:
// requests differing only in it share one cache entry.
type Request struct {
	// --- result-affecting ---------------------------------------------
	Kind string `json:"kind,omitempty"` // "run" (default) or "sweep"

	App      string `json:"app,omitempty"`      // run: workload name
	Mode     string `json:"mode,omitempty"`     // run: "shred" (default) or "thread"
	Topology []int  `json:"topology,omitempty"` // run: AMS count per processor (default [7])
	Trace    bool   `json:"trace,omitempty"`    // run: record the Chrome trace artifact

	Apps []string `json:"apps,omitempty"` // sweep: subset (default: all 16)
	Exp  string   `json:"exp,omitempty"`  // sweep: "eval" (default: fig4+table1), "fig4", "table1"
	Seqs int      `json:"seqs,omitempty"` // sweep: sequencers per configuration (default 8)

	Size       string  `json:"size,omitempty"`        // "test", "small" (default), "ref"
	SignalCost *uint64 `json:"signal_cost,omitempty"` // cycles (default 5000)
	RingPolicy string  `json:"ring_policy,omitempty"` // "suspend-all" (default) or "monitor-cr"

	FaultSeed   uint64   `json:"fault_seed,omitempty"`
	FaultPeriod uint64   `json:"fault_period,omitempty"` // 0 = fault plane disabled
	FaultKinds  []string `json:"fault_kinds,omitempty"`  // default: all kinds
	Watchdog    uint64   `json:"watchdog,omitempty"`     // livelock horizon, cycles

	// --- execution-only (never in the cache key) ----------------------
	Parallel int `json:"parallel,omitempty"` // sweep: host workers for the fan-out
}

// DefaultSignalCost is the paper's conservative signal estimate,
// applied when a request leaves SignalCost unset.
const DefaultSignalCost = 5000

// Canonicalize validates req and returns the canonical copy: every
// default made explicit, inapplicable fields zeroed, fault kinds
// sorted and deduplicated. Two requests asking for the same simulation
// canonicalize to identical values (and therefore identical keys).
func (req *Request) Canonicalize() (*Request, error) {
	c := *req
	if c.Kind == "" {
		c.Kind = KindRun
	}
	if c.Size == "" {
		c.Size = "small"
	}
	if _, err := workloads.ParseSize(c.Size); err != nil {
		return nil, err
	}
	if c.SignalCost == nil {
		sc := uint64(DefaultSignalCost)
		c.SignalCost = &sc
	}
	if c.RingPolicy == "" {
		c.RingPolicy = core.RingSuspendAll.String()
	}
	if _, err := core.ParseRingPolicy(c.RingPolicy); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if c.FaultPeriod == 0 {
		// No injection: seed and kinds are inert, so normalize them away.
		c.FaultSeed, c.FaultKinds = 0, nil
	} else {
		kinds, err := fault.ParseKinds(c.FaultKinds)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		c.FaultKinds = canonicalKindNames(kinds)
	}

	switch c.Kind {
	case KindRun:
		c.Apps, c.Exp, c.Seqs, c.Parallel = nil, "", 0, 0
		if c.App == "" {
			return nil, fmt.Errorf("serve: run request needs an app")
		}
		if _, err := workloads.ByName(c.App); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if c.Mode == "" {
			c.Mode = "shred"
		}
		if _, err := shredlib.ParseMode(c.Mode); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if len(c.Topology) == 0 {
			c.Topology = []int{7}
		}
		cfg := core.DefaultConfig(core.Topology(c.Topology))
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	case KindSweep:
		c.App, c.Mode, c.Topology, c.Trace = "", "", nil, false
		switch c.Exp {
		case "":
			c.Exp = "eval"
		case "eval", "fig4", "table1":
		default:
			return nil, fmt.Errorf("serve: unknown sweep exp %q (want eval, fig4, table1)", c.Exp)
		}
		if c.Seqs == 0 {
			c.Seqs = 8
		}
		if c.Seqs < 2 || c.Seqs > 63 {
			return nil, fmt.Errorf("serve: sweep seqs %d out of range [2,63]", c.Seqs)
		}
		for _, name := range c.Apps {
			if _, err := workloads.ByName(name); err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("serve: unknown request kind %q (want %q or %q)", c.Kind, KindRun, KindSweep)
	}
	if c.Parallel < 0 {
		c.Parallel = 0
	}
	return &c, nil
}

// keySchema versions the canonical encoding; bump it whenever a
// result-affecting field is added or its rendering changes, so stale
// cache entries can never be served for a new request shape.
const keySchema = "mispserve/v1"

// resultEpoch names what this build computes: the first 12 hex digits of
// the SHA-256 of testdata/golden_outputs.txt, which pins every artifact
// of the golden requests (key blanked). TestRunOutputsGolden fails until
// the two agree, so a build whose artifacts moved keys its results apart
// from an older build's in the same cache directory.
const resultEpoch = "863ec84f46b8"

// Key derives the content-address of a canonical request: a SHA-256
// over the result epoch and a line-oriented rendering of every
// result-affecting field.
// The execution-only Parallel is deliberately absent — a sweep is
// bit-identical across it, so it must map to the same cache entry.
func (c *Request) Key() string {
	b := make([]byte, 0, 256)
	field := func(name, value string) {
		b = append(append(append(append(b, name...), '='), value...), '\n')
	}
	b = append(b, keySchema+"\n"...)
	field("epoch", resultEpoch)
	field("kind", c.Kind)
	field("app", c.App)
	field("mode", c.Mode)
	field("topology", joinInts(c.Topology))
	field("trace", strconv.FormatBool(c.Trace))
	field("apps", strings.Join(c.Apps, ","))
	field("exp", c.Exp)
	field("seqs", strconv.Itoa(c.Seqs))
	field("size", c.Size)
	field("signal", strconv.FormatUint(*c.SignalCost, 10))
	field("ringpolicy", c.RingPolicy)
	field("faultseed", strconv.FormatUint(c.FaultSeed, 10))
	field("faultperiod", strconv.FormatUint(c.FaultPeriod, 10))
	field("faultkinds", strings.Join(c.FaultKinds, ","))
	field("watchdog", strconv.FormatUint(c.Watchdog, 10))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// config builds the machine configuration for a canonical run request.
func (c *Request) config() (core.Config, error) {
	cfg := workloads.DefaultConfig(core.Topology(c.Topology))
	cfg.SignalCost = *c.SignalCost
	policy, err := core.ParseRingPolicy(c.RingPolicy)
	if err != nil {
		return cfg, err
	}
	cfg.RingPolicy = policy
	cfg.WatchdogHorizon = c.Watchdog
	cfg.TraceEvents = c.Trace
	if c.FaultPeriod != 0 {
		kinds, err := fault.ParseKinds(c.FaultKinds)
		if err != nil {
			return cfg, err
		}
		cfg.Fault = fault.Uniform(c.FaultSeed, c.FaultPeriod, kinds...)
	}
	return cfg, nil
}

// mode returns the canonical run request's runtime mode (Canonicalize
// has rejected any name ParseMode would).
func (c *Request) mode() shredlib.Mode {
	m, _ := shredlib.ParseMode(c.Mode)
	return m
}

// ParseSize is workloads.ParseSize, kept under this name for the
// daemon's clients.
func ParseSize(s string) (workloads.Size, error) { return workloads.ParseSize(s) }

// canonicalKindNames renders a kind set sorted in enum order with
// duplicates removed: the fault plan is a pure function of the set, so
// the key must not depend on spelling order.
func canonicalKindNames(kinds []fault.Kind) []string {
	if len(kinds) == 0 {
		return nil
	}
	slices.Sort(kinds)
	kinds = slices.Compact(kinds)
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return names
}

func joinInts(xs []int) string {
	var b []byte
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"misp/internal/core"
	"misp/internal/exp"
	"misp/internal/obs"
	"misp/internal/report"
	"misp/internal/workloads"
)

// Artifacts is a job's named result files. Every byte is a pure
// function of the canonical request — host wall times and any other
// non-deterministic quantity are confined to the job record — so a
// cache entry is interchangeable with a fresh simulation.
type Artifacts map[string][]byte

// Names returns the artifact names, sorted.
func (a Artifacts) Names() []string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Result is the deterministic job summary surfaced in the job record
// (and mirrored inside summary.json for run requests).
type Result struct {
	Cycles     uint64  `json:"cycles,omitempty"`
	Instrs     uint64  `json:"instrs,omitempty"`
	Checksum   float64 `json:"checksum,omitempty"`
	ChecksumOK bool    `json:"checksum_ok"`
	Apps       int     `json:"apps,omitempty"` // sweep: evaluated app count
}

// runSummary is the summary.json schema for run requests. Field order
// is fixed and maps are avoided so the marshaled bytes are canonical.
type runSummary struct {
	Request  *Request `json:"request"`
	Key      string   `json:"key"`
	Topology string   `json:"topology"`

	Cycles     uint64  `json:"cycles"`
	Instrs     uint64  `json:"instrs"`
	ExitCode   uint64  `json:"exit_code"`
	Checksum   float64 `json:"checksum"`
	Reference  float64 `json:"reference"`
	ChecksumOK bool    `json:"checksum_ok"`

	Kernel struct {
		Ticks      uint64 `json:"ticks"`
		Switches   uint64 `json:"switches"`
		Syscalls   uint64 `json:"syscalls"`
		PageFaults uint64 `json:"page_faults"`
		IPIs       uint64 `json:"ipis"`
	} `json:"kernel"`

	Trace *traceSummary `json:"trace,omitempty"`
}

type traceSummary struct {
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// Execute runs one canonical request to completion and builds its
// artifacts. It is context-aware end to end: cancellation aborts the
// simulation at its next event horizon and no artifacts are produced.
func Execute(ctx context.Context, c *Request) (Artifacts, *Result, error) {
	return ExecuteWarm(ctx, c, nil)
}

// ExecuteWarm is Execute with a snapshot warm pool: repeat requests
// against the same workload/topology fork a cached post-prepare image
// instead of building a machine from scratch. warm == nil runs cold;
// results are bit-identical either way (the pool contract, difftested
// in workloads/warm_test.go).
func ExecuteWarm(ctx context.Context, c *Request, warm *workloads.WarmPool) (Artifacts, *Result, error) {
	switch c.Kind {
	case KindRun:
		return executeRun(ctx, c, warm)
	case KindSweep:
		return executeSweep(ctx, c, warm)
	}
	return nil, nil, fmt.Errorf("serve: unknown request kind %q", c.Kind)
}

func executeRun(ctx context.Context, c *Request, warm *workloads.WarmPool) (Artifacts, *Result, error) {
	w, size, cfg, err := runSetup(c)
	if err != nil {
		return nil, nil, err
	}
	pr, err := warm.Prepare(w, c.mode(), cfg, size, 0)
	if err != nil {
		return nil, nil, err
	}
	defer pr.Release() // after runArtifacts has rendered everything from the machine
	res, err := pr.RunCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	return runArtifacts(c, w, size, cfg, res)
}

// runSetup resolves a run request's workload, size, and machine config.
// Shared by the plain executor and the checkpointing one (durable.go).
func runSetup(c *Request) (*workloads.Workload, workloads.Size, core.Config, error) {
	w, err := workloads.ByName(c.App)
	if err != nil {
		return nil, 0, core.Config{}, err
	}
	size, err := workloads.ParseSize(c.Size)
	if err != nil {
		return nil, 0, core.Config{}, err
	}
	cfg, err := c.config()
	if err != nil {
		return nil, 0, core.Config{}, err
	}
	return w, size, cfg, nil
}

// runArtifacts builds a completed run's artifact set and result
// summary. Everything here is a pure function of the request and the
// deterministic run result, so an interrupted-and-resumed run yields
// bytes identical to an uninterrupted one.
func runArtifacts(c *Request, w *workloads.Workload, size workloads.Size, cfg core.Config, res *workloads.RunResult) (Artifacts, *Result, error) {
	sum := runSummary{
		Request:  c,
		Key:      c.Key(),
		Topology: cfg.Topology.String(),

		Cycles:     res.Cycles,
		Instrs:     res.Machine.Steps,
		ExitCode:   res.ExitCode,
		Checksum:   res.Checksum,
		Reference:  w.Ref(size),
		ChecksumOK: res.Checksum == w.Ref(size),
	}
	ks := res.Kernel.Stats
	sum.Kernel.Ticks, sum.Kernel.Switches, sum.Kernel.Syscalls = ks.Ticks, ks.Switches, ks.Syscalls
	sum.Kernel.PageFaults, sum.Kernel.IPIs = ks.PageFaults, ks.IPIs
	if c.Trace {
		sum.Trace = &traceSummary{
			Events:  res.Machine.Obs.Bus.Len(),
			Dropped: res.Machine.Obs.Bus.Dropped(),
		}
	}
	sumJSON, err := json.MarshalIndent(&sum, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	sumJSON = append(sumJSON, '\n')

	art := Artifacts{
		"summary.json": sumJSON,
		"counters.csv": []byte(countersTable(res.Machine).CSV()),
		"metrics.txt":  []byte(res.Machine.Obs.Metrics.String()),
	}
	if c.Trace {
		var buf bytes.Buffer
		tracks := make([]obs.Track, 0, len(res.Machine.Seqs))
		for _, s := range res.Machine.Seqs {
			tracks = append(tracks, obs.Track{Seq: s.ID, Proc: s.ProcID, Name: s.Name()})
		}
		if err := obs.WriteChromeTrace(&buf, res.Machine.Obs.Bus.Events(), tracks); err != nil {
			return nil, nil, err
		}
		art["trace.json"] = buf.Bytes()
	}
	return art, &Result{
		Cycles:     res.Cycles,
		Instrs:     res.Machine.Steps,
		Checksum:   res.Checksum,
		ChecksumOK: sum.ChecksumOK,
	}, nil
}

// countersTable renders the per-sequencer counters (mispsim's stat
// block) as a table so the service can ship it as CSV.
func countersTable(m *core.Machine) *report.Table {
	t := &report.Table{
		Title: "Per-sequencer counters",
		Cols: []string{"seq", "state", "instrs", "syscalls", "pf", "timer",
			"proxySys", "proxyPF", "yields", "ringStall", "idle"},
	}
	for _, s := range m.Seqs {
		t.Add(s.Name(), s.State.String(), s.C.Instrs, s.C.Syscalls, s.C.PageFaults,
			s.C.Timers, s.C.ProxySyscalls, s.C.ProxyPageFaults, s.C.YieldsTaken,
			s.C.RingStall, s.C.IdleCycles)
	}
	return t
}

func executeSweep(ctx context.Context, c *Request, warm *workloads.WarmPool) (Artifacts, *Result, error) {
	size, err := workloads.ParseSize(c.Size)
	if err != nil {
		return nil, nil, err
	}
	opt := exp.Options{
		Size:     size,
		Seqs:     c.Seqs,
		Apps:     c.Apps,
		Parallel: c.Parallel,
		Ctx:      ctx,
		Warm:     warm,
	}
	results, err := exp.Evaluate(opt)
	if err != nil {
		return nil, nil, err
	}
	art := Artifacts{}
	if c.Exp == "eval" || c.Exp == "fig4" {
		art["fig4.csv"] = []byte(exp.Fig4Table(results, c.Seqs).CSV())
	}
	if c.Exp == "eval" || c.Exp == "table1" {
		art["table1.csv"] = []byte(exp.Table1(results).CSV())
	}
	return art, &Result{Apps: len(results), ChecksumOK: true}, nil
}

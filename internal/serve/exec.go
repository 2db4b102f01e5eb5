package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"misp/internal/core"
	"misp/internal/exp"
	"misp/internal/report"
	"misp/internal/snap"
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
	return ExecuteCheckpointed(ctx, c, nil, nil)
}

// ErrPreempted is the cause a preempted lease's context is canceled
// with, and what ExecuteCheckpointed returns for the run it stopped: its
// image is persisted (or an older image remains usable) and the caller
// must re-enqueue the job to resume later. Never returned for completed
// or failed runs.
var ErrPreempted = errors.New("serve: job preempted")

// CheckpointSpec configures ExecuteCheckpointed: where images live, how
// often they are taken, and the hooks the server uses to count
// checkpoint traffic. A nil spec or the zero value disables
// checkpointing: the run goes straight through.
type CheckpointSpec struct {
	Dir   string // checkpoint images live here, next to the journal
	Every uint64 // simulated cycles between checkpoints (0 = only at preemption)

	OnCheckpoint func(cycle uint64) // after an image is durably persisted
	OnRestore    func(cycle uint64) // resumed from an image at this cycle
	OnCorrupt    func(err error)    // an unusable image was discarded
}

func (cs *CheckpointSpec) enabled() bool { return cs != nil && cs.Dir != "" }

// checkpointPath is the image location for one canonical request. Keyed
// on the cache key: execution-only knobs are run-only config, so an
// image is resumable by any request that hashes to the same simulation.
func (cs *CheckpointSpec) path(key string) string {
	return filepath.Join(cs.Dir, "ckpt-"+key+".misp")
}

// ExecuteCheckpointed is Execute with a snapshot warm pool and, for run
// requests, mid-run checkpoints. warm: repeat requests against the same
// workload/topology fork a cached post-prepare image instead of building
// a machine from scratch; nil runs cold, bit-identical either way (the
// pool contract, difftested in workloads/warm_test.go). cs: the
// simulation pauses every cs.Every cycles at a quiescent SetPause
// boundary, persists a snap image atomically, and continues; a run whose
// context is canceled with ErrPreempted persists an image where it
// stopped; and if an image for the request already exists (a previous
// attempt was preempted, or a process died mid-run), execution resumes
// from it instead of starting over. The snap plane's determinism
// contract makes the artifacts byte-identical to an uninterrupted run
// either way, and an unreadable or stale image is discarded for a cold
// start — corrupt state can degrade performance, never correctness.
// Sweep requests ignore cs: their grid points are individually short, so
// the journal's retry lease is their recovery story.
func ExecuteCheckpointed(ctx context.Context, c *Request, warm *workloads.WarmPool, cs *CheckpointSpec) (Artifacts, *Result, error) {
	switch c.Kind {
	case KindRun:
		return executeRun(ctx, c, warm, cs)
	case KindSweep:
		return executeSweep(ctx, c, warm)
	}
	return nil, nil, fmt.Errorf("serve: unknown request kind %q", c.Kind)
}

// executeRun is the one run executor. With checkpointing enabled and
// Every set, the run proceeds in pause slices of Every cycles, each
// ending in a checkpoint. A run stopped by a cancel whose cause is
// ErrPreempted is stopped on an instruction boundary like a paused one:
// it takes its image there and returns ErrPreempted — even when the
// capture fails, since the previous image (or a cold start) still
// resumes to byte-identical artifacts; only the paid cycles are lost.
// Disabled, no image is looked up or taken and the first pass is the
// run.
func executeRun(ctx context.Context, c *Request, warm *workloads.WarmPool, cs *CheckpointSpec) (Artifacts, *Result, error) {
	w, size, cfg, err := runSetup(c)
	if err != nil {
		return nil, nil, err
	}

	ckpting := cs.enabled()
	var ckpt string
	var pr *workloads.Prepared
	if ckpting {
		ckpt = cs.path(c.Key())
		pr = cs.restore(ckpt, c, w, cfg)
	}
	if pr == nil {
		if pr, err = warm.Prepare(w, c.mode(), cfg, size, 0); err != nil {
			return nil, nil, err
		}
	}
	// Every exit below — done, failed, preempted — is finished with the
	// machine: its image, if any, is on disk and its artifacts rendered.
	defer pr.Release()

	var res *workloads.RunResult
	for {
		if ckpting && cs.Every > 0 {
			pr.Machine.SetPause(pr.Machine.MaxClock() + cs.Every)
		}
		res, err = pr.RunCtx(ctx)
		if err == nil {
			break
		}
		preempted := errors.Is(err, ErrPreempted)
		if !ckpting || !(preempted || errors.Is(err, core.ErrPaused)) {
			// Leave the last image in place: a retry or a restarted daemon
			// resumes from it instead of repaying the simulated cycles.
			return nil, nil, err
		}
		// A failed capture degrades the checkpoint cadence (or the
		// preemption resume point), never the run.
		if img, cerr := snap.Capture(pr.Machine, pr.Kernel); cerr == nil {
			if serr := img.SaveFile(ckpt); serr == nil && cs.OnCheckpoint != nil {
				cs.OnCheckpoint(pr.Machine.MaxClock())
			}
		}
		if preempted {
			return nil, nil, ErrPreempted
		}
	}
	art, result, err := runArtifacts(c, w, size, cfg, res)
	if err == nil && ckpting {
		os.Remove(ckpt) // the run is complete; the image is dead weight
	}
	return art, result, err
}

// restore resumes a run from its checkpoint image, if a usable one
// exists. An unreadable or stale image is reported, removed, and nil
// returned: the caller prepares cold.
func (cs *CheckpointSpec) restore(ckpt string, c *Request, w *workloads.Workload, cfg core.Config) *workloads.Prepared {
	img, err := snap.LoadFile(ckpt)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	var pr *workloads.Prepared
	if err == nil {
		m, k, ferr := img.Fork(func(cc *core.Config) { *cc = cfg })
		if err = ferr; err == nil {
			pr, err = workloads.Resume(w, c.mode(), m, k)
		}
	}
	if err != nil {
		if cs.OnCorrupt != nil {
			cs.OnCorrupt(err)
		}
		os.Remove(ckpt)
		return nil
	}
	if cs.OnRestore != nil {
		cs.OnRestore(pr.Machine.MaxClock())
	}
	return pr
}

// runSetup resolves a run request's workload, size, and machine config.
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

// runArtifacts builds a completed run's artifact set — report.RunFiles
// plus summary.json — and result summary. Everything here is a pure function of the request and the
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

	art, err := report.RunFiles(res.Machine)
	if err != nil {
		return nil, nil, err
	}
	art["summary.json"] = sumJSON
	return art, &Result{
		Cycles:     res.Cycles,
		Instrs:     res.Machine.Steps,
		Checksum:   res.Checksum,
		ChecksumOK: sum.ChecksumOK,
	}, nil
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
	names := []string{c.Exp}
	if c.Exp == "eval" {
		names = []string{"fig4", "table1"}
	}
	art, apps := Artifacts{}, 0
	emit := func(csv string, t *report.Table) {
		art[csv+".csv"] = []byte(t.CSV())
		apps = len(t.Rows) // fig4 and table1 have one row per app
	}
	if err := exp.Run(opt, exp.Args{}, emit, names...); err != nil {
		return nil, nil, err
	}
	return art, &Result{Apps: apps, ChecksumOK: true}, nil
}

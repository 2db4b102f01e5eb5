// Package exp drives the paper's experiments: Figure 4 (MISP vs SMP
// speedups), Table 1 (serializing events), Figure 5 (signal-cost
// sensitivity), Figures 6/7 (MISP MP multiprogramming), Table 2
// (porting assessment), and the ablations called out in DESIGN.md
// (ring-transition policy, page probing, signal-cost sweep).
//
// Every experiment is self-checking: each simulated run's checksum is
// validated against the workload's Go reference implementation before
// any number is reported. Every experiment is an entry of one registry,
// Experiments, run through Run; Figures 4 and 5, Table 1 and A1–A3 are
// views over run cells (cells.go), and each distinct cell is simulated
// once however many of them read it.
package exp

import (
	"context"
	"fmt"

	"misp/internal/core"
	"misp/internal/overhead"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/sweep"
	"misp/internal/workloads"
)

// Options configures every experiment in this package.
type Options struct {
	Size workloads.Size
	Seqs int      // total sequencers per configuration (paper: 8)
	Apps []string // subset of workloads; nil = all 16
	// Parallel is the host worker count for independent simulation runs
	// (sweep.Map semantics: <= 0 uses GOMAXPROCS, 1 runs serially).
	// Results are bit-identical for every value.
	Parallel int
	// SweepStats, when non-nil, accumulates host-side sweep statistics
	// (runs, wall/busy time, utilization) across every experiment called
	// with these Options.
	SweepStats *sweep.Stats
	// Ctx cancels the experiment: dispatch stops and in-flight
	// simulations abort at their next event horizon (nil = Background).
	Ctx context.Context
	// Warm, when non-nil, routes machine preparation through the
	// snapshot plane's warm pool: the first run of each (workload, mode,
	// size, structural-config) key prepares cold and captures a
	// snapshot; every later run forks it with the run-only config
	// applied, skipping machine construction and program load. Results
	// are bit-identical either way (difftested in warm_test.go). The
	// pool is safe for concurrent use and may be shared across
	// experiments.
	Warm *workloads.WarmPool
}

func (o *Options) defaults() {
	if o.Seqs == 0 {
		o.Seqs = 8
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
}

// grid runs job(0..n-1) across opt.Parallel host workers under opt.Ctx
// — the one fan-out every experiment uses — and folds the sweep's host
// statistics into opt.SweepStats. Results come back in job order.
func grid[T any](opt *Options, n int, job func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out, st, err := sweep.MapCtx(opt.Ctx, opt.Parallel, n, job)
	if s := opt.SweepStats; s != nil {
		s.Jobs += st.Jobs
		s.Wall += st.Wall
		s.Busy += st.Busy
		s.Workers = max(s.Workers, st.Workers)
	}
	return out, err
}

// workloads resolves o.Apps or, when it is nil, def (nil = every
// evaluated app).
func (o *Options) workloads(def []string) ([]*workloads.Workload, error) {
	names := o.Apps
	if names == nil {
		names = def
	}
	if names == nil {
		return workloads.Evaluated(), nil
	}
	var ws []*workloads.Workload
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// AppResult holds one application's measurements across the three
// standard configurations: 1P (single sequencer), MISP 1×N (1 OMS +
// N-1 AMS), and SMP N (N OS-visible cores).
type AppResult struct {
	Name  string
	Suite string

	Cycles1P   uint64
	CyclesMISP uint64
	CyclesSMP  uint64

	// MISP-run event accounting: the OMS's counters and the sum of its
	// AMSs' (Table 1's OMS and AMS columns).
	Events overhead.Events
	OMS    core.SeqCounters
	AMS    core.SeqCounters

	// TLB accounting across all sequencers of the MISP run. Cold misses
	// (no translation cached) and permission misses (resident read-only
	// translation probed for write) both cost a page walk, but only the
	// latter are re-check walks — Table 1 reports them separately.
	TLBMisses     uint64
	TLBPermMisses uint64

	Checksum float64
}

// SpeedupMISP returns MISP 1×N speedup over 1P.
func (r *AppResult) SpeedupMISP() float64 { return float64(r.Cycles1P) / float64(r.CyclesMISP) }

// SpeedupSMP returns SMP N speedup over 1P.
func (r *AppResult) SpeedupSMP() float64 { return float64(r.Cycles1P) / float64(r.CyclesSMP) }

// checkRun validates a run's checksum against the reference.
func checkRun(w *workloads.Workload, res *workloads.RunResult, label string, sz workloads.Size) error {
	if want := w.Ref(sz); res.Checksum != want {
		return fmt.Errorf("exp: %s on %s: checksum %g does not match reference %g", w.Name, label, res.Checksum, want)
	}
	return nil
}

// evalView is Figure 4 and Table 1: each app on 1P, MISP 1×N and SMP
// N, with the MISP run's event and TLB accounting.
var evalView = view[*AppResult]{rows: func(o *Options, w *workloads.Workload, get func(cell) *cellResult) []*AppResult {
	misp := o.mispCell(w)
	up, smp := misp, misp
	up.top = core.Topology{0}
	smp.top, smp.mode = make(core.Topology, o.Seqs), shredlib.ModeThread
	r1, m, rs := get(up), get(misp), get(smp)
	return []*AppResult{{
		Name:  w.Name,
		Suite: w.Suite,

		Cycles1P:   r1.cycles,
		CyclesMISP: m.cycles,
		CyclesSMP:  rs.cycles,

		Events: m.events,
		OMS:    m.oms,
		AMS:    m.ams,

		TLBMisses:     m.tlbMisses,
		TLBPermMisses: m.tlbPermMisses,

		Checksum: r1.checksum,
	}}
}}

// Evaluate runs every selected workload on the three standard
// configurations and returns validated measurements. Runs are
// independent deterministic simulations, so they fan out across
// opt.Parallel host workers; the results (and everything rendered from
// them) are identical for any worker count.
func Evaluate(opt Options) ([]*AppResult, error) { return evalView.run(opt) }

// Fig4Table renders the Figure 4 series: per-application speedup over
// 1P for MISP (1 OMS + N-1 AMS) and the equivalently configured SMP.
func Fig4Table(results []*AppResult, seqs int) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Figure 4 — Speedup vs 1P (MISP 1x%d vs SMP %d)", seqs, seqs),
		Cols:  []string{"app", "suite", "MISP", "SMP", "MISP/SMP"},
	}
	for _, r := range results {
		t.Add(r.Name, r.Suite, r.SpeedupMISP(), r.SpeedupSMP(), r.SpeedupMISP()/r.SpeedupSMP())
	}
	return t
}

// Table1 renders the serializing-event table (paper Table 1): OMS
// events by cause and total AMS proxy events by cause.
func Table1(results []*AppResult) *report.Table {
	t := &report.Table{
		Title: "Table 1 — Serializing Events (MISP run)",
		Cols: []string{"app", "suite", "OMS SysCall", "OMS PF", "OMS Timer",
			"OMS Interrupt", "AMS SysCall", "AMS PF", "TLB Miss", "TLB PermMiss"},
	}
	for _, r := range results {
		t.Add(r.Name, r.Suite, r.OMS.Syscalls, r.OMS.PageFaults, r.OMS.Timers,
			r.OMS.Interrupts, r.AMS.ProxySyscalls, r.AMS.ProxyPageFaults, r.TLBMisses, r.TLBPermMisses)
	}
	return t
}

// Fig5Table renders the Figure 5 series from SignalSweep's rows:
// percentage overhead over zero-cost signaling at each nonzero signal
// cost, per application and on average.
func Fig5Table(rows []SweepRow) *report.Table {
	t := &report.Table{
		Title: "Figure 5 — Sensitivity to Signal Cost (% overhead vs ideal hardware)",
		Cols:  []string{"app", "500", "1000", "5000"},
	}
	var avg [3]float64
	nc := len(signalCosts)
	for i := 0; i+nc <= len(rows); i += nc {
		r := rows[i+1 : i+nc]
		t.Add(rows[i].Name, report.Pct(r[0].Measured), report.Pct(r[1].Measured), report.Pct(r[2].Measured))
		for j := range avg {
			avg[j] += r[j].Measured
		}
	}
	if n := float64(len(rows) / nc); n > 0 {
		t.Add("average", report.Pct(avg[0]/n), report.Pct(avg[1]/n), report.Pct(avg[2]/n))
	}
	return t
}

// Package exp drives the paper's experiments: Figure 4 (MISP vs SMP
// speedups), Table 1 (serializing events), Figure 5 (signal-cost
// sensitivity), Figures 6/7 (MISP MP multiprogramming), Table 2
// (porting assessment), and the ablations called out in DESIGN.md
// (ring-transition policy, page probing, signal-cost sweep).
//
// Every experiment is self-checking: each simulated run's checksum is
// validated against the workload's Go reference implementation before
// any number is reported.
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

// run executes one workload run through the warm pool when one is
// attached (a nil pool degrades to a plain cold prepare). extra is the
// workload's rt_init flag word, part of the pool key. The caller
// releases the result once it has extracted its measurements, so a
// grid's machines reuse one memory array per worker.
func (o *Options) run(ctx context.Context, w *workloads.Workload, mode shredlib.Mode, cfg core.Config, extra int64) (*workloads.RunResult, error) {
	pr, err := o.Warm.Prepare(w, mode, cfg, o.Size, extra)
	if err != nil {
		return nil, err
	}
	res, err := pr.RunCtx(ctx)
	if err != nil {
		pr.Release()
	}
	return res, err
}

func (o *Options) workloads() ([]*workloads.Workload, error) {
	if o.Apps == nil {
		return workloads.Evaluated(), nil
	}
	var ws []*workloads.Workload
	for _, name := range o.Apps {
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

// evalRun is one (app, configuration) job's compact extract. Jobs
// return this instead of the RunResult so each run's machine can be
// released — its simulated physical memory recycled into the next
// job's — the moment the job finishes, keeping a wide parallel sweep's
// footprint flat.
type evalRun struct {
	Cycles   uint64
	Checksum float64

	// MISP-configuration extras (zero for 1P/SMP runs).
	Events                   overhead.Events
	OMS, AMS                 core.SeqCounters
	TLBMisses, TLBPermMisses uint64
}

// Evaluate runs every selected workload on the three standard
// configurations and returns validated measurements. Runs are
// independent deterministic simulations, so they fan out across
// opt.Parallel host workers; the results (and everything rendered from
// them) are identical for any worker count.
func Evaluate(opt Options) ([]*AppResult, error) {
	opt.defaults()
	ws, err := opt.workloads()
	if err != nil {
		return nil, err
	}
	smpTop := make(core.Topology, opt.Seqs)
	labels := [3]string{"1P", "MISP", "SMP"}
	runs, err := grid(&opt, 3*len(ws), func(ctx context.Context, i int) (evalRun, error) {
		w, c := ws[i/3], i%3
		cfg := workloads.DefaultConfig(core.Topology{0})
		mode := shredlib.ModeShred
		switch c {
		case 1:
			cfg = workloads.DefaultConfig(core.Topology{opt.Seqs - 1})
		case 2:
			cfg = workloads.DefaultConfig(smpTop)
			mode = shredlib.ModeThread
		}
		res, err := opt.run(ctx, w, mode, cfg, 0)
		if err != nil {
			return evalRun{}, err
		}
		defer res.Release()
		if err := checkRun(w, res, labels[c], opt.Size); err != nil {
			return evalRun{}, err
		}
		r := evalRun{Cycles: res.Cycles, Checksum: res.Checksum}
		if c == 1 {
			r.Events = overhead.Collect(res.Machine)
			r.OMS = res.Machine.Procs[0].OMS().C
			for _, a := range res.Machine.Procs[0].AMSs() {
				r.AMS.Add(&a.C)
			}
			for _, s := range res.Machine.Seqs {
				r.TLBMisses += s.TLB.Misses
				r.TLBPermMisses += s.TLB.PermMisses
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	var out []*AppResult
	for ai, w := range ws {
		r1, rm, rs := runs[ai*3], runs[ai*3+1], runs[ai*3+2]
		out = append(out, &AppResult{
			Name:  w.Name,
			Suite: w.Suite,

			Cycles1P:   r1.Cycles,
			CyclesMISP: rm.Cycles,
			CyclesSMP:  rs.Cycles,

			Events: rm.Events,
			OMS:    rm.OMS,
			AMS:    rm.AMS,

			TLBMisses:     rm.TLBMisses,
			TLBPermMisses: rm.TLBPermMisses,

			Checksum: r1.Checksum,
		})
	}
	return out, nil
}

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

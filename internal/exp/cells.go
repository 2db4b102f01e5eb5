package exp

import (
	"context"
	"fmt"
	"slices"

	"misp/internal/core"
	"misp/internal/overhead"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// This file is the one driver of the cell-based experiments and the
// registry every experiment is dispatched through.

// A cell is one simulation run: an app at a size, in a runtime mode, on
// one machine configuration. It is all a run depends on, so experiments
// that name equal cells read one run (runCells).
type cell struct {
	w      *workloads.Workload
	mode   shredlib.Mode
	top    core.Topology
	signal uint64 // inter-sequencer signal cost, cycles
	ring   core.RingPolicy
	flags  int64 // the workload's rt_init flag word
	size   workloads.Size
}

// String names the cell by every field; it is the cell's key.
func (c cell) String() string {
	return fmt.Sprintf("%s/%s/%s/signal=%d/%s/flags=%#x/%s", c.w.Name, c.mode, c.top, c.signal, c.ring, c.flags, c.size)
}

// mispCell is app w's MISP 1×Seqs cell, the one Figure 4, Figure 5, A1
// and A2 share: shred mode on one processor with Seqs-1 AMSs, the
// default signal cost and ring policy, and no runtime flags. Each view
// varies it.
func (o *Options) mispCell(w *workloads.Workload) cell {
	top := core.Topology{o.Seqs - 1}
	cfg := workloads.DefaultConfig(top)
	return cell{w: w, mode: shredlib.ModeShred, top: top, signal: cfg.SignalCost, ring: cfg.RingPolicy, size: o.Size}
}

// cellResult is what the views read of one validated run. A job returns
// it instead of the RunResult so the run's machine can be released —
// its simulated physical memory recycled into the next job's — the
// moment the job finishes, keeping a wide sweep's footprint flat.
type cellResult struct {
	cycles   uint64
	checksum float64
	events   overhead.Events
	// The first processor's OMS counters and its AMSs' summed (ring
	// stall and proxy page faults among them).
	oms, ams core.SeqCounters
	// TLB misses and permission misses across every sequencer.
	tlbMisses, tlbPermMisses uint64
}

// results maps a cell's key to its run's result.
type results map[string]*cellResult

// get is the result of cell c.
func (r results) get(c cell) *cellResult { return r[c.String()] }

// runCells runs each distinct cell the lists name once, in order of
// first appearance, across opt.Parallel host workers through grid. A
// run's machine is released as soon as its result is extracted, so a
// grid's machines reuse one memory array per worker.
func runCells(opt *Options, lists ...func(*Options) ([]cell, error)) (results, error) {
	res := results{}
	var todo []cell
	for _, list := range lists {
		cells, err := list(opt)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			if _, ok := res[c.String()]; !ok {
				res[c.String()] = nil
				todo = append(todo, c)
			}
		}
	}
	out, err := grid(opt, len(todo), func(ctx context.Context, i int) (*cellResult, error) {
		c := todo[i]
		cfg := workloads.DefaultConfig(c.top)
		cfg.SignalCost, cfg.RingPolicy = c.signal, c.ring
		pr, err := opt.Warm.Prepare(c.w, c.mode, cfg, c.size, c.flags)
		if err != nil {
			return nil, err
		}
		run, err := pr.RunCtx(ctx)
		if err != nil {
			pr.Release()
			return nil, err
		}
		defer run.Release()
		if err := checkRun(c.w, run, c.String(), c.size); err != nil {
			return nil, err
		}
		p := run.Machine.Procs[0]
		r := &cellResult{cycles: run.Cycles, checksum: run.Checksum, events: overhead.Collect(run.Machine), oms: p.OMS().C}
		for _, a := range p.AMSs() {
			r.ams.Add(&a.C)
		}
		for _, s := range run.Machine.Seqs {
			r.tlbMisses += s.TLB.Misses
			r.tlbPermMisses += s.TLB.PermMisses
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range todo {
		res[c.String()] = out[i]
	}
	return res, nil
}

// A view is a cell-based experiment: for each app, rows builds the
// app's rows from the results of the cells it asks get for. It must ask
// for the same cells whatever the results, because cellsOf lists them
// with a dry pass whose get records each cell and answers with an empty
// result.
type view[R any] struct {
	apps []string // the apps when Options.Apps is nil; nil = every evaluated app
	rows func(o *Options, w *workloads.Workload, get func(cell) *cellResult) []R
}

// eval builds v's rows, app by app, reading results through get.
func (v view[R]) eval(o *Options, get func(cell) *cellResult) ([]R, error) {
	ws, err := o.workloads(v.apps)
	if err != nil {
		return nil, err
	}
	var out []R
	for _, w := range ws {
		out = append(out, v.rows(o, w, get)...)
	}
	return out, nil
}

// cellsOf lists the cells v reads.
func (v view[R]) cellsOf(o *Options) (cs []cell, err error) {
	_, err = v.eval(o, func(c cell) *cellResult {
		cs = append(cs, c)
		return new(cellResult)
	})
	return cs, err
}

// run runs v alone.
func (v view[R]) run(opt Options) ([]R, error) {
	opt.defaults()
	res, err := runCells(&opt, v.cellsOf)
	if err != nil {
		return nil, err
	}
	return v.eval(&opt, res.get)
}

// An Experiment is one registered experiment: the cells it reads and
// the table it renders. Figure 7, A4, Table 2 and resilience read no
// cells — their runs are multiprogrammed, fault-injected or no
// simulation at all — so their render runs them itself.
type Experiment struct {
	Name string
	CSV  string // base name of the table's CSV file
	// faults marks an experiment that injects faults on purpose: "all",
	// the fault-free paper reproduction, leaves it out.
	faults bool
	cells  func(o *Options) ([]cell, error)
	render func(o *Options, res results, a Args) (*report.Table, error)
}

// Args are the bespoke experiments' own parameters.
type Args struct {
	MaxLoad    int // fig7: most competing processes (paper: 4)
	FaultSeeds int // resilience: seeded campaigns per cell (0 = 5)
}

// a3View is A3's table: Figure 5's sweep, whose every app × signal-cost
// point it prints, so without an app list it shows a 4-app subset.
var a3View = view[SweepRow]{apps: []string{"dense_mmm", "kmeans", "sparse_mvm", "swim"}, rows: sweepView.rows}

// Experiments is the registry, in the order Run renders the tables. A
// render returns its error beside whatever table it rendered; Run
// discards the table then.
var Experiments = []Experiment{
	{Name: "fig4", CSV: "fig4", cells: evalView.cellsOf, render: func(o *Options, res results, _ Args) (*report.Table, error) {
		rows, err := evalView.eval(o, res.get)
		return Fig4Table(rows, o.Seqs), err
	}},
	cellExp("table1", "table1", evalView, Table1),
	cellExp("fig5", "fig5", sweepView, Fig5Table),
	{Name: "fig7", CSV: "fig7", render: func(o *Options, _ results, a Args) (*report.Table, error) {
		curves, err := Fig7(*o, a.MaxLoad)
		return Fig7Table(curves, a.MaxLoad), err
	}},
	{Name: "table2", CSV: "table2", render: func(o *Options, _ results, _ Args) (*report.Table, error) {
		stats, err := AssessPorting(o.Size)
		return Table2(stats), err
	}},
	cellExp("ring", "ablation_ring", ringView, RingPolicyTable),
	cellExp("probe", "ablation_probe", probeView, ProbeTable),
	{Name: "dynamic", CSV: "ablation_dynamic", render: func(o *Options, _ results, _ Args) (*report.Table, error) {
		rows, err := AblationDynamicBinding(*o)
		return DynamicTable(rows), err
	}},
	cellExp("signalsweep", "ablation_signalsweep", a3View, SweepTable),
	{Name: "resilience", CSV: "resilience", faults: true, render: func(o *Options, _ results, a Args) (*report.Table, error) {
		rows, err := Resilience(*o, a.FaultSeeds)
		return ResilienceTable(rows), err
	}},
}

// cellExp is the registry entry of view v rendered by table.
func cellExp[R any](name, csv string, v view[R], table func([]R) *report.Table) Experiment {
	return Experiment{Name: name, CSV: csv, cells: v.cellsOf, render: func(o *Options, res results, _ Args) (*report.Table, error) {
		rows, err := v.eval(o, res.get)
		return table(rows), err
	}}
}

// Names lists the experiment names Run accepts: "all", then every
// registered experiment.
func Names() []string {
	names := []string{"all"}
	for _, e := range Experiments {
		names = append(names, e.Name)
	}
	return names
}

// Run runs the named experiments ("all": every one that injects no
// faults) and hands emit each one's table, in registry order. The cells
// of all of them run first, together, each distinct cell once.
func Run(opt Options, a Args, emit func(csv string, t *report.Table), names ...string) error {
	opt.defaults()
	for _, n := range names {
		if !slices.Contains(Names(), n) {
			return fmt.Errorf("exp: unknown experiment %q", n)
		}
	}
	var exps []Experiment
	var lists []func(*Options) ([]cell, error)
	for _, e := range Experiments {
		if !slices.Contains(names, e.Name) && (e.faults || !slices.Contains(names, "all")) {
			continue
		}
		exps = append(exps, e)
		if e.cells != nil {
			lists = append(lists, e.cells)
		}
	}
	res, err := runCells(&opt, lists...)
	if err != nil {
		return err
	}
	for _, e := range exps {
		t, err := e.render(&opt, res, a)
		if err != nil {
			return err
		}
		emit(e.CSV, t)
	}
	return nil
}

package exp

import (
	"context"

	"misp/internal/core"
	"misp/internal/overhead"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// This file implements the ablations DESIGN.md calls out:
//
//	A1 — ring-transition policy: suspend-all (the paper's prototype)
//	     vs monitor-CR (the "more aggressive microarchitecture" of §2.3
//	     that lets AMSs run speculatively through ring-0 episodes).
//	A2 — page probing (§5.3): the OMS probes the data segment in the
//	     serial region, eliminating most AMS proxy page faults.
//	A3 — signal-cost sweep: re-simulate (not just model) the machine at
//	     several inter-sequencer signal costs and compare against the
//	     Equation 1–2 prediction. The same sweep is Figure 5.

// RingPolicyRow compares the two ring-transition policies for one app.
type RingPolicyRow struct {
	Name             string
	CyclesSuspend    uint64
	CyclesMonitor    uint64
	RingStallSuspend uint64
	RingStallMonitor uint64
	MonitorSpeedup   float64
}

// AblationRingPolicy runs the selected apps on MISP 1×N under both
// policies, fanning the app×policy grid across host workers.
func AblationRingPolicy(opt Options) ([]RingPolicyRow, error) {
	opt.defaults()
	ws, err := opt.workloads()
	if err != nil {
		return nil, err
	}
	policies := [2]core.RingPolicy{core.RingSuspendAll, core.RingMonitorCR}
	type cell struct {
		cycles, stall uint64
	}
	cells, err := grid(&opt, 2*len(ws), func(ctx context.Context, i int) (cell, error) {
		w, policy := ws[i/2], policies[i%2]
		cfg := workloads.DefaultConfig(core.Topology{opt.Seqs - 1})
		cfg.RingPolicy = policy
		res, err := opt.run(ctx, w, shredlib.ModeShred, cfg, 0)
		if err != nil {
			return cell{}, err
		}
		defer res.Release()
		if err := checkRun(w, res, policy.String(), opt.Size); err != nil {
			return cell{}, err
		}
		var stall uint64
		for _, a := range res.Machine.Procs[0].AMSs() {
			stall += a.C.RingStall
		}
		return cell{cycles: res.Cycles, stall: stall}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []RingPolicyRow
	for wi, w := range ws {
		susp, mon := cells[wi*2], cells[wi*2+1]
		out = append(out, RingPolicyRow{
			Name:             w.Name,
			CyclesSuspend:    susp.cycles,
			CyclesMonitor:    mon.cycles,
			RingStallSuspend: susp.stall,
			RingStallMonitor: mon.stall,
			MonitorSpeedup:   float64(susp.cycles) / float64(mon.cycles),
		})
	}
	return out, nil
}

// RingPolicyTable renders A1.
func RingPolicyTable(rows []RingPolicyRow) *report.Table {
	t := &report.Table{
		Title: "A1 — Ring-transition policy: suspend-all vs monitor-CR (MISP 1x8)",
		Cols:  []string{"app", "suspend-all cycles", "monitor-CR cycles", "stall(susp)", "stall(mon)", "monitor speedup"},
	}
	for _, r := range rows {
		t.Add(r.Name, r.CyclesSuspend, r.CyclesMonitor, r.RingStallSuspend, r.RingStallMonitor, r.MonitorSpeedup)
	}
	return t
}

// ProbeRow compares demand paging against serial-region page probing.
type ProbeRow struct {
	Name          string
	AMSPFBase     uint64
	AMSPFProbed   uint64
	CyclesBase    uint64
	CyclesProbed  uint64
	ProbedSpeedup float64
}

// AblationProbe runs the selected apps with and without the page-probe
// optimization (§5.3), fanning the app×probe grid across host workers.
func AblationProbe(opt Options) ([]ProbeRow, error) {
	opt.defaults()
	ws, err := opt.workloads()
	if err != nil {
		return nil, err
	}
	type cell struct {
		cycles, pf uint64
	}
	cells, err := grid(&opt, 2*len(ws), func(ctx context.Context, i int) (cell, error) {
		w, probe := ws[i/2], i%2 == 1
		var extra int64
		if probe {
			extra = shredlib.FlagProbePages
		}
		res, err := opt.run(ctx, w, shredlib.ModeShred, workloads.DefaultConfig(core.Topology{opt.Seqs - 1}), extra)
		if err != nil {
			return cell{}, err
		}
		defer res.Release()
		if err := checkRun(w, res, "probe ablation", opt.Size); err != nil {
			return cell{}, err
		}
		var pf uint64
		for _, a := range res.Machine.Procs[0].AMSs() {
			pf += a.C.ProxyPageFaults
		}
		return cell{cycles: res.Cycles, pf: pf}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []ProbeRow
	for wi, w := range ws {
		base, probed := cells[wi*2], cells[wi*2+1]
		out = append(out, ProbeRow{
			Name:          w.Name,
			AMSPFBase:     base.pf,
			AMSPFProbed:   probed.pf,
			CyclesBase:    base.cycles,
			CyclesProbed:  probed.cycles,
			ProbedSpeedup: float64(base.cycles) / float64(probed.cycles),
		})
	}
	return out, nil
}

// ProbeTable renders A2.
func ProbeTable(rows []ProbeRow) *report.Table {
	t := &report.Table{
		Title: "A2 — Page-probe optimization (§5.3): AMS proxy page faults and runtime",
		Cols:  []string{"app", "AMS PF (demand)", "AMS PF (probed)", "cycles (demand)", "cycles (probed)", "probed speedup"},
	}
	for _, r := range rows {
		t.Add(r.Name, r.AMSPFBase, r.AMSPFProbed, r.CyclesBase, r.CyclesProbed, r.ProbedSpeedup)
	}
	return t
}

// SweepRow holds one app × signal-cost measurement.
type SweepRow struct {
	Name      string
	Signal    uint64
	Cycles    uint64
	Measured  float64 // measured overhead vs the zero-cost run
	Predicted float64 // Equation 1–2 prediction from event counts
}

// signalCosts are the inter-sequencer signal latencies SignalSweep
// simulates: the zero-cost baseline ("ideal hardware") and Figure 5's
// three candidate costs.
var signalCosts = [...]uint64{0, 500, 1000, 5000}

// SignalSweep re-simulates each selected app's MISP run at every
// signalCosts value and relates each run to the app's zero-cost one:
// the measured slowdown beside the Equation 1–2 prediction. It is both
// Figure 5 (Fig5Table) and ablation A3 (SweepTable). The paper had
// fixed hardware and therefore *modeled* Figure 5; the simulator lets
// us measure it, and A3 shows how far the model is off. The app×signal
// grid fans out across host workers; the relative overheads are
// computed after the sweep completes.
func SignalSweep(opt Options) ([]SweepRow, error) {
	opt.defaults()
	ws, err := opt.workloads()
	if err != nil {
		return nil, err
	}
	type cell struct {
		cycles uint64
		ev     overhead.Events
	}
	nc := len(signalCosts)
	cells, err := grid(&opt, nc*len(ws), func(ctx context.Context, i int) (cell, error) {
		w, sig := ws[i/nc], signalCosts[i%nc]
		cfg := workloads.DefaultConfig(core.Topology{opt.Seqs - 1})
		cfg.SignalCost = sig
		res, err := opt.run(ctx, w, shredlib.ModeShred, cfg, 0)
		if err != nil {
			return cell{}, err
		}
		defer res.Release()
		if err := checkRun(w, res, "signal sweep", opt.Size); err != nil {
			return cell{}, err
		}
		return cell{cycles: res.Cycles, ev: overhead.Collect(res.Machine)}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []SweepRow
	for wi, w := range ws {
		base := cells[wi*nc]
		for si, sig := range signalCosts {
			c := cells[wi*nc+si]
			out = append(out, SweepRow{
				Name:      w.Name,
				Signal:    sig,
				Cycles:    c.cycles,
				Measured:  float64(c.cycles)/float64(base.cycles) - 1,
				Predicted: float64(overhead.SignalCycles(base.ev, sig)) / float64(base.cycles),
			})
		}
	}
	return out, nil
}

// SweepTable renders A3.
func SweepTable(rows []SweepRow) *report.Table {
	t := &report.Table{
		Title: "A3 — Signal-cost sweep: measured vs modeled overhead (vs zero-cost signal)",
		Cols:  []string{"app", "signal", "cycles", "measured overhead", "modeled overhead"},
	}
	for _, r := range rows {
		t.Add(r.Name, r.Signal, r.Cycles, report.Pct(r.Measured), report.Pct(r.Predicted))
	}
	return t
}

package exp

import (
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

// ringView is A1: each app's MISP 1×N cell under both ring-transition
// policies.
var ringView = view[RingPolicyRow]{rows: func(o *Options, w *workloads.Workload, get func(cell) *cellResult) []RingPolicyRow {
	mon := o.mispCell(w)
	mon.ring = core.RingMonitorCR
	susp, monitor := get(o.mispCell(w)), get(mon)
	return []RingPolicyRow{{
		Name:             w.Name,
		CyclesSuspend:    susp.cycles,
		CyclesMonitor:    monitor.cycles,
		RingStallSuspend: susp.ams.RingStall,
		RingStallMonitor: monitor.ams.RingStall,
		MonitorSpeedup:   float64(susp.cycles) / float64(monitor.cycles),
	}}
}}

// AblationRingPolicy runs the selected apps on MISP 1×N under both
// policies, fanning the app×policy grid across host workers.
func AblationRingPolicy(opt Options) ([]RingPolicyRow, error) { return ringView.run(opt) }

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

// probeView is A2: each app's MISP 1×N cell demand-paged and with the
// runtime's page probing.
var probeView = view[ProbeRow]{rows: func(o *Options, w *workloads.Workload, get func(cell) *cellResult) []ProbeRow {
	probe := o.mispCell(w)
	probe.flags = shredlib.FlagProbePages
	base, probed := get(o.mispCell(w)), get(probe)
	return []ProbeRow{{
		Name:          w.Name,
		AMSPFBase:     base.ams.ProxyPageFaults,
		AMSPFProbed:   probed.ams.ProxyPageFaults,
		CyclesBase:    base.cycles,
		CyclesProbed:  probed.cycles,
		ProbedSpeedup: float64(base.cycles) / float64(probed.cycles),
	}}
}}

// AblationProbe runs the selected apps with and without the page-probe
// optimization (§5.3), fanning the app×probe grid across host workers.
func AblationProbe(opt Options) ([]ProbeRow, error) { return probeView.run(opt) }

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

// sweepView is Figure 5 and A3: each app's MISP 1×N cell at every
// signalCosts value, each related to the app's zero-cost one.
var sweepView = view[SweepRow]{rows: func(o *Options, w *workloads.Workload, get func(cell) *cellResult) []SweepRow {
	rs := make([]*cellResult, len(signalCosts))
	out := make([]SweepRow, len(signalCosts))
	for i, sig := range signalCosts { // rs[0], the zero-cost run, first
		c := o.mispCell(w)
		c.signal = sig
		rs[i] = get(c)
		out[i] = SweepRow{
			Name:      w.Name,
			Signal:    sig,
			Cycles:    rs[i].cycles,
			Measured:  float64(rs[i].cycles)/float64(rs[0].cycles) - 1,
			Predicted: float64(overhead.SignalCycles(rs[0].events, sig)) / float64(rs[0].cycles),
		}
	}
	return out
}}

// SignalSweep re-simulates each selected app's MISP run at every
// signalCosts value and relates each run to the app's zero-cost one:
// the measured slowdown beside the Equation 1–2 prediction. It is both
// Figure 5 (Fig5Table) and ablation A3 (SweepTable). The paper had
// fixed hardware and therefore *modeled* Figure 5; the simulator lets
// us measure it, and A3 shows how far the model is off. The app×signal
// grid fans out across host workers; the relative overheads are
// computed after the sweep completes.
func SignalSweep(opt Options) ([]SweepRow, error) { return sweepView.run(opt) }

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

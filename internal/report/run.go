package report

import (
	"bytes"
	"fmt"

	"misp/internal/core"
	"misp/internal/obs"
	"misp/internal/sweep"
)

// RunFiles renders a finished run's files: counters.csv (the
// per-sequencer counters), metrics.txt (the registry's simulation
// section) and, when the machine recorded its event log, trace.json
// (Chrome trace-event JSON, one track per sequencer). mispsim -o and
// the serve daemon's run artifacts are both these bytes.
func RunFiles(m *core.Machine) (map[string][]byte, error) {
	files := map[string][]byte{
		"counters.csv": []byte(SeqCounters(m).CSV()),
		"metrics.txt":  []byte(m.Obs.Metrics.String()),
	}
	if m.Obs.Bus.Enabled() {
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, m.Obs.Bus.Events(), m.Tracks()); err != nil {
			return nil, err
		}
		files["trace.json"] = buf.Bytes()
	}
	return files, nil
}

// RunSummary renders a machine's end-of-run report, including the
// event-log loss accounting: when the trace buffer is a window on the
// run (dropped > 0), the table says so instead of silently presenting a
// truncated log as complete.
func RunSummary(m *core.Machine) *Table {
	t := &Table{
		Title: "Run summary",
		Cols:  []string{"metric", "value"},
	}
	t.Add("cycles", m.MaxClock())
	t.Add("instructions", m.Steps)
	if m.Wall > 0 {
		t.Add("host wall time", m.Wall.String())
		t.Add("instrs/sec (host)", fmt.Sprintf("%.3g", float64(m.Steps)/m.Wall.Seconds()))
	}
	if bus := m.Obs.Bus; bus.Enabled() {
		t.Add("trace events retained", bus.Len())
		t.Add("trace events dropped", bus.Dropped())
		if bus.Dropped() > 0 {
			t.Add("trace coverage", fmt.Sprintf("PARTIAL (%d events lost)", bus.Dropped()))
		} else {
			t.Add("trace coverage", "complete")
		}
	} else {
		t.Add("trace", "disabled")
	}
	return t
}

// SeqCounters renders the per-sequencer counters (the prototype
// firmware's coarse-grained accounting, §4.1), one row per sequencer.
func SeqCounters(m *core.Machine) *Table {
	t := &Table{
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

// SweepSummary renders the host-side cost of a parallel experiment
// sweep: how many independent runs were fanned out, over how many
// workers, and how well the host cores were used. Wall times are
// host-dependent, so this table goes to stdout/JSON only — never into
// the experiment CSVs, which stay byte-identical across -parallel
// settings.
func SweepSummary(st sweep.Stats) *Table {
	t := &Table{
		Title: "Sweep summary (host)",
		Cols:  []string{"metric", "value"},
	}
	t.Add("simulation runs", st.Jobs)
	t.Add("workers", st.Workers)
	t.Add("wall time", st.Wall.String())
	t.Add("total run time", st.Busy.String())
	t.Add("effective parallelism", fmt.Sprintf("%.2fx", st.Speedup()))
	t.Add("host-core utilization", Pct(st.Utilization()))
	return t
}

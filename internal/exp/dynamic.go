package exp

import (
	"context"
	"fmt"

	"misp/internal/core"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// A4 — dynamic AMS binding (§5.4/§7 future work). A shredded
// application confined to one MISP processor (FlagNoMP) runs on the
// 4×2 configuration; without dynamic binding it can use only its own
// processor's 1 OMS + 1 AMS, while three AMSs sit idle behind other
// OMSs. With the kernel's dynamic binder, those quiescent AMSs are
// rebound to the application's processor one per timer tick, and the
// gang scheduler starts workers on them as they arrive.

// DynamicRow is one scenario of the dynamic-binding ablation.
type DynamicRow struct {
	Scenario      string
	StaticCycles  uint64
	DynamicCycles uint64
	Rebinds       uint64
	Speedup       float64
}

// AblationDynamicBinding runs the A4 scenarios.
func AblationDynamicBinding(opt Options) ([]DynamicRow, error) {
	opt.defaults()
	app := "raytracer"
	if len(opt.Apps) == 1 {
		app = opt.Apps[0]
	}
	w, err := workloads.ByName(app)
	if err != nil {
		return nil, err
	}
	scenarios := []struct {
		name  string
		top   core.Topology
		loads int
	}{
		{"4x2, idle donors", core.Topology{1, 1, 1, 1}, 0},
		{"4x2, 3 spinners on donors", core.Topology{1, 1, 1, 1}, 3},
	}
	type cell struct {
		cycles, rebinds uint64
	}
	cells, err := grid(&opt, 2*len(scenarios), func(ctx context.Context, i int) (cell, error) {
		sc, dynamic := scenarios[i/2], i%2 == 1
		prog := w.BuildFlags(shredlib.ModeShred, opt.Size, shredlib.FlagNoMP)
		cycles, rebinds, err := multiprogRun(ctx, &opt, w, prog, sc.top, sc.loads, dynamic)
		if err != nil {
			return cell{}, fmt.Errorf("exp: A4 %q dynamic=%v: %w", sc.name, dynamic, err)
		}
		return cell{cycles: cycles, rebinds: rebinds}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []DynamicRow
	for si, sc := range scenarios {
		static, dyn := cells[si*2], cells[si*2+1]
		out = append(out, DynamicRow{
			Scenario:      sc.name,
			StaticCycles:  static.cycles,
			DynamicCycles: dyn.cycles,
			Rebinds:       dyn.rebinds,
			Speedup:       float64(static.cycles) / float64(dyn.cycles),
		})
	}
	return out, nil
}

// DynamicTable renders A4.
func DynamicTable(rows []DynamicRow) *report.Table {
	t := &report.Table{
		Title: "A4 — Dynamic AMS binding (§5.4/§7): confined shredded app on 4x2",
		Cols:  []string{"scenario", "static cycles", "dynamic cycles", "rebinds", "dynamic speedup"},
	}
	for _, r := range rows {
		t.Add(r.Scenario, r.StaticCycles, r.DynamicCycles, r.Rebinds, r.Speedup)
	}
	return t
}

package exp

import (
	"reflect"
	"testing"

	"misp/internal/core"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/sweep"
	"misp/internal/workloads"
)

// TestRunDedupsCells: Figure 4, Figure 5, A1 and A2 share each app's
// MISP 1×N cell, so run together they simulate 3+4+2+2-3 = 8 cells per
// app, and every experiment's rows equal its standalone function's.
func TestRunDedupsCells(t *testing.T) {
	apps := []string{"dense_mmm", "kmeans"}
	var stats sweep.Stats
	opt := testOpts(apps...)
	opt.SweepStats = &stats
	got := map[string]string{}
	emit := func(csv string, t *report.Table) { got[csv] = t.CSV() }
	if err := Run(opt, Args{}, emit, "fig4", "fig5", "ring", "probe"); err != nil {
		t.Fatal(err)
	}
	if want := len(apps) * (3 + 4 + 2 + 2 - 3); stats.Jobs != want {
		t.Errorf("ran %d cells, want %d", stats.Jobs, want)
	}

	o := testOpts(apps...)
	o.defaults()
	res := must(runCells(&o, evalView.cellsOf, sweepView.cellsOf, ringView.cellsOf, probeView.cellsOf))
	eval, sweepRows := must(Evaluate(testOpts(apps...))), must(SignalSweep(testOpts(apps...)))
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Evaluate", must(evalView.eval(&o, res.get)), eval},
		{"SignalSweep", must(sweepView.eval(&o, res.get)), sweepRows},
		{"AblationRingPolicy", must(ringView.eval(&o, res.get)), must(AblationRingPolicy(testOpts(apps...)))},
		{"AblationProbe", must(probeView.eval(&o, res.get)), must(AblationProbe(testOpts(apps...)))},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: shared-cell rows\n%+v\nwant\n%+v", c.name, c.got, c.want)
		}
	}

	want := map[string]string{
		"fig4":           Fig4Table(eval, o.Seqs).CSV(),
		"fig5":           Fig5Table(sweepRows).CSV(),
		"ablation_ring":  RingPolicyTable(must(AblationRingPolicy(testOpts(apps...)))).CSV(),
		"ablation_probe": ProbeTable(must(AblationProbe(testOpts(apps...)))).CSV(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run rendered\n%v\nwant\n%v", got, want)
	}
}

// TestCellKey: a cell's key spells every field, and the four views that
// read the default MISP 1×N cell name the same one.
func TestCellKey(t *testing.T) {
	o := testOpts()
	o.defaults()
	gauss, swim := must(workloads.ByName("gauss")), must(workloads.ByName("swim"))
	base := o.mispCell(gauss)
	keys := map[string]string{base.String(): "base"}
	for _, p := range []struct {
		field   string
		perturb func(c *cell)
	}{
		{"app", func(c *cell) { c.w = swim }},
		{"mode", func(c *cell) { c.mode = shredlib.ModeThread }},
		{"topology", func(c *cell) { c.top = core.Topology{1, 1} }},
		{"signal", func(c *cell) { c.signal = 500 }},
		{"ring", func(c *cell) { c.ring = core.RingMonitorCR }},
		{"flags", func(c *cell) { c.flags = shredlib.FlagProbePages }},
		{"size", func(c *cell) { c.size = workloads.SizeSmall }},
	} {
		c := base
		p.perturb(&c)
		if other, dup := keys[c.String()]; dup {
			t.Errorf("%s: perturbed cell has %s's key %q", p.field, other, c.String())
		}
		keys[c.String()] = p.field
	}

	for _, seqs := range []int{0, 4} {
		o := Options{Size: workloads.SizeTest, Seqs: seqs, Apps: []string{"gauss"}}
		o.defaults()
		want := must(evalView.cellsOf(&o))[1]
		for name, c := range map[string]cell{
			"SignalSweep's 5000-cycle": must(sweepView.cellsOf(&o))[3],
			"A1's suspend-all":         must(ringView.cellsOf(&o))[0],
			"A2's demand":              must(probeView.cellsOf(&o))[0],
		} {
			if c.String() != want.String() {
				t.Errorf("seqs %d: %s cell is %q, Evaluate's MISP cell %q", seqs, name, c, want)
			}
		}
	}
}

// must returns v, panicking on err: set-up that cannot fail when the
// code under test works.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

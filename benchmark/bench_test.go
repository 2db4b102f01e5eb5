//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"misp/internal/serve"
)

func TestQuantileAndHighPercentile(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// Highest percentile with at least ten samples beyond it; the median
	// alone below 20 samples.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highPercentile(c.n); got != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	if p, v := highTail(vals); p != 90 || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("highTail(0..99) = p%v %v, want p90 89.1", p, v)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "op", start: d(0), end: d(100), parent: -1},
		{name: "a", start: d(10), end: d(40), parent: 0},
		{name: "b", start: d(30), end: d(60), parent: 0},    // overlaps a by 10
		{name: "c", start: d(90), end: d(120), parent: 0},   // pokes 20 outside the parent
		{name: "a1", start: d(15), end: d(20), parent: 1},   // grandchild: only a's business
		{name: "in", start: d(35), end: d(38), parent: 0},   // wholly inside a ∪ b
		{name: "other", start: d(0), end: d(5), parent: -1}, // a second root
	}
	self := selfTimes(spans)
	// op: 100 − |[10,60] ∪ [90,100]| = 100 − 60 = 40.
	want := []time.Duration{d(40), d(25), d(30), d(30), d(5), d(3), d(5)}
	if !slices.Equal(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if got := selfByName(spans)["a"]; len(got) != 1 || got[0] != d(25) {
		t.Errorf("selfByName[a] = %v", got)
	}
}

func keysOf(t *testing.T, reqs []serve.Request) []string {
	t.Helper()
	keys := make([]string, len(reqs))
	for i := range reqs {
		c, err := reqs[i].Canonicalize()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		keys[i] = c.Key()
	}
	return keys
}

func TestStreamsSeeded(t *testing.T) {
	apps := evaluatedApps(0)
	a, b, c := missStream(1, apps, "small"), missStream(1, apps, "small"), missStream(2, apps, "small")
	ka, kb, kc := keysOf(t, a), keysOf(t, b), keysOf(t, c)
	if !slices.Equal(ka, kb) {
		t.Error("missStream: same seed gave different request lists")
	}
	if slices.Equal(ka, kc) {
		t.Error("missStream: different seeds gave the same order")
	}
	if want := len(apps) * len(shapes) * len(signalCosts) * len(ringPolicies); len(a) != want {
		t.Fatalf("missStream has %d requests, want the whole key space %d", len(a), want)
	}
	seen := make(map[string]bool)
	for _, k := range ka {
		if seen[k] {
			t.Fatal("missStream repeated a key")
		}
		seen[k] = true
	}
	// Different seeds draw the same key space.
	for _, k := range kc {
		if !seen[k] {
			t.Fatal("missStream: seed 2 drew a key seed 1 never did")
		}
	}
	// Every block: each app once per ring policy, on one cell.
	block := missBlockOps(len(apps))
	for b0 := 0; b0 < len(a); b0 += block {
		cell := make(map[string]string)
		count := make(map[string]int)
		for _, r := range a[b0 : b0+block] {
			id := fmt.Sprintf("%s %v %d", r.Mode, r.Topology, *r.SignalCost)
			if prev, ok := cell[r.App]; ok && prev != id {
				t.Fatalf("block at %d: app %s appears on two cells", b0, r.App)
			}
			cell[r.App] = id
			count[r.App+"/"+r.RingPolicy]++
		}
		if len(count) != block {
			t.Fatalf("block at %d: %d distinct (app, ring policy) pairs, want %d", b0, len(count), block)
		}
	}

	ra, rb, rc := reuseStream(1, 32, 4096), reuseStream(1, 32, 4096), reuseStream(2, 32, 4096)
	if !slices.Equal(ra, rb) || slices.Equal(ra, rc) {
		t.Error("reuseStream: seeding is not deterministic-per-seed")
	}
	hot := 0
	for _, k := range ra {
		if k >= 32 {
			t.Fatalf("reuseStream drew rank %d of 32", k)
		}
		if k == 0 {
			hot++
		}
	}
	if hot < len(ra)/10 {
		t.Errorf("Zipf(1.1) rank 0 drew %d of %d; expected the hottest key to dominate", hot, len(ra))
	}
	if !slices.Equal(keysOf(t, reuseKeys(apps, "small")), keysOf(t, reuseKeys(apps, "small"))) {
		t.Error("reuseKeys is not stable")
	}
	p1, p2, p3 := shuffled(newRand(1, streamSim), 16), shuffled(newRand(1, streamSim), 16), shuffled(newRand(2, streamSim), 16)
	if !slices.Equal(p1, p2) || slices.Equal(p1, p3) {
		t.Error("shuffled: seeding is not deterministic-per-seed")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var got, want []string
	for _, w := range allWorkloads {
		got = append(got, w.name)
	}
	for _, w := range doc.Workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
	e2e := e2eMetrics(&e2eRun{rounds: []round{{wall: time.Second, ops: 1}}, lat: []time.Duration{time.Second}})
	got, want = nil, nil
	for _, name := range endToEnd {
		got = append(got, name+" "+e2e[name].Unit)
	}
	for _, m := range doc.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
	got, want = nil, nil
	for _, m := range perLayer {
		got = append(got, m.name+" "+m.unit)
	}
	for _, m := range doc.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	if !slices.Equal(got, want) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
	}
	seen := make(map[string]bool)
	for _, nu := range append(got, want...) {
		var name, unit string
		if _, err := fmt.Sscan(nu, &name, &unit); err != nil || !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("bad metric name or unit %q", nu)
		}
		seen[name] = true
	}
	if len(seen) != len(perLayer) {
		t.Errorf("%d distinct per-layer names, want %d", len(seen), len(perLayer))
	}
}

// TestSmoke runs every workload once, traced, at the smallest size on
// two apps, and checks that every metric BENCHMARK.json names comes out
// finite, the ops are correct, and the trace file loads.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns mispserve")
	}
	doc := readBenchmarkJSON(t)
	// The two serve workloads share the daemon binary's build, so they
	// run one after the other; the two groups run side by side.
	for _, group := range [][]workload{allWorkloads[:2], allWorkloads[2:]} {
		t.Run(group[0].name+"+"+group[1].name, func(t *testing.T) {
			t.Parallel()
			for _, w := range group {
				smoke(t, doc, w)
			}
		})
	}
}

func smoke(t *testing.T, doc benchmarkJSON, w workload) {
	cfg, err := newConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.seconds, cfg.trace, cfg.size, cfg.appLimit = 0.2, true, "test", 2
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := runWorkload(ctx, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d errors=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Errors)
	}
	for _, m := range doc.EndToEnd {
		v, ok := res.EndToEnd[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
			t.Errorf("%s: end-to-end %s = %+v (present %t)", w.name, m.Name, v, ok)
		}
	}
	for _, m := range doc.PerLayer {
		v, ok := res.PerLayer[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: per-layer %s = %+v (present %t)", w.name, m.Name, v, ok)
		}
	}
	for _, trace := range []bool{false, true} {
		var line struct {
			Correct           *bool
			Attempted, Failed *int
			Metrics           map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(contractLine(res, trace)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("%s: contract line does not parse: %v", w.name, err)
		}
		want := len(doc.EndToEnd)
		if trace {
			want = len(doc.PerLayer)
		}
		if len(line.Metrics) != want {
			t.Errorf("%s trace=%t: contract line has %d metrics, want %d", w.name, trace, len(line.Metrics), want)
		}
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   *uint64
		} `json:"traceEvents"`
	}
	b, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) < 2 {
		t.Fatalf("%s: trace file does not load: %v (%d events)", w.name, err, len(tr.TraceEvents))
	}
	for _, ev := range tr.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.TS == nil {
			t.Fatalf("%s: trace event missing a required field: %+v", w.name, ev)
		}
	}
}

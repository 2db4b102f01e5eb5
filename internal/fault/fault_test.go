package fault

import (
	"errors"
	"fmt"
	"testing"
)

// drive exercises a plan through a fixed mixed sequence of decision
// points and returns the resulting schedule rendering.
func drive(p *Plan, steps int) string {
	if p == nil {
		return ""
	}
	for i := 0; i < steps; i++ {
		p.OnRetire(i%3 == 0)
		if i%7 == 0 {
			p.OnSignal()
		}
		if i%11 == 0 {
			p.OnProxyRequest()
		}
	}
	return p.LogString()
}

func TestPlanDeterminism(t *testing.T) {
	cfg := Uniform(42, 50)
	a := drive(NewPlan(cfg), 5000)
	b := drive(NewPlan(cfg), 5000)
	if a == "" {
		t.Fatal("no injections at period 50 over 5000 decisions")
	}
	if a != b {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	if c := drive(NewPlan(Uniform(43, 50)), 5000); c == a {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPlanKindIndependence(t *testing.T) {
	// Enabling an extra kind must not perturb another kind's draws:
	// each kind owns its own splitmix64 stream. A higher-priority kind
	// firing does shift lower-priority decision points in time (at most
	// one kind fires per retirement), so the invariant is a prefix
	// match on the draw sequence, not an exact count match.
	only := NewPlan(Uniform(7, 100, MemBitFlip))
	both := NewPlan(Uniform(7, 100, MemBitFlip, TLBFlush))
	drive(only, 20000)
	drive(both, 20000)
	var a, b []Record
	for _, r := range only.Log() {
		if r.Kind == MemBitFlip {
			a = append(a, r)
		}
	}
	for _, r := range both.Log() {
		if r.Kind == MemBitFlip {
			b = append(b, r)
		}
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		t.Fatal("no bitflip injections to compare")
	}
	for i := 0; i < n; i++ {
		if a[i].Arg != b[i].Arg {
			t.Fatalf("bitflip draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPlanMaxCaps(t *testing.T) {
	cfg := Uniform(1, 10, SpuriousYield)
	cfg.Max[SpuriousYield] = 3
	p := NewPlan(cfg)
	drive(p, 10000)
	if got := p.Counts()[SpuriousYield]; got != 3 {
		t.Fatalf("Max=3 but %d injections fired", got)
	}
	if p.Total() != 3 {
		t.Fatalf("Total() = %d, want 3", p.Total())
	}
}

func TestZeroConfigDisabled(t *testing.T) {
	var cfg Config
	if cfg.Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	if NewPlan(cfg) != nil {
		t.Fatal("NewPlan(zero) built a plan")
	}
}

func TestConfigDefaults(t *testing.T) {
	p := NewPlan(Uniform(9, 1000))
	if p.SignalDelay() != 25_000 {
		t.Fatalf("default SignalDelay = %d", p.SignalDelay())
	}
	if p.StallCycles() != 2_000_000 {
		t.Fatalf("default StallCycles = %d", p.StallCycles())
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		s := k.String()
		if s == "fault?" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

func TestParseKinds(t *testing.T) {
	var names []string
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	got, err := ParseKinds(names)
	if err != nil || fmt.Sprint(got) != fmt.Sprint(Kinds()) {
		t.Fatalf("ParseKinds(%v) = %v, %v", names, got, err)
	}
	for _, bad := range [][]string{{"ams-kill", "nope"}, {" ams-kill"}, {""}} {
		if _, err := ParseKinds(bad); err == nil {
			t.Errorf("ParseKinds(%q) accepted", bad)
		}
	}
}

func TestDiagnosisWrapsError(t *testing.T) {
	base := errors.New("core: deadlock at cycle 99")
	d := &Diagnosis{Reason: ReasonDeadlock, Cycle: 99, Err: fmt.Errorf("wrapped: %w", base)}
	if !errors.Is(d, base) {
		t.Fatal("errors.Is does not reach the wrapped error")
	}
	var out *Diagnosis
	if !errors.As(error(d), &out) || out.Reason != ReasonDeadlock {
		t.Fatal("errors.As fails on a Diagnosis")
	}
	if msg := d.Error(); len(msg) == 0 {
		t.Fatal("empty rendering")
	}
}
